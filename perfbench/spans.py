"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the program: its name (the layer
metric prefix, e.g. ``access1d.build``), start and end in
``time.perf_counter_ns`` units, the index of its parent span (-1 for a root)
and the id of the request it belongs to. Spans are kept in a list while the
run executes and written out once it ends.

The untraced run uses ``NullRecorder``, whose ``call`` is a plain call, so
end-to-end numbers never pay for span bookkeeping.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class NullRecorder:
    """Recorder stand-in for the untraced run: calls through, records nothing."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, k):
        pass


class Recorder:
    """Collects (name, start, end, parent, request) spans in memory."""

    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent_index, request_id]
        self._open = []       # indices of spans not yet ended, innermost last
        self._request = 0
        self.counts = {}      # name -> running total of a counted quantity

    def request(self):
        """Start a new request id; spans begun after this share it."""
        self._request += 1
        return self._request

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _now(), 0, parent, self._request])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _now()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} ended while span {popped} was innermost")

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span named ``name``."""
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def write(self, path):
        """Write every span as one JSON line, with its self time."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for (name, start, end, parent, req), own in zip(self.spans, selfs):
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "request": req,
                                    "self_ns": own}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result is never negative.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """name -> {"count", "total_ns", "self_ns", "durations_ns"} over all spans."""
    selfs = self_times(spans)
    out = {}
    for span, own in zip(spans, selfs):
        agg = out.setdefault(span[0], {"count": 0, "total_ns": 0, "self_ns": 0,
                                       "durations_ns": []})
        dur = span[2] - span[1]
        agg["count"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += own
        agg["durations_ns"].append(dur)
    return out
