"""Rules the package source keeps, read from its syntax trees.

No ``assert`` statement: ``python -O`` strips them, so a contract the code
checks must be an explicit raise. No import from outside the standard
library: the package is stdlib-only, so every import is either a standard
module or relative to the package. One environment read in the package:
``cli.py``'s ``_cap`` reads ``GG_CAP_CELLS``, the one knob, where the command
line is. No ``raise`` of a builtin exception class: every domain
error is a ``GrammarError`` subclass; a bare re-``raise`` passes one on.
No ``except`` clause in the access modules: their walks check their
contracts before walking, and never learn of a bad input from an error
raised mid-walk. No import of ``gc``: the library must not win time by
changing its caller's garbage collector. No read of ``validated`` outside
``slg.py``: one gate there, ``_Grammar._ready``, decides what every entry
point does with a grammar that has not passed validation.
"""

import ast
import builtins
import sys
from pathlib import Path

import pytest

import gridgram

SOURCES = sorted(Path(gridgram.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "slg.py", "slg2d.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def _foreign_imports(tree):
    """(line, module) of every absolute import outside the standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package_relative(path):
    foreign = list(_foreign_imports(_tree(path)))
    assert not foreign, f"{path.name}: imports outside the standard library: {foreign}"


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _env_read_nodes(tree):
    """(node, name) of every read of the environment through ``os``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READS \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            yield node, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_READS:
                    yield node, alias.name


def _env_reads(tree):
    """(line, name) of every read of the environment through ``os``."""
    return [(node.lineno, name) for node, name in _env_read_nodes(tree)]


def _env_read_sites(tree):
    """Sorted (enclosing function or None, expression) of every environment
    read, the expression being the read with the lookups and call it heads."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    sites = []
    for expr, _ in _env_read_nodes(tree):
        up = parent.get(expr)
        while isinstance(up, (ast.Attribute, ast.Subscript)) and up.value is expr \
                or isinstance(up, ast.Call) and up.func is expr:
            expr, up = up, parent.get(up)
        while up is not None and not isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            up = parent.get(up)
        sites.append((up and up.name, ast.unparse(expr)))
    return sorted(sites, key=lambda site: (site[0] or "", site[1]))


def _gc_imports(tree):
    """Lines of every import of ``gc``, or of a name from it."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level and node.module == "gc"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_gc(path):
    lines = _gc_imports(_tree(path))
    assert not lines, f"{path.name}: imports gc at lines {lines}"


def _validated_reads(tree):
    """Lines of every read of an attribute named ``validated``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == "validated" and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "slg.py"], ids=lambda p: p.name)
def test_only_slg_reads_whether_a_grammar_is_validated(path):
    """A module that reads ``validated`` writes a gate of its own."""
    lines = _validated_reads(_tree(path))
    assert not lines, f"{path.name}: reads validated at lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_the_cli_reads_the_environment(path):
    reads = list(_env_reads(_tree(path)))
    assert not reads, f"{path.name}: reads the environment: {reads}"


def test_the_cli_reads_the_environment_once():
    """A second knob, or a second reader of this one, fails here."""
    sites = _env_read_sites(_tree(Path(gridgram.__file__).parent / "cli.py"))
    assert sites == [("_cap", "os.environ.get('GG_CAP_CELLS')")], sites


def _builtin_raises(tree):
    """(line, name) of every ``raise`` of a builtin exception class, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and isinstance(getattr(builtins, exc.id, None), type) \
                    and issubclass(getattr(builtins, exc.id), BaseException):
                yield node.lineno, exc.id


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_raise_of_a_builtin_exception(path):
    raises = list(_builtin_raises(_tree(path)))
    assert not raises, f"{path.name}: raises builtin exceptions: {raises}"


def _handlers(tree):
    """Lines of every ``except`` clause, ``except*`` included."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]


@pytest.mark.parametrize("name", ["access1d.py", "access2d.py"])
def test_the_access_modules_catch_no_exception(name):
    path = Path(gridgram.__file__).parent / name
    assert not _handlers(_tree(path)), f"{name}: except clauses at lines {_handlers(_tree(path))}"


def test_the_rules_catch_what_they_name():
    tree = ast.parse("import os\nimport hypothesis.strategies\nfrom numpy import array\n"
                     "from . import slg\nfrom .errors import RangeError\nassert os\n"
                     "cap = os.environ.get('GG_CAP_CELLS')\nfrom os import getenv\n"
                     "os.getenv('X')\nos.path.join('a')\n")
    assert list(_foreign_imports(tree)) == [(2, "hypothesis.strategies"), (3, "numpy")]
    assert any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    assert sorted(_env_reads(tree)) == [(7, "os.environ"), (8, "getenv"), (9, "os.getenv")]
    assert list(_env_reads(_tree(Path(gridgram.__file__).parent / "cli.py")))
    assert _env_read_sites(tree) == [(None, "from os import getenv"),
                                     (None, "os.environ.get('GG_CAP_CELLS')"),
                                     (None, "os.getenv('X')")]
    reads = ast.parse("def _cap():\n    return os.environ.get('A'), os.environ['B']\n"
                      "def f():\n    return dict(os.environ), os.getenv\n")
    assert _env_read_sites(reads) == [("_cap", "os.environ.get('A')"),
                                      ("_cap", "os.environ['B']"),
                                      ("f", "os.environ"), ("f", "os.getenv")]
    raises = ast.parse("try:\n    pass\nexcept ValueError:\n    raise\n"
                       "raise TypeError('x')\nraise KeyError\nraise RangeError('y')\n"
                       "raise ValueError('z') from None\n")
    assert list(_builtin_raises(raises)) == [(5, "TypeError"), (6, "KeyError"),
                                            (8, "ValueError")]
    assert _handlers(raises) == [3]
    assert _handlers(ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n"
                               "finally:\n    pass\n")) == [3]
    assert _validated_reads(ast.parse("if g.validated:\n    pass\nok = Slg1._own(g).validated\n"
                                      "g.validated = True\nvalidated = 1\n")) == [1, 3]
    assert _validated_reads(_tree(Path(gridgram.__file__).parent / "slg.py"))
    assert _gc_imports(ast.parse("import gc\nimport os, gc as g\nfrom gc import disable\n"
                                 "import gcx\nfrom . import gc\n")) == [1, 2, 3]
