"""README's library example runs as written against the package source,
every README section or phrase that a docstring cites exists, README
states the finish constants with the values the code has, and its module
map names only what each module has."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import gridgram
from gridgram import access1d, access2d

README = Path(__file__).resolve().parents[1] / "README.md"
# a citation: the word README, a comma, then the cited text in double quotes
CITATION = re.compile(r'README,\s+"([^"]+)"')


def test_readme_library_block_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    src = str(Path(gridgram.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", block], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def _docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def test_readme_citations_name_text_in_readme():
    sources = sorted(Path(gridgram.__file__).parent.glob("*.py"))
    sources += sorted(Path(__file__).parent.glob("*.py"))
    text = " ".join(README.read_text(encoding="utf-8").split())
    cited = [(path.name, " ".join(quote.split())) for path in sources
             for doc in _docstrings(path) for quote in CITATION.findall(doc)]
    # the access modules point to README for the index's design
    assert {"access1d.py", "access2d.py"} <= {name for name, _ in cited}
    missing = [(name, quote) for name, quote in cited if quote not in text]
    assert not missing, f"docstrings cite README text that it does not hold: {missing}"


def test_readme_states_the_finish_constants():
    """README gives each finish factor the value the code has, and each
    finish rule the form the code tests (the level in 1D, the higher of the
    two levels in 2D), so that retuning either cannot leave the text stale."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    for name, value in (("access1d.FINISH", access1d.FINISH),
                        ("access2d.FINISH2", access2d.FINISH2)):
        stated = re.findall(rf"`{re.escape(name)}` = (\d+)", text)
        assert stated and all(int(v) == value for v in stated), (name, value, stated)
    for factor, levels in (("FINISH", "p"), ("FINISH2", "max(p_r, p_c)")):
        stated = re.findall(rf"`height\(v\) <= {factor} \* ([^`]*)`", text)
        assert stated and all(v == levels for v in stated), (factor, levels, stated)


def test_readme_module_map_names_what_each_module_has():
    """Every backticked name in a "Module map" bullet is an attribute of the
    bullet's module, its first name, but for the command name in the cli
    bullet, so a name a module drops cannot stay in the map."""
    text = README.read_text(encoding="utf-8").split("\nModule map:\n", 1)[1]
    bullets = text.strip().split("\n\n", 1)[0].split("\n* ")
    missing, modules = [], []
    for bullet in bullets:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        modules.append(module)
        mod = importlib.import_module(f"gridgram.{module}")
        missing += [(module, name) for name in names
                    if not hasattr(mod, name) and (module, name) != ("cli", "gridgram")]
    assert {"access1d", "access2d", "cli"} <= set(modules)
    assert not missing, f"README's module map names what the modules lack: {missing}"
