"""Every top-level definition in `src/weaklab` is reached by the program.

A `def` or `class` at the top of a `weaklab` module that no file of the
package, of `scripts/` or of `lfbench/` names outside its own definition,
and that `weaklab.__all__` does not export, is kept alive only by the
tests: a test oracle belongs in `tests/reference.py`, and a path no caller
takes belongs deleted.
"""

import ast
import importlib
from pathlib import Path

import weaklab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weaklab"
PROGRAM = (PACKAGE, ROOT / "scripts", ROOT / "lfbench")


def _names(node):
    """The identifiers `node` uses: names, attributes, imported names, and
    strings spelled like an identifier (lfbench's tracer hooks a function
    through its name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def unreached():
    """`module.name` of each top-level definition in the package that no
    other top-level statement of the program names and `__all__` lacks."""
    definitions, uses = [], []
    for folder in PROGRAM:
        for path in sorted(folder.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                uses.append((node, set(_names(node))))
                if folder == PACKAGE and isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    definitions.append((path.stem, node))
    return ["%s.%s" % (module, node.name) for module, node in definitions
            if node.name not in weaklab.__all__
            and not any(node.name in names for user, names in uses if user is not node)]


def test_every_definition_is_reached_by_the_program():
    assert unreached() == []


def test_every_attribute_the_tracer_hooks_exists(monkeypatch):
    """lfbench's tracer swaps each hooked attribute through its owner's
    `__dict__`, so one that is renamed or removed fails every benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT))
    tracer = importlib.import_module("lfbench.tracer")
    missing = ["%s.%s" % (hook.owner.__name__, hook.name)
               for hook in tracer.hooks() if hook.name not in vars(hook.owner)]
    assert missing == []
