"""No public entry point whose only caller is its own test.

A name is public when it is in a module's ``__all__`` or is bound by the
package's ``__init__``.  It counts as used when the package source, the
benchmark harness (``perfbench/``) or the README refers to it anywhere other
than its own ``def``/``class`` statement, an ``__all__`` list or an import.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import evometric

ROOT = Path(__file__).resolve().parent.parent


class _Uses(ast.NodeVisitor):
    """The names one module refers to: loaded names, attribute names and
    string constants (``getattr``/patch targets), outside imports and
    ``__all__`` assignments."""

    def __init__(self):
        self.names: set = set()

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.add(node.value)


def _public_names() -> set:
    names = {n for n, v in vars(evometric).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(evometric.__path__, "evometric.")]
    for mod in [evometric] + modules:
        names.update(getattr(mod, "__all__", ()))
    return names


def _used_names() -> set:
    uses = _Uses()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        uses.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return uses.names | set(re.findall(r"\w+", readme))


def test_every_public_name_has_a_caller_outside_the_tests():
    public = _public_names()
    assert "distance" in public and "validate" in public
    assert sorted(public - _used_names()) == []
