"""No public entry point whose only caller is its own test.

A name is public when it is in a module's ``__all__`` or is bound by the
package's ``__init__``.  It counts as used when the package source, the
benchmark harness (``perfbench/``) or the README refers to it anywhere other
than its own ``def``/``class`` statement, an ``__all__`` list or an import.

A method or property of a public class, defined in the package, counts as
used when the package source or the benchmark harness refers to it as an
attribute (``x.name``) or in a string constant (``getattr``/patch
targets), or when a code span or code block of the README names it.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path
from types import FunctionType

import evometric

ROOT = Path(__file__).resolve().parent.parent


class _Uses(ast.NodeVisitor):
    """The names one module refers to: loaded names, attribute names and
    string constants (``getattr``/patch targets), outside imports and
    ``__all__`` assignments."""

    def __init__(self):
        self.names: set = set()
        self.attributes: set = set()

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
        self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.add(node.value)
            self.attributes.add(node.value)


def _public_objects() -> dict:
    objects = {n: v for n, v in vars(evometric).items()
               if not n.startswith("_") and not inspect.ismodule(v)}
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(evometric.__path__, "evometric.")]
    for mod in [evometric] + modules:
        objects.update({n: getattr(mod, n) for n in getattr(mod, "__all__", ())})
    return objects


def _public_methods() -> set:
    """``Class.name`` of every public method and property that a public
    class of the package defines itself."""
    out = set()
    for cls in _public_objects().values():
        if not inspect.isclass(cls) or not cls.__module__.startswith("evometric"):
            continue
        for name, member in vars(cls).items():
            if not name.startswith("_") and isinstance(
                    member, (FunctionType, property, classmethod, staticmethod)):
                out.add(f"{cls.__name__}.{name}")
    return out


def _uses() -> _Uses:
    uses = _Uses()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        uses.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return uses


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_code_words() -> set:
    """The words inside the README's code blocks and code spans."""
    text = _readme()
    blocks = re.findall(r"^```.*?\n(.*?)^```", text, flags=re.M | re.S)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def test_every_public_name_has_a_caller_outside_the_tests():
    public = set(_public_objects())
    assert "distance" in public and "validate" in public
    used = _uses().names | set(re.findall(r"\w+", _readme()))
    assert sorted(public - used) == []


def test_every_public_method_has_a_caller_outside_the_tests():
    methods = _public_methods()
    assert "ValidationReport.raise_if_invalid" in methods
    assert "PenaltyFunction.eval_batch" in methods
    used = _uses().attributes | _readme_code_words()
    assert sorted(m for m in methods if m.split(".")[1] not in used) == []
