"""Guards on the source tree of the package itself.

Code that no module of the package calls is either dead or kept alive only by
its own unit test; either way it goes.  The check is by name: a module-level
function or class, or a method, counts as used when some module other than
__init__.py (whose imports only re-export) names it, as a bare name or as an
attribute.  String mentions, such as the entries of __all__, do not count.
"""

import ast
import pathlib
import time

import grade3

SRC = pathlib.Path(grade3.__file__).parent

# Definitions allowed to have no caller in the package, each with its reason.
ALLOWED_UNREFERENCED: dict[str, str] = {}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name) of the module-level defs and classes and of the
    methods of module-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_definitions(src: pathlib.Path) -> list[str]:
    defined, referenced = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += _definitions(tree, path.stem)
        if path.name != "__init__.py":
            referenced |= _references(tree)
    return sorted(qualified for qualified, name in defined
                  if name not in referenced
                  and not (name.startswith("__") and name.endswith("__"))
                  and qualified not in ALLOWED_UNREFERENCED)


def test_every_definition_has_a_caller_in_the_package():
    start = time.perf_counter()
    assert unreferenced_definitions(SRC) == []
    assert time.perf_counter() - start < 1.0


def test_the_guard_sees_an_uncalled_function_and_a_method(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "__all__ = ['used', 'unused']\n"
        "def used():\n    return Box().width()\n"
        "def unused():\n    return used()\n"
        "class Box:\n"
        "    def __init__(self):\n        pass\n"
        "    def width(self):\n        return 1\n"
        "    def height(self):\n        return 2\n")
    assert unreferenced_definitions(tmp_path) == ["a.Box.height", "a.unused"]
