"""Every definition in the package is used by something other than a test.

A top-level function or class, or a method that is not a dunder, in
src/spreadlab/*.py must be named by another package module (the package
``__init__`` re-exports names, which does not count), by its own module
outside its own body, by a script under scripts/, or by the benchmark's
run, workloads or checks module.  Production code that only tests reach
is deleted instead.

Every module-level import in src/spreadlab/*.py other than ``from
__future__`` is named in its own module; the package ``__init__``, which
imports to re-export, is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "spreadlab").glob("*.py"))
USERS = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *(ROOT / "perfbench" / f"{name}.py" for name in ("run", "workloads", "checks")),
]


def named(tree, skip=None) -> set[str]:
    """Names and attribute names used in tree, outside the node skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def definitions(tree):
    """(label, node) of each top-level function and class and each of the
    classes' methods that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                name = getattr(method, "name", "")
                if isinstance(method, ast.FunctionDef) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield f"{node.name}.{name}", method


def test_every_definition_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES + USERS}
    uses = {path: named(tree) for path, tree in trees.items()}
    unused = []
    for path in SOURCES:
        tree = trees[path]
        elsewhere = set().union(*(
            used for p, used in uses.items() if p != path and p.name != "__init__.py"
        ))
        for label, node in definitions(tree):
            if node.name not in elsewhere and node.name not in named(tree, node):
                unused.append(f"{path.name}:{node.lineno} {label}")
    assert unused == []


def test_every_import_is_used_in_its_module():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = named(tree)
        imports = [
            node for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ]
        for node in imports:
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []
