"""Every name a library module imports is used there or exported."""

import ast
from pathlib import Path

import halfline

SOURCE = Path(halfline.__file__).parent
# imports kept on purpose, each marked ``# noqa: F401`` on its line: the
# benchmark's tracer patches segment_nodes at spectral's binding, and its
# own test asserts that the binding exists
KEPT = {("spectral.py", "segment_nodes")}


def _unused_imports(source: str) -> tuple:
    """(unused, kept): names bound by the module's imports that no
    expression reads and ``__all__`` does not list, split by whether their
    import line is marked ``noqa: F401``; each as (line, name)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used and name not in exported)
    kept = [item for item in unused if "noqa: F401" in lines[item[0] - 1]]
    return [item for item in unused if item not in kept], kept


def test_unused_import_guard_finds_an_unused_name():
    source = ("import math\nimport json  # noqa: F401\n"
              "from os import path, sep\n"
              "__all__ = ['sep']\nx = path.join('a')\n")
    assert _unused_imports(source) == ([(1, "math")], [(2, "json")])


def test_library_modules_import_only_what_they_use():
    found, kept = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        unused, marked = _unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
        kept |= {(path.name, name) for _, name in marked}
    assert not found, found
    assert kept == KEPT
