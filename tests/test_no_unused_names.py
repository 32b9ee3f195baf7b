"""Names earn their place: a `commalg` re-export has a user outside the
package, and a library module imports only names it uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detlab"
COMMALG = SRC / "commalg"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [a.asname or a.name.split(".")[0] for a in node.names]


def referenced_names(tree: ast.AST) -> set[str]:
    """Identifiers read or imported in a module (not the text of strings)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_commalg_reexports_are_used_outside_commalg():
    exported = [
        name
        for node in parse(COMMALG / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for name in bound_names(node)
    ]
    assert exported
    users = [
        path
        for folder in (SRC, ROOT / "tests", ROOT / "bench")
        for path in folder.rglob("*.py")
        if COMMALG not in path.parents
    ]
    seen: set[str] = set()
    for path in users:
        seen |= referenced_names(parse(path))
    assert [name for name in exported if name not in seen] == []


def test_library_modules_use_what_they_import():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        ]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(SRC.parent)}:{node.lineno} {name}"
            for node in imports
            for name in bound_names(node)
            if name not in read
        ]
    assert unused == []
