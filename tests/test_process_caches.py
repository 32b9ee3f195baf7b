"""Per-process caches are few and named: each holds an immutable table keyed
on a small argument (a shape and a rank, or a weight).  Anything larger, such
as the tensor products of one verdict, lives in a memo the caller owns and
drops when the verdict returns."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"
CACHES = {"cache", "lru_cache"}
ALLOWED = {"_character_table", "_exterior_table", "_weyl_dim"}


def _is_cache(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (
        isinstance(node, ast.Attribute)
        and node.attr in CACHES
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_functools_caches_are_exactly_the_allowed_tables():
    files = sorted(SRC.rglob("*.py"))
    assert files
    cached, references, imported = [], 0, []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                imported += [a.name for a in node.names if a.name in CACHES]
            if isinstance(node, ast.Attribute) and _is_cache(node):
                references += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cached += [node.name for d in node.decorator_list if _is_cache(d)]
    assert imported == []
    # every functools.cache / lru_cache reference decorates a def
    assert references == len(cached)
    assert sorted(cached) == sorted(ALLOWED)
