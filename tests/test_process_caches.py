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


DICTS_AND_SETS = (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)


def _builds(node, displays: tuple, names: set) -> bool:
    """node is one of the `displays` or a call of a builtin in `names`."""
    return isinstance(node, displays) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
    )


def mutable_defaults(tree) -> list[int]:
    """Lines of the defs and lambdas with a dict, set or list default."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            if any(_builds(d, DICTS_AND_SETS + (ast.List, ast.ListComp),
                           {"dict", "set", "list"}) for d in defaults):
                found.append(node.lineno)
    return found


def module_dicts_and_sets(tree) -> list[int]:
    """Lines of the module-level bindings of a dict or a set."""
    return [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and _builds(node.value, DICTS_AND_SETS, {"dict", "set"})
    ]


def test_the_guards_see_a_hidden_process_cache():
    bad = ast.parse(
        "def f(x, memo={}):\n    pass\n"
        "g = lambda *, seen=set(): seen\n"
        "TABLE: dict = dict()\n"
        "SEEN = {1, 2}\n"
        "GRID = [(1, 2)]\n"
    )
    assert mutable_defaults(bad) == [1, 3]
    assert module_dicts_and_sets(bad) == [4, 5]


def test_no_mutable_default_arguments():
    """A `memo={}` default would turn a per-verdict memo into a per-process
    cache that no test sees."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in mutable_defaults(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_no_module_level_dict_or_set():
    """State shared by every call of a process lives only in the allowed
    tables above; a module-level constant may be a list or a tuple."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in module_dicts_and_sets(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
