"""Names earn their place: every function, class and method has a user in
the program, a `commalg` re-export has a user outside the package, a library
module imports only names it uses, no package `__init__` hides one of its
submodules behind another object, and every default is one that some
program call leaves out."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detlab"
COMMALG = SRC / "commalg"
BENCH = ROOT / "bench"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [a.asname or a.name.split(".")[0] for a in node.names]


def referenced_names(tree: ast.AST, imports: bool = True) -> Counter:
    """How often each identifier is read or (with `imports`) imported in a
    tree (not the text of strings)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif imports and isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
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
        seen.update(referenced_names(parse(path)))
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


def names_bound_at_top(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level, except `from . import x`, which
    binds the submodule x itself."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(bound_names(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def test_package_inits_do_not_shadow_submodules():
    """`import detlab.commalg.groebner as g` must give the module: a package
    attribute of the same name would be returned instead."""
    shadowed = []
    for init in sorted(SRC.rglob("__init__.py")):
        package = init.parent
        submodules = {p.stem for p in package.glob("*.py") if p.name != "__init__.py"}
        submodules |= {d.name for d in package.iterdir() if (d / "__init__.py").is_file()}
        shadowed += [
            f"{init.relative_to(SRC.parent)}: {name}"
            for name in sorted(names_bound_at_top(parse(init)) & submodules)
        ]
    assert shadowed == []


def span_target_names() -> set[str]:
    """The dotted parts of the strings in `bench/layers.py` TARGETS: the
    traced run wraps those functions by name."""
    for node in parse(BENCH / "layers.py").body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return {
                part
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                for part in leaf.value.split(".")
            }
    raise AssertionError("bench/layers.py has no TARGETS")


def methods(tree: ast.AST) -> set[ast.AST]:
    """The function definitions directly in a class body."""
    return {
        item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def attribute_names(tree: ast.AST) -> Counter:
    """How often each identifier is read as an attribute (`x.name`)."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_definition_is_named_by_the_program():
    """Each function, class and method under src/detlab (dunders excepted) is
    named in src/ or bench/ outside its own definition; a method only through
    attribute access (`x.name`), never by a bare identifier such as a local
    variable of the same name.  Package `__init__` re-exports and tests do
    not count; the span targets of the traced run do."""
    trees = {path: parse(path) for folder in (SRC, BENCH) for path in sorted(folder.rglob("*.py"))}
    uses = span_target_names()
    counts: Counter = Counter()
    attrs: Counter = Counter()
    for path, tree in trees.items():
        counts.update(referenced_names(tree, imports=path.name != "__init__.py"))
        attrs.update(attribute_names(tree))
    unnamed = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        in_class = methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__") or node.name in uses:
                continue
            if node in in_class:
                named = attrs[node.name] > attribute_names(node)[node.name]
            else:
                named = counts[node.name] > referenced_names(node)[node.name]
            if not named:
                unnamed.append(f"{path.relative_to(SRC.parent)}:{node.lineno} {node.name}")
    assert unnamed == []


def defaulted_parameters(tree: ast.Module):
    """(call key, label, parameters, defaulted) for each function and method
    with a default.  The key is the name a call uses: a function's or
    method's own name, and a class's name for its `__init__`.  `parameters`
    are the positional ones a call fills, so without `self` or `cls`."""
    defs = [(node, None) for node in tree.body]
    defs += [
        (item, node)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
    ]
    for node, cls in defs:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        decorators = {getattr(d, "id", None) for d in node.decorator_list}
        if cls is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if not defaulted:
            continue
        key = cls.name if cls is not None and node.name == "__init__" else node.name
        label = node.name if cls is None else f"{cls.name}.{node.name}"
        yield key, label, positional, defaulted


def call_shapes(tree: ast.AST):
    """(name called, positional count, keyword names) of every call that
    names its arguments.  A call through `*args` or `**kwargs` passes every
    parameter and is left out; `partial(f, ...)` calls `partial`, not f, so
    it never leaves out a parameter of f."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args):
            continue
        if any(k.arg is None for k in node.keywords):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None:
            yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_default_is_omitted_by_a_program_call():
    """A default that every call overrides serves no caller: each defaulted
    parameter of a function or method under src/detlab is left out by at
    least one call in src/ or bench/.  A call matches by the name it calls
    (the attribute name for `x.name(...)`), and a call of a class matches
    that class's `__init__`.  Command-line defaults live in the option
    table, not here."""
    calls: dict[str, list] = {}
    for folder in (SRC, BENCH):
        for path in sorted(folder.rglob("*.py")):
            for name, npos, keywords in call_shapes(parse(path)):
                calls.setdefault(name, []).append((npos, keywords))
    defaults, never_omitted = [], []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for key, label, positional, defaulted in defaulted_parameters(parse(path)):
            for param in defaulted:
                defaults.append(f"{where} {label}.{param}")
                index = positional.index(param) if param in positional else len(positional)
                if not any(
                    npos <= index and param not in keywords for npos, keywords in calls.get(key, [])
                ):
                    never_omitted.append(defaults[-1])
    assert defaults
    assert never_omitted == []
