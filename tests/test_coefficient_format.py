"""One module owns the coefficient format (an int in [0, p) over F_p; in
characteristic zero an int when integral, a `Fraction` with denominator > 1
otherwise): `commalg/rings.py` makes it, and the Groebner engine's exit
normalizes through its `integral`.  Every other module stores and multiplies
coefficients as it receives them, so no other module may name `Fraction` or
`integral`, and only those two take a value mod the characteristic (the
engine's reduction loops do it inline)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"
FRACTION_OWNERS = {"commalg/rings.py"}
INTEGRAL_OWNERS = {"commalg/rings.py", "commalg/groebner.py"}
MOD_CHAR_OWNERS = {"commalg/rings.py", "commalg/groebner.py"}


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def fraction_references(tree) -> list[int]:
    """Lines that import the `fractions` module or name `Fraction`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "fractions" or any(a.name == "Fraction" for a in node.names)
        ):
            found.append(node.lineno)
        elif _named(node, "Fraction"):
            found.append(node.lineno)
    return sorted(found)


def integral_references(tree) -> list[int]:
    """Lines that import, call or pass on `integral`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "integral" for a in node.names):
            found.append(node.lineno)
        elif _named(node, "integral"):
            found.append(node.lineno)
    return sorted(found)


def mod_char_references(tree) -> list[int]:
    """Lines with a `%` or `%=` whose right operand is `<expr>.char`, the
    name `char`, or a name bound to one anywhere in the module
    (`p = ring.char`)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.NamedExpr, ast.AnnAssign)) and _named(node.value, "char"):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))

    def is_char(right) -> bool:
        return _named(right, "char") or (isinstance(right, ast.Name) and right.id in bound)

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Mod)
        and is_char(node.right if isinstance(node, ast.BinOp) else node.value)
    )


def test_the_guards_see_a_second_format_owner():
    bad = ast.parse(
        "import fractions\n"
        "from fractions import Fraction as F\n"
        "from .rings import integral\n"
        "x = fractions.Fraction(1, 2)\n"
        "y = Fraction(3)\n"
        "z = rings.integral(y)\n"
        "w = list(map(integral, [x]))\n"
        "# Fraction and integral in a comment are fine\n"
        "s = 'a Fraction, integral'\n"
    )
    assert fraction_references(bad) == [1, 2, 4, 5]
    assert integral_references(bad) == [3, 6, 7]


def test_the_guard_sees_a_second_mod_char_owner():
    bad = ast.parse(
        "p = ring.char\n"
        "a = x % ring.char\n"
        "b = (x * y) % p\n"
        "c %= p\n"
        "if (q := self.ring.char):\n"
        "    d = -x % q\n"
        "e = x % 7 + len(s) % n + p % 2\n"
        "f = [v % char for v in vs]\n"
        "# x % ring.char in a comment is fine\n"
        "s = 'x % p'\n"
    )
    assert mod_char_references(bad) == [2, 3, 4, 6, 8]


def _scan(check, owners: set[str]) -> tuple[list[str], set[str]]:
    found, seen = [], set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        lines = check(ast.parse(path.read_text(), filename=str(path)))
        if rel not in owners:
            found += [f"{rel}:{line}" for line in lines]
        elif lines:
            seen.add(rel)
    return found, seen


def test_only_rings_names_fraction():
    found, seen = _scan(fraction_references, FRACTION_OWNERS)
    assert found == []
    assert seen == FRACTION_OWNERS


def test_only_rings_and_the_engine_exit_use_integral():
    found, seen = _scan(integral_references, INTEGRAL_OWNERS)
    assert found == []
    assert seen == INTEGRAL_OWNERS


def test_only_rings_and_the_engine_take_values_mod_the_characteristic():
    found, seen = _scan(mod_char_references, MOD_CHAR_OWNERS)
    assert found == []
    assert seen == MOD_CHAR_OWNERS
