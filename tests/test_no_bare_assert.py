"""Library code never checks its evidence with a bare `assert`: `python -O`
strips those, so a certificate would silently stop checking."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"


def test_no_assert_statements_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
