"""Every layer function the traced benchmark wraps must exist in detlab."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def bench_targets() -> list[tuple[str, str, str]]:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS in {LAYERS}")


def test_bench_layer_targets_resolve():
    targets = bench_targets()
    assert targets
    for module, qualname, _ in targets:
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, qualname)
