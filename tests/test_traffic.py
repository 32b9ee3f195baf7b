"""Traffic guard: every documented command line, run through `cli.main` in a
fresh interpreter (so the per-process tables start cold), enters every
function and method under src/detlab.  Dunders are exempt, and so are the
functions the traced benchmark wraps (`bench/layers.py` TARGETS), which the
benchmark's workloads call.  A definition that no documented command reaches
is a second copy or dead code: delete it, or document the command that needs
it.

Unlike the static name guard in test_no_unused_names, this one sees through
shared method names: `FlipReport.to_json` is not entered because some other
class has a `to_json` that is."""

import ast
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "detlab"
README = ROOT / "README.md"
LAYERS = ROOT / "bench" / "layers.py"

# run in the child: each argv through cli.main under a profiler that records
# the code object of every Python frame entered; prints the entered
# (file, qualified name) pairs and the exit codes as JSON
CHILD = """
import contextlib, io, json, sys
from detlab import cli
commands = json.loads(sys.argv[1])
entered, codes = set(), []

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
print(json.dumps({
    "entered": sorted({(c.co_filename, c.co_qualname) for c in entered}),
    "codes": codes,
}))
"""


def readme_commands() -> list[list[str]]:
    """The argument lists of every `detlab ...` line in the README's shell
    blocks."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "detlab":
                out.append(words[1:])
    return out


def definitions() -> dict[tuple[str, str], str]:
    """(resolved file, qualified name) -> "file:line name" of every function
    and method under src/detlab, dunders excepted."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    where = f"{path.relative_to(SRC)}:{child.lineno} {qualname}"
                    out[str(path), qualname] = where
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), "")
    return out


def span_targets() -> set[tuple[str, str]]:
    """(resolved file, qualified name) of the definition behind each
    `bench/layers.py` TARGETS entry; an entry may name a re-export, such as
    `detlab.commalg.homs.membership_engine`."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            out = set()
            for module, qualname, _ in ast.literal_eval(node.value):
                obj = importlib.import_module(module)
                for attr in qualname.split("."):
                    obj = getattr(obj, attr)
                code = inspect.unwrap(obj).__code__
                out.add((str(Path(code.co_filename).resolve()), code.co_qualname))
            return out
    raise LookupError(f"no TARGETS in {LAYERS}")


def test_readme_commands_enter_every_definition():
    commands = readme_commands()
    assert len(commands) >= 10
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    traffic = json.loads(r.stdout)
    assert traffic["codes"] == [0] * len(commands)
    entered = {(str(Path(f).resolve()), q) for f, q in traffic["entered"]}
    defs = definitions()
    targets = span_targets()
    assert targets <= defs.keys()
    missed = [where for key, where in defs.items() if key not in entered and key not in targets]
    assert missed == []
