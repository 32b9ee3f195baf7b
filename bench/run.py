"""Verdict-latency benchmark for detlab.

Usage (from the repository root):

    python3 bench/run.py --workload resolve --seed 1 --seconds 35 --trace 0

Workloads: resolve, endo, bott (see workloads.py and BENCHMARK.json).  The
library is imported from ./src of the checkout the script sits in; there is
nothing to build.

Untraced (--trace 0): set up (import detlab, build every DetSetup the
workload uses) SETUP_REPS times and keep the median as setup_s; then run whole
passes over the workload's shuffled case list, starting another pass only
while the last pass's time still fits in --seconds (at least one pass).  Each
verdict is checked against its known answer.  Reported: wall_s (median pass
time), verdict_s.p50 / verdict_s.p90 (median over passes of each pass's
percentile of verdict times), setup_s, peak_rss_mb.

Traced (--trace 1): one untraced pass, then the layer functions are wrapped in
spans and set-up plus one more pass run traced; --seconds is not used.  The
per-layer metrics come from that traced pass, trace.overhead_s is the traced
pass time minus the untraced one, and the spans are written to
.bench_trace/<workload>-seed<seed>.json.gz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 0 means the run finished; a wrong
verdict is reported through `correct` and `failed`, not the exit status.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import layers
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("partitions", "schurcalc", "bott", "commalg", "detvar")
SETUP_REPS = 11
STEP_BUDGET_S = 30.0  # per verdict; the slowest verdict takes about 5 s
RUN_CAP_S = 150.0  # verdicts not started by then count as failed
END_TO_END_UNITS = {
    "wall_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Overrun(BaseException):
    """Raised by the alarm when a verdict exceeds its budget."""


def _on_alarm(signum, frame):
    raise Overrun()


def load_detlab() -> SimpleNamespace:
    """Import detlab afresh from the checkout's src directory."""
    for name in [n for n in sys.modules if n == "detlab" or n.startswith("detlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("detlab")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"detlab imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"detlab.{m}") for m in MODULES}
    )


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics weighted
    by the Beta((n+1)q, (n+1)(1-q)) mass over [(i-1)/n, i/n].

    A single order statistic of verdicts that take milliseconds swings by a
    quarter between runs on a shared machine; the weighted average over the
    neighbouring order statistics does not.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # the Beta mass outside q +- 12 standard deviations is negligible
    sd = math.sqrt(q * (1 - q) / (n + 2))
    lo = max(0, int((q - 12 * sd) * n))
    hi = min(n, int((q + 12 * sd) * n) + 1)
    sub = 8  # Simpson panels per interval
    h = 1 / (n * sub)
    weights = []
    for i in range(lo, hi):
        x0 = i / n
        s = pdf(x0) + pdf(x0 + 1 / n)
        s += sum((4 if k % 2 else 2) * pdf(x0 + k * h) for k in range(1, sub))
        weights.append(s * h / 3)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs[lo:hi])) / total


@dataclass
class PassResult:
    wall: float = 0.0
    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_pass(units, rng: random.Random, cap_at: float) -> PassResult:
    """One pass over the shuffled units; every step is one timed verdict."""
    out = PassResult()
    order = list(units)
    rng.shuffle(order)
    clock = time.perf_counter
    start = clock()
    for unit in order:
        steps = list(unit.steps)
        if unit.shuffle_steps:
            rng.shuffle(steps)
        state = {"rng": rng}
        broken = None
        for step in steps:
            out.attempted += 1
            if broken is None and clock() > cap_at:
                broken = "run cap reached before the verdict started"
            if broken is not None:
                out.failures.append(f"{step.label}: {broken}")
                continue
            problem = None
            signal.setitimer(signal.ITIMER_REAL, STEP_BUDGET_S)
            t0 = clock()
            try:
                try:
                    result = step.run(state)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Overrun:
                problem = broken = f"overran the {STEP_BUDGET_S:g} s budget"
            except Exception as exc:  # a raising verdict is a failed case
                problem = broken = f"raised {exc!r}"
            out.times.append(clock() - t0)
            if problem is None:
                problem = step.check(result)
            if problem is not None:
                out.failures.append(f"{step.label}: {problem}")
    out.wall = clock() - start
    return out


def timed_setup(workload: str, reps: int = SETUP_REPS):
    setup_fn, _ = workloads.WORKLOADS[workload]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        lib = load_detlab()
        setups = setup_fn(lib)
        times.append(time.perf_counter() - t0)
    return lib, setups, statistics.median(times)


def measure(workload: str, seed: int, seconds: int) -> tuple[list[PassResult], dict]:
    lib, setups, setup_s = timed_setup(workload)
    units = workloads.WORKLOADS[workload][1](lib, setups)
    rng = random.Random(seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    cap_at = start + RUN_CAP_S
    while True:
        passes.append(run_pass(units, rng, cap_at))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > seconds or elapsed > RUN_CAP_S:
            break
    # per-pass percentiles over the same case list, then the median over passes
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "verdict_s.p50": statistics.median(quantile(p.times, 0.5) for p in passes),
        "verdict_s.p90": statistics.median(quantile(p.times, 0.9) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pooled = [t for p in passes for t in p.times]
    n = len(pooled)
    # highest whole percentile with at least ten pooled samples beyond it
    tail_pct = max((q for q in range(1, 91) if n * (100 - q) / 100 >= 10), default=0)
    print(
        f"{workload}: {len(passes)} passes, {n} verdict samples "
        f"({n // len(passes)} per pass); pass times "
        + ", ".join(f"{p.wall:.3f}" for p in passes)
    )
    if 0 < tail_pct < 90:
        print(
            f"verdict_s.p90 has fewer than ten of {n} samples beyond it; the highest "
            f"percentile with ten beyond is p{tail_pct} = {quantile(pooled, tail_pct / 100):.6f} s"
        )
    return passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def measure_traced(workload: str, seed: int) -> tuple[list[PassResult], dict]:
    setup_fn, units_fn = workloads.WORKLOADS[workload]
    lib, setups, _ = timed_setup(workload, reps=1)
    rng = random.Random(seed)
    cap_at = time.perf_counter() + RUN_CAP_S
    untraced = run_pass(units_fn(lib, setups), rng, cap_at)
    tracer = Tracer()
    counters = layers.Counters(lib.commalg.presentation_to_json)
    hooks = counters.hooks()
    try:
        for module, qualname, name in layers.TARGETS:
            tracer.install(module, qualname, name, hooks.get(name))
        traced_units = units_fn(lib, setup_fn(lib))
        traced = run_pass(traced_units, rng, cap_at)
    finally:
        tracer.uninstall()
    out_path = ROOT / ".bench_trace" / f"{workload}-seed{seed}.json.gz"
    tracer.write(out_path)
    print(
        f"{workload} traced: untraced pass {untraced.wall:.3f} s, traced pass "
        f"{traced.wall:.3f} s, {tracer.span_count} spans -> {out_path.relative_to(ROOT)}"
    )
    return [untraced, traced], layers.per_layer_metrics(
        tracer, counters, traced.wall - untraced.wall
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "detlab" / "__init__.py").is_file():
        print(f"detlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        passes, metrics = measure_traced(args.workload, args.seed)
    else:
        passes, metrics = measure(args.workload, args.seed, args.seconds)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"FAILED {f}")
    attempted = sum(p.attempted for p in passes)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
