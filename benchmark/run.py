"""Closed-loop benchmark of the titsmeasure CLI and library.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload verify-suites --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1      # every workload, one table

One client in this single-threaded process sends each operation only after
the previous one has completed and its output has been checked.  An operation
is one in-process call of ``titsmeasure.cli.main`` with stdout captured (or,
for the Clifford oracle, one library call).  The package is imported from
``src/``; nothing under ``src/`` is modified.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced pass, the single-call layer baselines and the
import breakdown.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the run metadata and any failures.  The
exit code is nonzero when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 15
IMPORT_SAMPLES = 5


def _fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "titsmeasure" / "cli.py").is_file():
        _fail(f"no package source at {SRC / 'titsmeasure'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import titsmeasure.cli

    if Path(titsmeasure.__file__).resolve().parent != SRC / "titsmeasure":
        _fail(f"imported titsmeasure from {titsmeasure.__file__}, not from {SRC}")
    return titsmeasure.cli


def _child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Speed:
    """Machine-speed reference for normalizing times.

    On a shared 2-core host the speed drifts by up to ~1.7x within minutes,
    which no estimator inside one run can undo.  A fixed pure-Python routine
    (integer and dict work, object allocation, hashing and sorting, as in the
    package, but no package code) is timed before every ``CALIBRATE_EVERY``
    operations.  The operations between two marks are scaled by REFERENCE_S /
    (mean of the two marks), i.e. to a machine where the routine takes 8 ms.
    A change in the package moves the operation times but not the
    reference, so it shows in full.
    """

    REFERENCE_S = 0.008

    def __init__(self):
        self.marks: list[float] = []

    @staticmethod
    def _routine():
        acc: dict = {}
        for i in range(20_000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + i * i % 7
        objs = [_Pair(i % 31, (i, i % 7)) for i in range(4_000)]
        seen = {(o.a, o.b) for o in objs}
        return sorted(seen, key=lambda t: t[1]), acc

    def mark(self) -> int:
        """Time the routine (best of 3); return the index of this mark."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._routine()
            best = min(best, time.perf_counter() - t0)
        self.marks.append(best)
        return len(self.marks) - 1

    def factor(self, k: int) -> float:
        """Scale for a time taken between mark k and the next mark."""
        after = self.marks[min(k + 1, len(self.marks) - 1)]
        return self.REFERENCE_S / ((self.marks[k] + after) / 2)


CALIBRATE_EVERY = 20


class Tally:
    def __init__(self):
        self.samples: list[tuple[int, float, int]] = []  # (op, wall seconds, speed mark)
        self.pass_ends: list[int] = []  # index into samples where each pass ends
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def best_times(self) -> list[float]:
        """Each operation's time, sorted: the mean of its two fastest
        normalized runs over the passes (its only run after one pass)."""
        runs: dict[int, list[float]] = {}
        for i, dt, k in self.samples:
            runs.setdefault(i, []).append(dt * self.speed.factor(k))
        fastest = (sorted(times)[:2] for times in runs.values())
        return sorted(sum(two) / len(two) for two in fastest)

    def raw_passes(self) -> list[list[float]]:
        """Per pass, the sorted wall times of its operations."""
        starts = [0] + self.pass_ends[:-1]
        return [sorted(dt for _, dt, _ in self.samples[a:b]) for a, b in zip(starts, self.pass_ends)]


def run_op(cli, op) -> tuple[float, str | None]:
    """Time one operation; return (seconds, failure message or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # Looked up on each call, so a traced pass reaches the wrapper.
            result = cli.main(op.argv) if op.argv is not None else op.call()
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, f"escaped {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    problem = op.check(result, out.getvalue())
    if problem and err.getvalue():
        problem += f" (stderr: {err.getvalue().strip()[:200]})"
    return elapsed, problem


def run_loop(cli, ops, order_rng, seconds: float = 0.0, tracer=None) -> Tally:
    """Whole passes over ``ops``, each in a new seeded order, until
    ``seconds`` have passed (at least one pass)."""
    tally = Tally()
    order = list(range(len(ops)))
    start = time.perf_counter()
    while not tally.pass_ends or time.perf_counter() - start < seconds:
        order_rng.shuffle(order)
        for n, i in enumerate(order):
            if n % CALIBRATE_EVERY == 0:
                mark = tally.speed.mark()
            if tracer is not None:
                tracer.op = tally.attempted
            dt, problem = run_op(cli, ops[i])
            tally.samples.append((i, dt, mark))
            tally.attempted += 1
            if problem:
                tally.failed += 1
                if len(tally.failures) < 5:
                    tally.failures.append(f"{ops[i].label}: {problem}")
        tally.pass_ends.append(len(tally.samples))
    tally.speed.mark()
    return tally


# ---------------------------------------------------------------------------
# Set-up time and import breakdown, each in fresh interpreters.
# ---------------------------------------------------------------------------

IMPORT_CMD = [sys.executable, "-c", "import titsmeasure.cli"]


def _timed_import(env: dict) -> float:
    """Wall time of one fresh interpreter importing the CLI.

    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    quantize the time, so the wait blocks and a timer kills a hung child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(IMPORT_CMD, env=env)
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        _fail(f"importing titsmeasure.cli in a fresh interpreter exited with {code}")
    return elapsed


def setup_seconds() -> float:
    """Median time of a fresh interpreter running ``import titsmeasure.cli``,
    normalized like the operations (see ``Speed``)."""
    env, speed = _child_env(), Speed()
    _timed_import(env)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_SAMPLES):
        mark = speed.mark()
        elapsed = _timed_import(env)
        speed.mark()
        times.append(elapsed * speed.factor(mark))
    return statistics.median(times)


def _importtime_tree(stderr: str):
    """Nodes (name, cumulative us, children) of ``-X importtime`` output."""
    pending: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line.split("|")
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        pending.append((depth, (raw.strip(), int(cumulative), children[::-1])))
    return [node for _, node in pending]


def _own_import_us(node, out: dict) -> int:
    """Record each package module's import time without its package
    submodules; return the time of package modules at or below ``node``."""
    name, cumulative, children = node
    nested = sum(_own_import_us(child, out) for child in children)
    if name == "titsmeasure" or name.startswith("titsmeasure."):
        out[name] = cumulative - nested
        return cumulative
    return nested


def import_breakdown() -> dict[str, float]:
    """``<layer>.import_ms`` medians, plus the whole package import."""
    from tracing import LAYERS

    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import titsmeasure.cli"],
            env=_child_env(), check=True, timeout=60, capture_output=True, text=True,
        )
        own: dict[str, int] = {}
        total = sum(_own_import_us(node, own) for node in _importtime_tree(proc.stderr))
        samples.setdefault("titsmeasure.import_ms", []).append(total / 1e3)
        for layer in LAYERS:
            samples.setdefault(f"{layer}.import_ms", []).append(own.get(f"titsmeasure.{layer}", 0) / 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}


# ---------------------------------------------------------------------------
# Single-call layer baselines, timed from outside each layer.
# ---------------------------------------------------------------------------

def _per_call(fn, number: int, repeat: int = 5) -> float:
    return statistics.median(timeit.repeat(fn, number=number, repeat=repeat)) / number


def layer_baselines() -> tuple[dict[str, float], list[str]]:
    from fractions import Fraction

    from titsmeasure.brauer import AbstractGroup
    from titsmeasure.clifford import even_clifford_class_by_structure
    from titsmeasure.measure_ring import RingElement
    from titsmeasure.motives import MotiveSum
    from titsmeasure.quadforms import QuadraticForm, even_clifford_class
    from titsmeasure.rationals import hilbert_symbol
    from titsmeasure.sigma import recurrence_violations, sigma

    problems = []
    g = AbstractGroup((12,))
    a, b = g.element([5]), g.element([7])
    six = [g.element([k]) for k in range(1, 7)]
    motive = MotiveSum.of(g, six)
    terms = tuple((c, 1) for c in six)
    x, y = Fraction(-6), Fraction(35)
    # Signed discriminant -det = 210^2, so the form is a valid quadric.
    q6 = QuadraticForm.of([-1, 2, 3, 5, 7, 210])

    if even_clifford_class_by_structure(q6) != even_clifford_class(q6):
        problems.append("baseline: structure oracle disagrees with the closed form at n=6")
    if (sigma("1even", 5, 6, 2), sigma("2even", 5, 6, 2)) != (768, 576):
        problems.append("baseline: sigma anchors are not 768/576")
    if recurrence_violations(range(5, 21), range(2, 13)):
        problems.append("baseline: sigma-check grid has violations")

    metrics = {
        "brauer.add_us": _per_call(lambda: a + b, 20_000) * 1e6,
        "brauer.p_part_us": _per_call(lambda: a.p_part(2), 20_000) * 1e6,
        "motives.signature_6class_us": _per_call(motive.signature, 2_000) * 1e6,
        "measure_ring.ring_6term_us": _per_call(lambda: RingElement(g, terms), 2_000) * 1e6,
        "rationals.hilbert_symbol_us": _per_call(lambda: hilbert_symbol(x, y, 5), 5_000) * 1e6,
        "quadforms.clifford_closed_n6_ms": _per_call(lambda: even_clifford_class(q6), 20) * 1e3,
        "clifford.oracle_n6_ms": _per_call(lambda: even_clifford_class_by_structure(q6), 1) * 1e3,
        "sigma.anchor_pair_us": _per_call(
            lambda: (sigma("1even", 5, 6, 2), sigma("2even", 5, 6, 2)), 2_000
        ) * 1e6,
        "sigma.recurrence_grid_s": _per_call(
            lambda: recurrence_violations(range(5, 21), range(2, 13)), 1, repeat=3
        ),
    }
    return metrics, problems


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ops_per_s"):
        return "ops/s"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_ratio", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _meta() -> dict:
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "titsmeasure").glob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": lines,
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(metrics: dict, extra: dict, tally: Tally, failures: list[str]) -> int:
    """Print every metric with its unit, then the result line; return the exit code."""
    for name, value in {**metrics, **extra}.items():
        print(f"{name:44s} {value:>16.6g} {_unit(name)}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def run_end_to_end(cli, ops, seed: int, seconds: float) -> int:
    """End-to-end metrics from the per-operation normalized times (see
    ``Speed`` and ``Tally.best_times``); the raw wall-clock figures are
    printed beside them."""
    setup = setup_seconds()
    order_rng = random.Random(seed)
    warm = run_loop(cli, ops, order_rng)  # lazy caches fill; every op is checked once
    tally = run_loop(cli, ops, order_rng, seconds)
    best = tally.best_times()
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": _percentile(best, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = tally.raw_passes()
    extra = {
        "failed_ratio": tally.failed / tally.attempted,
        "latency_samples": len(best),
        "samples_above_p90": len(best) - math.ceil(0.9 * len(best)),
        "passes": len(tally.pass_ends),
        "wall_ops_per_s": statistics.median(len(r) / sum(r) for r in raw),
        "wall_latency_p50_ms": statistics.median(statistics.median(r) for r in raw) * 1e3,
        "wall_latency_p90_ms": statistics.median(_percentile(r, 0.9) for r in raw) * 1e3,
        "reference_ms": statistics.median(tally.speed.marks) * 1e3,
    }
    # attempted/failed count the timed phase; a warm-up failure still fails the run.
    return report(metrics, extra, tally, warm.failures + tally.failures)


def run_traced(cli, ops, workload: str, seed: int) -> int:
    from tracing import Tracer

    imports = import_breakdown()
    baselines, problems = layer_baselines()
    order_rng = random.Random(seed)
    tally = run_loop(cli, ops, order_rng)  # warm-up pass
    plain = run_loop(cli, ops, order_rng)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(cli, ops, order_rng, tracer=tracer)
    finally:
        tracer.uninstall()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.failures += part.failures
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")

    metrics = tracer.metrics()
    metrics.update(baselines)
    metrics.update(imports)
    # One pass each over the same corpus: the ratio of their normalized times.
    metrics["trace.overhead_ratio"] = sum(traced.best_times()) / sum(plain.best_times())
    extra = {"trace.spans_kept": len(tracer.spans), "trace.spans_dropped": tracer.dropped}
    return report(metrics, extra, tally, tally.failures + problems)


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), one table."""
    from workloads import WORKLOADS

    rows, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds + 170,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        rows[workload] = json.loads(lines[-1])
        status |= 0 if rows[workload]["correct"] else 1
    print(json.dumps(rows))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_package()
    if args.workload == "all":
        return run_all(args)
    import workloads

    print("meta " + json.dumps({**_meta(), "workload": args.workload, "seed": args.seed}))
    ops = workloads.generate(args.workload, args.seed)
    if args.trace:
        return run_traced(cli, ops, args.workload, args.seed)
    return run_end_to_end(cli, ops, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
