"""grade3 benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: semigroup_queries, verify_suites,
cli_session (see bench/README.md). Each run replays the workload's fixed,
seeded operation list in whole rounds until S seconds have passed, in one
process and one thread with BLAS pinned to one thread, after a warm-up
round. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run and the tracing overhead
against untraced rounds of the same process. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; details go to stderr.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKDIR = HERE / ".work"
WORKLOADS = ("semigroup_queries", "verify_suites", "cli_session")
# Set-up probes before and after the timed rounds, so that the median
# spans the run's whole window rather than the first seconds of it.
SETUP_PROBES = (5, 4)


def setup_probe() -> None:
    """Fresh-process set-up: import grade3 and build every catalog entry."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import grade3.cli  # noqa: F401  (cli_session calls it; cheap next to scipy)
    from grade3 import catalog
    for name in catalog.ENTRY_NAMES:
        catalog.get_entry(name)
    print(repr(perf_counter() - t0))


def setup_times(n: int) -> list[float]:
    """Set-up seconds of n fresh processes, one after another."""
    times = []
    for _ in range(n):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe"], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Phase:
    """Timings and outcomes of whole rounds of one operation list.

    best[i] is operation i's fastest wall time over the rounds. On a
    shared 2-core host the speed of the same loop swings by up to 2x within
    seconds because of load outside the process, which moves every mean,
    median and tail of a 10 s run by 10-25%; the per-operation minimum
    filters most of that out, as timeit's best-of-N does. Samples go into flat int64 arrays and
    outcomes into counters, so memory does not grow with the round count.
    """

    def __init__(self, n_ops: int):
        self.best = [float("inf")] * n_ops
        self.digits: list[float | None] = [None] * n_ops
        self.wall = array("q")
        self.cpu = array("q")
        self.rounds = 0
        self.failed: Counter = Counter()
        self.wrong: set[str] = set()

    def run_round(self, ops, tracer=None):
        best = self.best
        for i, op in enumerate(ops):
            res = exc = None
            if tracer is not None:
                tracer.active = True
            c0 = thread_time_ns()
            t0 = perf_counter_ns()
            try:
                res = op.call()
            except Exception as e:  # judged below: known fault or wrong
                exc = e
            t1 = perf_counter_ns()
            c1 = thread_time_ns()
            if tracer is not None:
                tracer.active = False
            self.wall.append(t1 - t0)
            self.cpu.append(c1 - c0)
            best[i] = min(best[i], t1 - t0)
            outcome = op.judge(res, exc)
            if outcome.status == "failed":
                self.failed[outcome.detail] += 1
            elif outcome.status == "wrong":
                self.wrong.add(outcome.detail)
            else:
                self.digits[i] = outcome.digits
        self.rounds += 1

    def run_for(self, ops, seconds, tracer=None):
        deadline = perf_counter() + seconds
        while True:
            gc.collect()
            self.run_round(ops, tracer)
            if perf_counter() >= deadline:
                return self


def report(phases, warmup, metrics, workload):
    """Print failure kinds and reference figures to stderr; return the
    result object."""
    wrong = set(warmup.wrong).union(*(p.wrong for p in phases))
    failed = sum((p.failed for p in phases), Counter())
    for detail in sorted(wrong)[:20]:
        print(f"WRONG {detail}", file=sys.stderr)
    rounds = sum(p.rounds for p in phases)
    for detail, n in sorted(failed.items()):
        print(f"failed {detail}: {n // rounds} per round", file=sys.stderr)
    wall = [w for p in phases for w in p.wall]
    cpu = [c for p in phases for c in p.cpu]
    q = statistics.quantiles(wall, n=100)
    print(f"{workload}: {rounds} rounds, {len(wall)} ops, wall {sum(wall) / 1e9:.3f} s, "
          f"cpu {sum(cpu) / 1e9:.3f} s, p50 {q[49] / 1e6:.4f} ms, p90 {q[89] / 1e6:.4f} ms, "
          f"p99 {q[98] / 1e6:.4f} ms, cpu p50 {statistics.median(cpu) / 1e6:.4f} ms",
          file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": len(wall),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


@contextlib.contextmanager
def prepared(workload, seed):
    """The operation list after its warm-up round, with the collector
    frozen; --file documents live in a temporary directory until exit."""
    from workloads import build_ops
    WORKDIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        ops = build_ops(workload, seed, Path(workdir))
        warmup = Phase(len(ops))
        warmup.run_round(ops)
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            yield ops, warmup
        finally:
            gc.enable()


def end_to_end(workload, seed, seconds):
    setup = setup_times(SETUP_PROBES[0])
    from grade3 import catalog
    for name in catalog.ENTRY_NAMES:
        catalog.get_entry(name)
    with prepared(workload, seed) as (ops, warmup):
        phase = Phase(len(ops)).run_for(ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_times(SETUP_PROBES[1])
    best = phase.best
    digits = [d for d in phase.digits if d is not None]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(best) / (sum(best) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(best) / 1e6, "ms"),
        "residual_digits": (statistics.median(digits), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return report([phase], warmup, metrics, workload)


def traced(workload, seed, seconds):
    from tracing import Tracer
    from grade3 import catalog
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    for name in catalog.ENTRY_NAMES:
        catalog.get_entry(name)
    tracer.active = False
    tracer.uninstall()
    with prepared(workload, seed) as (ops, warmup):
        plain = Phase(len(ops)).run_for(ops, seconds / 2)
        tracer.install()
        try:
            spans = Phase(len(ops)).run_for(ops, seconds / 2, tracer)
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace_{workload}.json")
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (100.0 * (sum(spans.best) / sum(plain.best) - 1.0), "%")
    return report([plain, spans], warmup, metrics, workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "grade3" / "__init__.py").is_file():
        print(f"error: no grade3 sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
