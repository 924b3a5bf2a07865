"""Benchmark of aapt's verdict paths: one workload per process, outputs checked.

    python3 benchmarks/run.py --workload sensitivity-scan --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                      # every workload, each in its own process

Run from the root of a checkout; the package is imported from ``src`` of
that checkout and nowhere else.  Each run repeats a fixed, seeded list of
operations in whole passes, one caller in a closed loop, until
``--seconds`` have passed and at least ``min_ops`` operations ran.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"

WORKLOADS = {
    "sensitivity-scan": "sensitivity_scan",
    "faithful-evidence": "faithful_evidence",
    "cli-pipeline": "cli_pipeline",
}
# Set-ups per run; setup_s is their median.
SETUPS = 5
# A run stops after the pass that crosses this many seconds even if it is short of min_ops.
HARD_LIMIT_S = 120.0
EXIT_NO_PACKAGE = 2
EXIT_FAILED = 1


def import_package():
    """Import ``aapt`` from this checkout's ``src``; exit when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        aapt = importlib.import_module("aapt")
    except ImportError as exc:
        print(f"error: cannot import aapt from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE) from None
    if Path(aapt.__file__).resolve().parent != SRC / "aapt":
        print(f"error: imported aapt from {aapt.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE)
    return aapt


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def fresh_import() -> None:
    """A new interpreter importing aapt: what every CLI call and every library user pays once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import aapt"], cwd=ROOT, env=env, check=True)


class Tally:
    """Attempted and failed operations; a failure is an exception or a wrong result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def error(self, op, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"{op.label}: raised {type(exc).__name__}: {exc}")

    def record(self, op, result, pass_index: int) -> bool:
        """Check one result; count it, and count it as failed when the check rejects it."""
        from reference import CheckFailure

        self.attempted += 1
        try:
            op.check(result, pass_index)
        except Exception as exc:  # CheckFailure, or a result the check cannot even read
            self.failed += 1
            self.wrong += 1
            kind = "wrong result" if isinstance(exc, CheckFailure) else f"check raised {type(exc).__name__}"
            self._note(f"{op.label}: {kind}: {exc}")
            return False
        return True

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"failed: {message}", file=sys.stderr)


def execute(op, pass_index: int, tally: Tally, tracer=None, op_id: int = -1) -> float:
    """Time one call, then check its result outside the timed region."""
    if tracer is not None:
        tracer.begin(op_id)
    start = time.perf_counter()
    try:
        result = op.call(pass_index)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        tally.error(op, exc)
        return elapsed
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    tally.record(op, result, pass_index)
    return elapsed


def set_up(module, seed: int, warmups: Tally):
    """Every set-up of a run; returns the last workload built and the median set-up time."""
    times = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.cleanup()
        start = time.perf_counter()
        fresh_import()
        workload = module.build(seed, RUNS_DIR)
        for op in workload.ops[: workload.warmup_ops]:
            execute(op, 0, warmups)
        workload.after_pass()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def nearest_rank(sorted_values: list[float], percent: int) -> float:
    rank = -(-len(sorted_values) * percent // 100)
    return sorted_values[max(rank, 1) - 1]


def measure(workload, seconds: float, tally: Tally, tracer=None) -> list[float]:
    latencies = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        for op in workload.ops:
            latencies.append(execute(op, pass_index, tally, tracer, len(latencies)))
        workload.after_pass()
        pass_index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= workload.min_ops or elapsed >= HARD_LIMIT_S):
            break
    if len(latencies) < workload.min_ops:
        print(f"warning: {len(latencies)} operations, fewer than the {workload.min_ops} op_tail_ms needs", file=sys.stderr)
    return latencies


def end_to_end(latencies: list[float], setup_s: float, tail_percent: int) -> dict:
    ordered = sorted(latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(latencies) / math.fsum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(ordered, tail_percent) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    module = importlib.import_module(WORKLOADS[name])
    env = environment()
    print(f"env: {json.dumps(env)}", file=sys.stderr)
    RUNS_DIR.mkdir(exist_ok=True)
    warmups = Tally()
    tally = Tally()
    workload, setup_s = set_up(module, seed, warmups)
    tracer = None
    try:
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        latencies = measure(workload, seconds, tally, tracer)
        if tracer is not None:
            # one untimed pass for the allocation peaks; its results are checked like warm-ups
            tracer.measure_memory = True
            for op in workload.ops:
                execute(op, 0, warmups)
    finally:
        workload.cleanup()
    timing = end_to_end(latencies, setup_s, workload.tail_percent)
    if tracer is not None:
        metrics = tracer.metrics(len(latencies))
        tracer.write(RUNS_DIR / f"spans-{name}-seed{seed}.jsonl")
        print(f"traced end-to-end: {json.dumps(timing)}", file=sys.stderr)
    else:
        metrics = timing
    result = {
        "correct": warmups.wrong == 0 and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "tail_percent": workload.tail_percent, "operations_per_pass": len(workload.ops),
              "warmup_failed": warmups.failed, **result}
    (RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one result line per workload."""
    import_package()
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        try:
            result = json.loads(lines[-1])
            clean = proc.returncode == 0 and result["correct"] and result["failed"] == 0
        except (IndexError, ValueError, KeyError):
            clean = False
        status = status or (0 if clean else EXIT_FAILED)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
