"""Report on the benchmark's own operations: spectral calls, slice clusters, allocations and dead trace spans.

    python tools/workload_report.py

Run from anywhere; it imports ``aapt`` from ``src`` and the workloads from
``benchmarks/`` of this checkout.  Each workload is built as
``build(1)`` and its operations run once, untimed, in this process, each
result checked by the workload's own check.  It prints

* per ``faithful-evidence`` operation, the ``numpy.linalg`` ``eigh``,
  ``eigvalsh``, ``svd`` and ``qr`` calls it makes, with the shape of each
  matrix;
* per ``sensitivity-scan`` operation, the certificate's nullity and
  ``slice_bound``, the largest eigenvalue cluster of its slice (0 when no
  slice is split), the ``tracemalloc`` peak of one more call, and the minor
  page faults per call over 20 more calls;
* per workload, and then for all of them, the ``benchmarks/tracing.py``
  spans that record no call, the list ``benchmarks/run.py --trace 1``
  reports as 0 calls.

Each operation line starts with the workload's own label.  The report
takes no option and gates nothing; it exits 0 unless an operation raises
or fails its check, or a name it wraps is gone.
"""

from __future__ import annotations

import contextlib
import importlib
import resource
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SEED = 1
CALLS = 20
SPECTRAL = ("eigh", "eigvalsh", "svd", "qr")


@contextlib.contextmanager
def recorded(owner, names, note):
    """Wrap each of ``names`` on ``owner`` so that a call appends ``note(name, args)`` to the yielded list.

    Every name is restored on exit, also when the body raises.
    """
    log, real = [], {name: getattr(owner, name) for name in names}

    def wrapped(name):
        def call(*args, **kwargs):
            log.append(note(name, args))
            return real[name](*args, **kwargs)

        return call

    for name in names:
        setattr(owner, name, wrapped(name))
    try:
        yield log
    finally:
        for name, fn in real.items():
            setattr(owner, name, fn)


def spectral_calls(op, result, log: list) -> str:
    return ", ".join(f"{call} x{n}" for call, n in Counter(log).items()) or "none"


def slice_and_allocations(op, cert, log: list) -> str:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(CALLS):
        op.call(0)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / CALLS
    tracemalloc.start()
    op.call(0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (f"nullity {cert.nullity}, slice_bound {cert.slice_bound}, largest slice cluster {max(log, default=0)}: "
            f"tracemalloc peak {peak / 1024:.1f} KB, ru_minflt {faults:.1f} per call")


# per workload: the module and names recorded around each operation's call, what each call records, and its
# line; a workload not listed here (cli-pipeline) wraps nothing and prints only its dead spans
REPORTS = {
    "faithful-evidence": ("numpy.linalg", SPECTRAL, lambda name, args: f"{name}{np.shape(args[0])}", spectral_calls),
    "sensitivity-scan": ("aapt.sensitivity", ("_restricted_commutator",), lambda name, args: max(map(len, args[2])),
                         slice_and_allocations),
}


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import run
    from tracing import SPANS, Tracer

    run.import_package()
    dead = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, module in run.WORKLOADS.items():
            workload = importlib.import_module(module).build(SEED, Path(workdir))
            owner, names, note, line = REPORTS.get(name, ("numpy.linalg", (), None, None))
            print(f"{name}, build({SEED}), {len(workload.ops)} operations:")
            tracer = Tracer()
            tracer.install()
            try:
                for index, op in enumerate(workload.ops):
                    tracer.begin(index)
                    with recorded(importlib.import_module(owner), names, note) as log:
                        result = op.call(0)
                    tracer.end()
                    op.check(result, 0)
                    if line is not None:
                        print(f"  {op.label}: {line(op, result, log)}")
            finally:
                tracer.uninstall()
                workload.cleanup()
            called = {tracer.names[record[0]] for record in tracer.records}
            dead[name] = [span for span, _, _ in SPANS if span not in called]
            print(f"  {len(dead[name])} spans with 0 calls: {', '.join(sorted(dead[name]))}")
    everywhere = sorted(set.intersection(*map(set, dead.values())))
    print(f"0 calls on every workload ({len(everywhere)}): {', '.join(everywhere)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
