"""One-shot sweep over d_A = d_B = d: each public verb timed once, each in a fresh process.

    python3 benchmarks/sweep.py   # d in 2 4 6 8

Not a workload: a single call per cell, no repeats, no bound.  It shows how
the verbs scale with d, including the peak resident memory of the process
that made the call (numpy and aapt alone take about 40 MB of it).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

import run

DIMS = (2, 4, 6, 8)
VERBS = ("certify_faithful", "certify_sensitive", "faithfulness_witness", "apply_on_A", "reconstruct_channel")


def _inputs(verb: str, d: int):
    import numpy as np

    import aapt
    from reference import haar_isometry_kraus, wishart_density

    g = np.random.default_rng(d)
    probe = aapt.BipartiteState(wishart_density(d * d, g), d, d)
    if verb == "faithfulness_witness":
        return (aapt.product_state(wishart_density(d, g), wishart_density(d, g)),)
    if verb in ("apply_on_A", "reconstruct_channel"):
        channel = aapt.Channel.from_kraus(haar_isometry_kraus(d, 2, g))
        if verb == "apply_on_A":
            return channel, probe
        return probe, aapt.apply_on_A(channel, probe)
    return (probe,)


def child(verb: str, d: int) -> None:
    """Time one call in this process and print the cell as JSON."""
    aapt = run.import_package()
    args = _inputs(verb, d)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    getattr(aapt, verb)(*args)
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"verb": verb, "d": d, "ms": elapsed * 1e3, "peak_rss_mb": peak, "rss_before_mb": before}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("VERB", "D"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]))
        return 0
    run.import_package()
    print(json.dumps(run.environment()), file=sys.stderr)
    print("| d | " + " | ".join(VERBS) + " |")
    print("|---|" + "---|" * len(VERBS))
    for d in DIMS:
        cells = []
        for verb in VERBS:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", verb, str(d)], cwd=run.ROOT, capture_output=True, text=True, check=True
            )
            cell = json.loads(proc.stdout.strip().splitlines()[-1])
            cells.append(f"{cell['ms']:.3g} ms, {cell['peak_rss_mb']:.0f} MB")
        print(f"| {d} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
