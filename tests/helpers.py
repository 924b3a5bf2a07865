"""Shared fixtures-adjacent utilities: deterministic randomness, the state corpus and the CLI runner."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aapt
from aapt import (
    max_entangled,
    product_state,
    random_cq_state,
    random_density,
    random_state,
    unitary_faithful_state,
)

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]

UNITARY_FAITHFUL_SPECTRA = {
    2: [(0.7, 0.3), (0.6, 0.4), (0.9, 0.1), (0.55, 0.45)],
    3: [(0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (0.45, 0.35, 0.2), (0.7, 0.2, 0.1)],
    4: [(0.4, 0.3, 0.2, 0.1), (0.5, 0.25, 0.15, 0.1), (0.35, 0.3, 0.2, 0.15), (0.55, 0.25, 0.12, 0.08)],
}


def random_complex(shape, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def eigenprojectors(h):
    """Spectral projectors of a Hermitian matrix, neighbouring eigenvalues within 1e-8 of the spread merged.

    The rule the PC-Q measurement is built by, written out here as an oracle.
    """
    w, v = np.linalg.eigh(h)
    gap = 1e-8 * (w[-1] - w[0])
    cuts = [0, *(i for i in range(1, len(w)) if w[i] - w[i - 1] > gap), len(w)]
    return [v[:, a:b] @ v[:, a:b].conj().T for a, b in zip(cuts, cuts[1:])]


def build_corpus():
    """Deterministic zoo of probe states covering every family, 200+ entries."""
    states = [
        ("max_entangled_d2", max_entangled(2)),
        ("max_entangled_d3", max_entangled(3)),
    ]
    seed = 1000
    for da, db in DIMS:
        for k in range(8):
            states.append((f"pure_{da}x{db}_{k}", random_state(da, db, 1, seed)))
            seed += 1
    for da, db in DIMS:
        for k in range(10):
            states.append((f"mixed_{da}x{db}_{k}", random_state(da, db, None, seed)))
            seed += 1
    for da, db in DIMS:
        for k in range(2):
            states.append((f"lowrank_{da}x{db}_{k}", random_state(da, db, 2, seed)))
            seed += 1
    for da, db in DIMS:
        for k in range(8):
            g = np.random.default_rng(seed)
            rank_a = da if k % 2 == 0 else 1
            states.append(
                (f"product_{da}x{db}_{k}", product_state(random_density(da, rank_a, g), random_density(db, db, g)))
            )
            seed += 1
    for da in (2, 3, 4):
        for db in (2, 3):
            for k in range(4):
                states.append((f"cq_{da}x{db}_{k}", random_cq_state(da, db, seed)))
                seed += 1
    for d, spectra in UNITARY_FAITHFUL_SPECTRA.items():
        for i, spectrum in enumerate(spectra):
            states.append((f"unitary_faithful_d{d}_{i}", unitary_faithful_state(spectrum)))
    return states


# The directory that holds the imported package: a child `python -m aapt` put
# on it runs this same copy, whatever its working directory and whether the
# package came from a source tree or an install.
PACKAGE_ROOT = str(Path(aapt.__file__).resolve().parents[1])

# An interpreter that cannot import aapt, or a CLI that dies of an uncaught
# exception, also exits 1, which would read as a "verdict false" exit code.
_CHILD_CRASH = re.compile(r"No module named '?aapt\b|Traceback \(most recent call last\)")


def run_cli(*args, cwd):
    """Run `python -m aapt ARGS` in `cwd` against the package this process imported.

    Fails the calling test, quoting the child's stderr, when the child never
    reached the CLI's own exit codes.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "aapt", *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    if _CHILD_CRASH.search(result.stderr):
        pytest.fail(f"{step_name(result)} crashed with exit {result.returncode}:\n{result.stderr}", pytrace=False)
    return result


def step_name(result):
    return "`aapt " + " ".join(result.args[3:]) + "`"


def step_failure(result, expected=0):
    """A message naming the step, its exit code and its stderr if the exit code is not `expected`."""
    if result.returncode == expected:
        return None
    return f"{step_name(result)} exited {result.returncode}, expected {expected}:\n{result.stderr}"
