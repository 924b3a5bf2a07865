"""The witness reads its cokernel through the package's one null-space rule.

Every SVD and QR of the package runs in ``linalg``.  The witness asks
``_svd_nullspace`` for the null space of conj(M), cut by the same call's
own singular values, where M is the A -> B matrix the faithfulness decision
read.  That span is the one the rows of ``vh`` past the rank give in the
full SVD of M, and reading it forms no ``u`` of M's row count.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aapt
from aapt import faithfulness_witness, product_state, random_density
from aapt.linalg import _svd_nullspace, rank_evidence

from helpers import random_complex

PACKAGE = Path(aapt.__file__).resolve().parent
DECOMPOSITIONS = {"svd", "qr"}


def _decomposition_calls(path: Path) -> list[str]:
    """``np.linalg.svd`` / ``numpy.linalg.qr`` style calls, and imports of those names from ``numpy.linalg``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS:
            owner = node.value
            if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
                found.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names if a.name in DECOMPOSITIONS]
    return found


def test_no_module_but_linalg_runs_an_svd_or_qr():
    calls = [call for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py" for call in _decomposition_calls(path)]
    assert calls == []


def test_the_scan_sees_the_decompositions_in_linalg():
    assert {call.split()[-1] for call in _decomposition_calls(PACKAGE / "linalg.py")} == {"linalg.svd", "linalg.qr"}


@pytest.mark.parametrize("da", [2, 3])
def test_a_tall_witness_forms_no_u_of_the_full_svd(da):
    state = product_state(random_density(da, da, seed=1), random_density(12, 12, seed=2))
    assert faithfulness_witness(state, "A") is not None  # cached weights are built once, outside the count
    tracemalloc.start()
    try:
        pair = faithfulness_witness(state, "A")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair is not None
    assert peak < 8 * 12**4  # half of one 144 x 144 complex array, the u that a full SVD of M builds


def _low_rank(rows, cols, rank, seed):
    return random_complex((rows, rank), seed) @ random_complex((rank, cols), seed + 1)


@pytest.mark.parametrize(
    "rows, cols, rank",
    [(16, 4, 2), (36, 9, 4), (9, 9, 1), (16, 16, 7), (4, 16, 3), (9, 36, 5)],
    ids=["tall_16x4", "tall_36x9", "square_9", "square_16", "wide_4x16", "wide_9x36"],
)
def test_the_conjugate_null_space_spans_the_rows_of_vh_past_the_rank(rows, cols, rank):
    m = _low_rank(rows, cols, rank, seed=rows * cols + rank)
    tol = rank_evidence(m).tol
    ev, null = _svd_nullspace(m.conj(), tol)
    vh = np.linalg.svd(m)[2][rank:]
    assert ev.rank == rank and null.shape == (cols, cols - rank)
    np.testing.assert_allclose(null @ null.conj().T, vh.T @ vh.conj(), rtol=0, atol=1e-12)
