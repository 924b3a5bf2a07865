"""The faithfulness decision and its witness run only the spectral work their answer needs.

``restrict_support`` reads the marginals' eigenvalues first and builds
support bases only for a probe whose marginal is rank deficient, so a
full-rank probe runs no ``eigh`` inside ``certify_faithful``.  The witness
splits D(X) = <E, X> G from one eigendecomposition of the d_A x d_A matrix
E, never of the d_A^2 x d_A^2 Choi matrix E^T (x) G.  A deficient probe on
either side still gets the support restriction, with the dims, rank and
verdict pinned below.
"""

import numpy as np
import pytest

import aapt
from aapt import BipartiteState, certify_faithful, faithfulness_witness, product_state, random_density, random_state

from test_witness_stability import CASES


def _recording(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the shape of each call's first argument."""
    shapes = []
    original = getattr(module, name)

    def wrapper(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return shapes


def _embedded(side: str) -> BipartiteState:
    """A full-rank 2 x 3 state placed in 3 x 3, so the marginal on ``side`` misses one basis vector."""
    small = random_state(2, 3, seed=71) if side == "A" else random_state(3, 2, seed=71)
    da, db = small.dims
    idx = [3 * a + b for a in range(da) for b in range(db)]
    big = np.zeros((9, 9), dtype=complex)
    big[np.ix_(idx, idx)] = small.matrix
    return BipartiteState(big, 3, 3)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize(
    "state",
    [random_state(3, 4, seed=72), random_state(4, 2, seed=73), aapt.max_entangled(3), aapt.random_cq_state(3, 2, seed=74)],
    ids=["random_3x4", "random_4x2", "max_entangled_3", "cq_3x2"],
)
def test_a_full_rank_probe_builds_no_support_basis(monkeypatch, state, side):
    isometries = _recording(monkeypatch, aapt.duality, "_support_isometry")
    eighs = _recording(monkeypatch, np.linalg, "eigh")
    cert = certify_faithful(state, side)
    assert cert.dims == cert.input_dims
    assert isometries == [] and eighs == []


# (probe, side) -> (dims, rank, faithful), as the support restriction has always given them
DEFICIENT = {
    ("product_A", "A"): ((2, 3), 1, False),
    ("product_A", "B"): ((2, 3), 1, False),
    ("product_B", "A"): ((3, 2), 1, False),
    ("product_B", "B"): ((3, 2), 1, False),
    ("embedded_A", "A"): ((2, 3), 4, True),
    ("embedded_A", "B"): ((2, 3), 4, False),
    ("embedded_B", "A"): ((3, 2), 4, False),
    ("embedded_B", "B"): ((3, 2), 4, True),
}
DEFICIENT_PROBES = {
    "product_A": product_state(np.diag([0.6, 0.4, 0.0]), random_density(3, 3, 5)),
    "product_B": product_state(random_density(3, 3, 5), np.diag([0.6, 0.4, 0.0])),
    "embedded_A": _embedded("A"),
    "embedded_B": _embedded("B"),
}


@pytest.mark.parametrize(
    "state, side",
    CASES
    + [
        pytest.param(DEFICIENT_PROBES[probe], side, id=f"{probe}-{side}")
        for (probe, side), (_, _, faithful) in DEFICIENT.items()
        if not faithful
    ],
)
def test_the_witness_runs_no_eigh_larger_than_its_side(monkeypatch, state, side):
    cert = certify_faithful(state, side)
    eighs = _recording(monkeypatch, np.linalg, "eigh")
    pair = faithfulness_witness(state, side)
    da = pair.k0.dim_in
    assert da == dict(zip("AB", cert.dims))[side]
    if cert.dims == cert.input_dims:  # no support basis to build: the split's one eigh of E is all
        assert eighs == [(da, da)]
    else:  # the support bases of both marginals, then the split
        assert len(eighs) == 3 and eighs[-1] == (da, da)
        assert sorted(eighs[:2]) == sorted((d, d) for d in cert.input_dims)


@pytest.mark.parametrize("probe, side", list(DEFICIENT), ids=[f"{p}-{s}" for p, s in DEFICIENT])
def test_a_deficient_marginal_on_either_side_is_still_restricted(monkeypatch, probe, side):
    isometries = _recording(monkeypatch, aapt.duality, "_support_isometry")
    cert = certify_faithful(DEFICIENT_PROBES[probe], side)
    assert (cert.dims, cert.rank, cert.faithful) == DEFICIENT[probe, side]
    assert cert.input_dims == (3, 3) and len(isometries) == 2
