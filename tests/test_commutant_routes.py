"""The slice route against the commutator matrix K it stands in for.

``commutant_basis`` decides the commutant in the eigenbasis of one slice of
the state and decomposes K only when that bound does not decide, as for a K
that vanishes or a side of dimension one.  K stays the oracle: each probe is
checked on both sides against an SVD of K taken here with numpy directly,
for nullity, tolerance and the PC-Q projectors.
"""

import numpy as np
import pytest

from aapt import (
    BipartiteState,
    certify_sensitive,
    commutant_basis,
    cq_state,
    extract_pcq,
    max_entangled,
    product_state,
    random_cq_state,
    random_density,
    random_state,
    unitary_faithful_state,
    unvec,
)
from aapt import sensitivity
from aapt.linalg import default_rank_tol
from aapt.sensitivity import _commutator_matrix, _nonscalar_hermitian
from aapt.states import orient

from helpers import eigenprojectors as _eigenprojectors, random_complex


def _basis_state(d, i):
    m = np.zeros((d, d), dtype=complex)
    m[i, i] = 1.0
    return m


PROBES = {
    "1x1": BipartiteState(np.eye(1), 1, 1),
    "1x3": random_state(1, 3, seed=501),
    "3x1": random_state(3, 1, seed=502),
    "product_3x2": product_state(random_density(3, 3, seed=503), random_density(2, 2, seed=504)),
    "product_2x5": product_state(random_density(2, 2, seed=505), random_density(5, 5, seed=506)),
    "product_pure_a_4x2": product_state(random_density(4, 1, seed=507), random_density(2, 2, seed=508)),
    "cq_3x2": random_cq_state(3, 2, seed=509),
    "cq_4x3": random_cq_state(4, 3, seed=510),
    "cq_basis_3x2": cq_state([0.5, 0.3, 0.2], [_basis_state(2, 0), _basis_state(2, 1), _basis_state(2, 0)]),
    "random_3x3": random_state(3, 3, seed=511),
    "random_2x4": random_state(2, 4, seed=512),
    "rank2_3x3": random_state(3, 3, rank=2, seed=513),
    "pure_2x3": random_state(2, 3, rank=1, seed=514),
    "max_entangled_3": max_entangled(3),
    "unitary_faithful_3": unitary_faithful_state([0.5, 0.3, 0.2]),
    "maximally_mixed_2x3": BipartiteState(np.eye(6) / 6, 2, 3),
    "mixed_a_3x4": product_state(np.eye(3) / 3, random_density(4, 4, seed=515)),
}
CASES = [(name, side) for name in PROBES for side in ("A", "B")]


def k_oracle(state, side):
    """Singular values, tolerance, nullity and commutant elements from numpy's SVD of K."""
    work = orient(state, side)
    d = work.dim_a
    k = _commutator_matrix(work.matrix, work.dims)
    _, s, vh = np.linalg.svd(k, full_matrices=False)
    tol = default_rank_tol(k.shape, float(s[0]))
    rank = int((s > tol).sum())
    elements = tuple(unvec(v, (d, d)) for v in vh[rank:].conj())
    return s, tol, d * d - rank, elements


@pytest.mark.parametrize("name, side", CASES)
def test_the_route_matches_the_commutator_matrix(name, side):
    state = PROBES[name]
    s_k, tol_k, nullity_k, _ = k_oracle(state, side)
    basis = commutant_basis(state, side)
    assert basis.nullity == nullity_k
    if certify_sensitive(state, side).slice_bound:
        # a lower bound on K's first kept singular value, cut no lower than K
        assert tol_k <= basis.tol
        assert basis.evidence.smallest_kept <= s_k[-nullity_k - 1] * (1 + 1e-10)
        assert basis.evidence.largest_dropped <= tol_k
    else:
        assert basis.tol == pytest.approx(tol_k, rel=1e-13, abs=0.0)
    if s_k[0] == 0:
        # K vanishes exactly: the route must use K
        assert basis.tol == 0.0 == basis.evidence.smallest_kept


@pytest.fixture
def built(monkeypatch):
    """Dimensions of every commutator matrix K that ``commutant_basis`` builds."""
    calls = []
    real = sensitivity._commutator_matrix
    monkeypatch.setattr(sensitivity, "_commutator_matrix", lambda rho, dims: calls.append(dims) or real(rho, dims))
    return calls


def test_k_is_built_only_where_the_slice_cannot_decide(built):
    for name in ("product_3x2", "cq_3x2", "unitary_faithful_3", "random_3x3", "max_entangled_3"):
        commutant_basis(PROBES[name], "A")
        commutant_basis(PROBES[name], "B")
    commutant_basis(random_cq_state(4, 2, seed=517), "A")
    assert built == []
    # a side of dimension one, and a K that vanishes (rho = 1/d_A (x) sigma)
    for name, side in (("1x1", "A"), ("1x3", "A"), ("3x1", "B"), ("maximally_mixed_2x3", "A"), ("mixed_a_3x4", "A")):
        commutant_basis(PROBES[name], side)
    assert built == [(1, 1), (1, 3), (1, 3), (2, 3), (3, 4)]


def _correlated_below_the_drop_line(relative):
    """A product state plus one Schmidt term at ``relative`` times the product's norm."""
    rho_a = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho_b = np.diag([0.6, 0.4]).astype(complex)
    x = np.diag([1.0, -1.0, 0.0]).astype(complex)
    y = np.diag([1.0, -1.0]).astype(complex)
    product = np.kron(rho_a, rho_b)
    extra = relative * np.linalg.norm(product) * np.kron(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
    return BipartiteState(product + extra, 3, 2)


@pytest.mark.parametrize("relative", [5e-14, 0.0])
def test_a_correlation_far_below_the_cut_keeps_the_nullity_of_k(relative):
    state = _correlated_below_the_drop_line(relative)
    basis = commutant_basis(state)
    _, tol_k, nullity_k, _ = k_oracle(state, "A")
    assert basis.nullity == nullity_k == 3
    assert tol_k <= basis.tol


def test_an_explicit_tolerance_is_what_the_nullity_is_held_to():
    state = _correlated_below_the_drop_line(2e-15)
    assert commutant_basis(state).nullity == 3
    basis = commutant_basis(state, tol=1e-13)
    s_k = k_oracle(state, "A")[0]
    assert basis.nullity == int((s_k <= 1e-13).sum()) == 3
    assert 1e-13 <= basis.tol  # the slice bound records its own cut, which is never below the one asked for


def _projectors(cert):
    return [np.asarray(p) for p in cert.pcq_measurement.projectors]


NON_SENSITIVE = [(name, side) for name, side in CASES if k_oracle(PROBES[name], side)[2] > 1]


@pytest.mark.parametrize("name, side", NON_SENSITIVE)
def test_pcq_projectors_agree_across_routes(name, side):
    state = PROBES[name]
    _, _, _, elements = k_oracle(state, side)
    want = _eigenprojectors(_nonscalar_hermitian(elements, elements[0].shape[0]))
    got = _projectors(certify_sensitive(state, side))
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert np.max(np.abs(p - q)) <= 1e-12


@pytest.mark.parametrize("name, side", [c for c in NON_SENSITIVE if k_oracle(PROBES[c[0]], c[1])[0][0] > 0])
def test_pcq_projectors_survive_a_rounding_level_perturbation(name, side):
    state = PROBES[name]
    h = random_complex(state.matrix.shape, 516)
    h = h + h.conj().T
    h -= np.trace(h) / h.shape[0] * np.eye(h.shape[0])
    moved = BipartiteState(state.matrix + 1e-15 * h / np.linalg.norm(h), *state.dims)
    want, got = certify_sensitive(state, side), certify_sensitive(moved, side)
    assert got.nullity == want.nullity
    assert len(_projectors(got)) == len(_projectors(want))
    for p, q in zip(_projectors(got), _projectors(want)):
        assert np.max(np.abs(p - q)) <= 1e-12


@pytest.mark.parametrize("name, side", NON_SENSITIVE)
def test_extract_pcq_reads_the_certificate(monkeypatch, name, side):
    state = PROBES[name]
    want = _projectors(certify_sensitive(state, side))
    calls = []
    real = sensitivity.certify_sensitive
    monkeypatch.setattr(sensitivity, "certify_sensitive", lambda *a, **k: calls.append(a) or real(*a, **k))
    got = extract_pcq(state, side)
    assert len(calls) == 1
    assert len(got) == len(want)
    assert all(np.array_equal(p, q) for p, q in zip(got.projectors, want))
