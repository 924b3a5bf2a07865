"""The slice bound that certifies the commutant's nullity without building K.

``certify_sensitive`` first diagonalizes one slice H = Tr_B[(1 (x) Y) rho]
of the state, decomposes K only on the span V of the u_i u_j^dag within one
eigenvalue cluster, and bounds K's kept singular values on the rest by the
gap between clusters.  With a cut no lower than K's, a bound above ten times
the cut certifies K's nullity.  K, decomposed here with numpy directly,
stays the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aapt import (
    certify_sensitive,
    commutant_basis,
    max_entangled,
    product_state,
    random_cq_state,
    random_density,
    random_state,
    vec,
)
from aapt import sensitivity
from aapt.documents import dumps, loads, sensitivity_document
from aapt.linalg import default_rank_tol
from aapt.sensitivity import _commutator_matrix, _restricted_commutator
from aapt.states import orient


def k_singular_values(state, side):
    work = orient(state, side)
    return np.linalg.svd(_commutator_matrix(work.matrix, work.dims), compute_uv=False)


def k_nullity(state, side, tol=0.0):
    """K's nullity and its tolerance, at ``tol`` or by the package-wide rule."""
    s_k = k_singular_values(state, side)
    d = orient(state, side).dim_a
    tol_k = tol or default_rank_tol(((state.dim_a * state.dim_b) ** 2, d * d), s_k[0])
    return int((s_k <= tol_k).sum()), tol_k, s_k


def make_probe(family, da, db, seed):
    if family == "random":
        return random_state(da, db, seed=seed)
    if family == "rank2":
        return random_state(da, db, rank=2, seed=seed)
    if family == "cq":
        return random_cq_state(da, db, seed=seed)
    g = np.random.default_rng(seed)
    return product_state(random_density(da, da, g), random_density(db, db, g))


def check_against_k(state, side, cert):
    """The certificate's nullity is K's; slice evidence bounds K's first kept singular value from below."""
    q, tol_k, s_k = k_nullity(state, side)
    assert cert.nullity == q
    assert cert.sensitive == (q == 1)
    if cert.slice_bound:
        ev = cert.evidence
        assert ev.rank == s_k.size - q
        assert tol_k <= ev.tol and ev.largest_dropped <= tol_k
        assert 10 * ev.tol < ev.smallest_kept <= s_k[-q - 1] * (1 + 1e-10)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["random", "rank2", "cq", "product"]),
    da=st.integers(2, 4),
    db=st.integers(2, 4),
    side=st.sampled_from(["A", "B"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_bound_never_exceeds_k_at_its_first_kept_singular_value(family, da, db, side, seed):
    state = make_probe(family, da, db, seed)
    check_against_k(state, side, certify_sensitive(state, side))


SCAN_SHAPES = [(6, 6), (4, 9), (9, 4), (3, 12), (12, 3), (2, 2), (3, 3), (4, 2), (3, 2)]
SCAN = [(f"{family}_{da}x{db}", make_probe(family, da, db, 600 + i))
        for i, (da, db) in enumerate(SCAN_SHAPES) for family in ("random", "rank2", "cq", "product")]


@pytest.mark.parametrize("name, state", SCAN, ids=[name for name, _ in SCAN])
def test_bound_route_verdicts_are_the_verdicts_of_k(name, state):
    for side in ("A", "B"):
        cert = certify_sensitive(state, side)
        check_against_k(state, side, cert)
        if cert.sensitive and cert.slice_bound:
            assert cert.evidence.largest_dropped == 0.0 and math.isinf(cert.evidence.gap_ratio)
            assert cert.pcq_measurement is None


def test_the_bound_route_is_taken_by_every_scan_probe():
    taken = {(name, side) for name, state in SCAN for side in ("A", "B") if certify_sensitive(state, side).slice_bound}
    assert taken == {(name, side) for name, _ in SCAN for side in ("A", "B")}


@pytest.mark.parametrize("da, db", [(2, 2), (3, 3), (4, 2), (12, 3)])
def test_k_maps_the_identity_to_exactly_zero(da, db):
    work = orient(random_state(da, db, seed=620 + da), "A")
    assert np.all(_commutator_matrix(work.matrix, work.dims) @ vec(np.eye(da)) == 0)


def _v_pairs(ranges):
    """The pairs (i, j) spanning V, in the order of :func:`_restricted_commutator`."""
    return [(i, j) for r in ranges for i in r for j in r]


@pytest.mark.parametrize("layout", [[1, 1, 1, 1], [2, 1, 1], [1, 3], [4]])
@pytest.mark.parametrize("family", ["random", "cq", "product"])
def test_the_restricted_matrix_has_the_singular_values_and_null_space_of_k_on_v(layout, family):
    state = make_probe(family, 4, 3, 640)
    u = np.linalg.qr(np.random.default_rng(641).standard_normal((4, 4)) + 0j)[0]
    ranges = [range(sum(layout[:k]), sum(layout[: k + 1])) for k in range(len(layout))]
    big = np.kron(u, np.eye(3))
    rotated = big.conj().T @ state.matrix @ big
    kv, pairs = _restricted_commutator(rotated, (4, 3), ranges)
    assert list(zip(*pairs)) == _v_pairs(ranges)
    v_basis = np.column_stack([vec(np.outer(u[:, i], u[:, j].conj())) for i, j in _v_pairs(ranges)])
    _, s_v, _ = np.linalg.svd(_commutator_matrix(state.matrix, (4, 3)) @ v_basis)
    _, s, vh = np.linalg.svd(kv)
    assert s.size == s_v.size and np.max(np.abs(s - s_v)) <= 1e-13 * s_v[0]
    # the same right singular subspaces: the null space of either is annihilated by the other
    null = vh[int((s > 1e-10 * s[0]).sum()) :].conj().T
    assert np.linalg.norm(_commutator_matrix(state.matrix, (4, 3)) @ v_basis @ null) <= 1e-12
    # the identity, the sum of the diagonal pairs, maps to exactly zero
    identity = np.array([float(i == j) for i, j in _v_pairs(ranges)])
    assert np.all(kv @ identity == 0)


def test_the_bound_route_returns_the_scaled_identity():
    basis = commutant_basis(random_state(3, 3, seed=511), "A")
    assert basis.nullity == 1
    assert np.array_equal(basis.elements[0], np.eye(3) / math.sqrt(3))


@pytest.fixture
def calls(monkeypatch):
    """The commutator matrices K built during a call."""
    record = {"k": []}
    real_k = sensitivity._commutator_matrix

    def k(rho, dims):
        record["k"].append(dims)
        return real_k(rho, dims)

    monkeypatch.setattr(sensitivity, "_commutator_matrix", k)
    return record


def test_a_user_tolerance_near_the_bound_falls_through_to_k(calls):
    state = random_state(3, 3, seed=511)
    cert = certify_sensitive(state, "A")
    assert cert.slice_bound and calls["k"] == []
    tol = cert.evidence.smallest_kept / 5  # below K's second smallest singular value, above a tenth of the bound
    assert tol < k_singular_values(state, "A")[-2]
    cert = certify_sensitive(state, "A", tol=tol)
    assert not cert.slice_bound and calls["k"] == [(3, 3)]
    assert cert.nullity == 1 and cert.evidence.tol == tol
    assert loads(dumps(sensitivity_document(cert, state.dims))).meta["evidence"] == "singular_gap"


@pytest.mark.parametrize("side", ["A", "B"])
def test_the_maximally_entangled_probe_builds_no_k(calls, side):
    cert = certify_sensitive(max_entangled(3), side)
    assert cert.sensitive and cert.slice_bound and calls["k"] == []


def test_a_classical_quantum_probe_is_decided_without_k(calls):
    state = random_cq_state(4, 2, seed=517)
    cert = certify_sensitive(state, "A")
    assert not cert.sensitive and cert.slice_bound and calls["k"] == []
    assert cert.nullity == k_nullity(state, "A")[0] == 4


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_an_invalid_tolerance_is_refused_before_any_route(tol, calls):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        certify_sensitive(random_state(3, 3, seed=511), "A", tol=tol)
    assert calls["k"] == []


def test_the_document_names_the_bound_and_keeps_its_numbers():
    state = random_state(3, 3, seed=511)
    cert = certify_sensitive(state, "A")
    doc = loads(dumps(sensitivity_document(cert, state.dims)))
    assert doc.meta["evidence"] == "slice_bound"
    assert doc.meta["verdict"] == "true" and doc.meta["nullity"] == "1" and doc.meta["gap_ratio"] == "inf"
    assert np.array_equal(doc.data, [cert.evidence.smallest_kept, 0.0])
