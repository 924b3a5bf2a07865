"""The two-term sub-stack bound that certifies nullity 1 without building K.

At full operator-Schmidt rank, ``certify_sensitive`` first takes the
singular values of the stack of s_k ad(A_k) over the two largest Schmidt
terms.  Its rows are rows of K up to a unitary, so its second smallest
singular value is at most K's; above ten times a cut no lower than K's, the
nullity is 1.  K, decomposed here with numpy directly, stays the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aapt import (
    certify_sensitive,
    commutant_basis,
    product_state,
    random_cq_state,
    random_density,
    random_state,
    vec,
)
from aapt import sensitivity
from aapt.documents import dumps, loads, sensitivity_document
from aapt.linalg import default_rank_tol
from aapt.sensitivity import _adjoint_stack, _commutator_matrix, _schmidt_terms
from aapt.states import orient


def k_singular_values(state, side):
    work = orient(state, side)
    return np.linalg.svd(_commutator_matrix(work.matrix, work.dims), compute_uv=False)


def substack_singular_values(state, side):
    work = orient(state, side)
    weighted, _ = _schmidt_terms(work)
    return np.linalg.svd(_adjoint_stack(weighted[:, :2], work.dim_a), compute_uv=False)


def make_probe(family, da, db, seed):
    if family == "random":
        return random_state(da, db, seed=seed)
    if family == "rank2":
        return random_state(da, db, rank=2, seed=seed)
    if family == "cq":
        return random_cq_state(da, db, seed=seed)
    g = np.random.default_rng(seed)
    return product_state(random_density(da, da, g), random_density(db, db, g))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["random", "rank2", "cq", "product"]),
    da=st.integers(2, 4),
    db=st.integers(2, 4),
    side=st.sampled_from(["A", "B"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_substack_never_exceeds_k_at_the_second_smallest_singular_value(family, da, db, side, seed):
    state = make_probe(family, da, db, seed)
    s_k = k_singular_values(state, side)
    s_sub = substack_singular_values(state, side)
    # where K's commutant exceeds the scalars both values are rounding noise, hence the absolute term
    assert s_sub[-2] <= s_k[-2] * (1 + 1e-10) + 1e-14 * s_k[0]


SCAN_SHAPES = [(6, 6), (4, 9), (9, 4), (3, 12), (12, 3), (2, 2), (3, 3), (4, 2), (3, 2)]
SCAN = [(f"{family}_{da}x{db}", make_probe(family, da, db, 600 + i))
        for i, (da, db) in enumerate(SCAN_SHAPES) for family in ("random", "rank2", "cq", "product")]


@pytest.mark.parametrize("name, state", SCAN, ids=[name for name, _ in SCAN])
def test_bound_route_verdicts_are_the_verdicts_of_k(name, state):
    for side in ("A", "B"):
        cert = certify_sensitive(state, side)
        if not cert.substack_bound:
            continue
        s_k = k_singular_values(state, side)
        tol_k = default_rank_tol(((state.dim_a * state.dim_b) ** 2, s_k.size), s_k[0])
        assert cert.sensitive and cert.nullity == 1 == int((s_k <= tol_k).sum()), (name, side)
        assert cert.pcq_measurement is None
        ev = cert.evidence
        assert ev.rank == s_k.size - 1 and ev.largest_dropped == 0.0 and math.isinf(ev.gap_ratio)
        assert tol_k <= ev.tol and 10 * ev.tol < ev.smallest_kept <= s_k[-2]


def test_the_bound_route_is_taken_by_full_schmidt_rank_random_probes():
    randoms = [(name, state) for name, state in SCAN if name.startswith("random_")]
    taken = {name for name, state in randoms if certify_sensitive(state, "A").substack_bound}
    # on side A the Schmidt rank of a random probe is full (d_B^2) exactly when d_B <= d_A
    assert taken == {f"random_{da}x{db}" for da, db in SCAN_SHAPES if db <= da}


@pytest.mark.parametrize("da, db", [(2, 2), (3, 3), (4, 2), (12, 3)])
def test_every_adjoint_maps_the_identity_to_exactly_zero(da, db):
    work = orient(random_state(da, db, seed=620 + da), "A")
    weighted, _ = _schmidt_terms(work)
    assert np.all(_adjoint_stack(weighted, da) @ vec(np.eye(da)) == 0)
    assert np.all(_adjoint_stack(weighted[:, :2], da) @ vec(np.eye(da)) == 0)


def test_the_bound_route_returns_the_scaled_identity():
    basis = commutant_basis(random_state(3, 3, seed=511), "A")
    assert basis.nullity == 1
    assert np.array_equal(basis.elements[0], np.eye(3) / math.sqrt(3))


@pytest.fixture
def calls(monkeypatch):
    """The commutator matrices K built and the value-only SVDs taken during a call."""
    record = {"k": [], "values_only": 0}
    real_k, real_svd = sensitivity._commutator_matrix, np.linalg.svd

    def k(rho, dims):
        record["k"].append(dims)
        return real_k(rho, dims)

    def svd(a, *args, **kwargs):
        record["values_only"] += kwargs.get("compute_uv") is False
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "_commutator_matrix", k)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return record


def test_a_user_tolerance_near_the_bound_falls_through_to_k(calls):
    state = random_state(3, 3, seed=511)
    sigma2 = substack_singular_values(state, "A")[-2]
    assert certify_sensitive(state, "A").substack_bound and calls["k"] == []
    tol = sigma2 / 5  # below K's second smallest singular value, above a tenth of the bound
    assert tol < k_singular_values(state, "A")[-2]
    cert = certify_sensitive(state, "A", tol=tol)
    assert not cert.substack_bound and calls["k"] == [(3, 3)]
    assert cert.nullity == 1 and cert.evidence.tol == tol
    assert loads(dumps(sensitivity_document(cert, state.dims))).meta["evidence"] == "singular_gap"


def test_commuting_schmidt_operators_skip_the_substack_svd(calls):
    state = random_cq_state(4, 2, seed=517)
    assert _schmidt_terms(orient(state, "A"))[0].shape[1] == 4  # full Schmidt rank d_B^2
    cert = certify_sensitive(state, "A")
    assert not cert.sensitive and not cert.substack_bound
    assert calls["k"] == [(4, 2)] and calls["values_only"] == 0
    certify_sensitive(random_state(3, 3, seed=511), "A")
    assert calls["values_only"] == 1 and calls["k"] == [(4, 2)]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_an_invalid_tolerance_is_refused_before_any_route(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        certify_sensitive(random_state(3, 3, seed=511), "A", tol=tol)


def test_the_document_names_the_bound_and_keeps_its_numbers():
    state = random_state(3, 3, seed=511)
    cert = certify_sensitive(state, "A")
    doc = loads(dumps(sensitivity_document(cert, state.dims)))
    assert doc.meta["evidence"] == "substack_bound"
    assert doc.meta["verdict"] == "true" and doc.meta["nullity"] == "1" and doc.meta["gap_ratio"] == "inf"
    assert np.array_equal(doc.data, [cert.evidence.smallest_kept, 0.0])
