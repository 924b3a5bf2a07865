"""The PC-Q measurement is built and checked in the eigenbasis of the weight it comes from.

``certify_sensitive`` splits the traceless weight h once with ``eigh``; the
projectors are its cluster blocks, and the self-check reads the state in
that basis, where pinching keeps the blocks within a cluster.  So the
evidence forms no d_A^4-sized temporary, its residual is the one
``pcq_residual`` computes for the same projectors, and the check still
refuses a measurement that moves the state.  A non-scalar h always splits
into at least two clusters, so the measurement is never trivial.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aapt import (
    certify_sensitive,
    haar_unitary,
    pcq_residual,
    product_state,
    random_cq_state,
    random_density,
    random_state,
    swap_sides,
)
from aapt import sensitivity
from aapt.cli import EXIT_NUMERICAL, main
from aapt.documents import save, state_document

from test_commutant_routes import NON_SENSITIVE, PROBES

TAIL_PROBES = {
    "product_12x3": product_state(random_density(12, 12, seed=601), random_density(3, 3, seed=602)),
    "cq_12x3": random_cq_state(12, 3, seed=1),
}


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", TAIL_PROBES)
@pytest.mark.parametrize("side", ["A", "B"])
def test_a_non_sensitive_certificate_forms_no_d_a_4_temporary(name, side):
    state = TAIL_PROBES[name] if side == "A" else swap_sides(TAIL_PROBES[name])
    certify_sensitive(state, side)  # cached weights and incidence rows are built once, outside the count
    cert, peak = _peak_bytes(lambda: certify_sensitive(state, side))
    assert cert.nullity == 12 and cert.slice_bound
    assert peak < 16 * 12**4  # one complex d_A^4 array is 324 KB; the pinching transfer matrix was one


@pytest.fixture
def residuals(monkeypatch):
    """The residuals the self-check computes in the eigenbasis, and the count of ``pcq_residual`` calls."""
    seen = {"split": [], "pcq_residual": 0}
    real_split, real_pcq = sensitivity._split_residual, sensitivity.pcq_residual

    def split(*args):
        seen["split"].append(real_split(*args))
        return seen["split"][-1]

    def pcq(*args, **kwargs):
        seen["pcq_residual"] += 1
        return real_pcq(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "_split_residual", split)
    monkeypatch.setattr(sensitivity, "pcq_residual", pcq)
    return seen


@pytest.mark.parametrize("name, side", NON_SENSITIVE)
def test_the_eigenbasis_residual_is_pcq_residual(residuals, name, side):
    state = PROBES[name]
    cert = certify_sensitive(state, side)
    assert len(residuals["split"]) == 1
    assert residuals["pcq_residual"] == 0
    assert abs(residuals["split"][0] - pcq_residual(state, cert.pcq_measurement, side)) <= 1e-13


def test_a_sensitive_verdict_runs_no_self_check(residuals):
    assert certify_sensitive(random_state(3, 3, seed=5)).sensitive
    assert residuals == {"split": [], "pcq_residual": 0}


SELF_CHECK = (
    r"^extracted measurement perturbs the state \(residual 2\.713e-01 > 1e-10\); "
    r"the commutant tolerance and the verification tolerance are inconsistent$"
)


def test_the_self_check_refuses_a_measurement_that_moves_the_state():
    # a tolerance of 0.2 puts directions of K far from null into the commutant
    with pytest.raises(ArithmeticError, match=SELF_CHECK):
        certify_sensitive(random_state(3, 3, seed=4), "A", tol=0.2)


def test_the_cli_exits_numerical_when_the_self_check_fires(tmp_path, capsys):
    save(state_document(random_state(3, 3, seed=4)), tmp_path / "state.json")
    code = main(["certify", str(tmp_path / "state.json"), "--mode", "sensitive", "--tol", "0.2"])
    assert code == EXIT_NUMERICAL == 3
    assert "extracted measurement perturbs the state (residual 2.713e-01 > 1e-10)" in capsys.readouterr().err


def test_the_projectors_are_the_cluster_blocks_of_one_split(monkeypatch):
    calls = []
    real = sensitivity._eigensplit
    monkeypatch.setattr(sensitivity, "_eigensplit", lambda h: calls.append(h) or real(h))
    cert = certify_sensitive(TAIL_PROBES["product_12x3"])
    assert len(calls) == 1
    v, ranges = real(calls[0])
    for p, r in zip(cert.pcq_measurement.projectors, ranges, strict=True):
        block = v[:, r.start : r.stop]
        assert np.array_equal(p, block @ block.conj().T)


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8),
    centres=st.integers(1, 3),
    cluster_exponent=st.integers(6, 20),
    scale_exponent=st.integers(-320, 300),
    rotate=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@example(levels=[0.0, 0.5, 1.0], centres=1, cluster_exponent=6, scale_exponent=-320, rotate=False, seed=0)  # 1e-8 spread is 0
def test_a_non_scalar_operator_splits_into_at_least_two_clusters(levels, centres, cluster_exponent, scale_exponent, rotate, seed):
    # the d - 1 neighbouring gaps sum to the spread, so one exceeds 1e-8 of it for d - 1 < 1e8, also when that cut underflows
    x = np.array(levels)
    w = (np.round(x * centres) / centres + 10.0**-cluster_exponent * x) * 10.0**scale_exponent  # a few tight clusters
    d = w.size
    u = haar_unitary(d, seed)
    h = (u * w) @ u.conj().T if rotate else np.diag(w).astype(complex)
    # non-scalar as _eigensplit sees it: eigh may round a spectrum within rounding of one value onto it
    assume(np.ptp(np.linalg.eigh(h)[0]) > 0.0)
    _, ranges = sensitivity._eigensplit(h)
    assert len(ranges) >= 2
    assert [i for r in ranges for i in r] == list(range(d))
