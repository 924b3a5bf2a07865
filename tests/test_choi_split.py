"""The channel-difference split works on Choi matrices and agrees with the Kraus-list split it replaced.

``witness._channel_pair`` is the general split behind
``decompose_channel_difference``, and ``witness._witness_pair`` the closed
form behind ``faithfulness_witness``, which splits D(X) = <E, X> G from one
eigendecomposition of E.  The oracle below is the earlier construction:
it built K0 and K1 as Kraus lists of the scaled conjugation terms plus the
slack operator.  On random trace-annihilating maps (general split) and on
the map E^T (x) G of every non-faithful probe in
``tests/test_witness_stability.py`` (closed form), both give the same alpha
and Choi matrices, and the Choi-form pair is CPTP and reproduces the map.
On random Hermitian E the closed form agrees with the general split of
E^T (x) G wherever the largest |eigenvalue| of E is not tied.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aapt import (
    HermitianPreservingMap,
    TransferMatrix,
    choi_to_transfer,
    classify,
    conjugation_decomposition,
    decompose_channel_difference,
    faithfulness_witness,
    random_cptp,
    witness,
)
from aapt.channels import kraus_to_choi
from aapt.linalg import partial_trace

from test_witness_stability import CASES

TOL = 1e-12


def _kraus_list_split(c, d):
    """The Kraus-list split of a trace-annihilating d -> d map's Choi matrix, as the package once built it."""
    terms = conjugation_decomposition(HermitianPreservingMap(TransferMatrix(d, d, choi_to_transfer(c, d, d))))
    positive = [(lam, v) for lam, v in terms if lam >= 0]
    negative = [(lam, v) for lam, v in terms if lam < 0]
    p = np.zeros((d, d), dtype=complex)
    for lam, v in positive:
        p += lam * (v.conj().T @ v)
    w, u = np.linalg.eigh((p + p.conj().T) / 2)
    alpha = float(w[-1])
    slack = (u * np.sqrt(alpha - w)) @ u.conj().T
    extra = [] if np.linalg.norm(slack) <= 1e-12 * math.sqrt(alpha * d) else [slack / math.sqrt(alpha)]
    k0_ops = [math.sqrt(lam / alpha) * v for lam, v in positive] + extra
    k1_ops = [math.sqrt(-lam / alpha) * v for lam, v in negative] + extra
    return alpha, kraus_to_choi(k0_ops), kraus_to_choi(k1_ops)


def _random_maps():
    out = []
    for d in (2, 3, 4):
        for k, scale in enumerate((0.3, 1.0, 2.5)):
            a = random_cptp(d, 1 + k, seed=80 + 10 * d + k).choi()
            b = random_cptp(d, 2 + k, seed=90 + 10 * d + k).choi()
            out.append(pytest.param(scale * (a - b), d, id=f"d{d}_x{scale}"))
    return out


def _witness_weight(state, side, monkeypatch):
    """The normalized Hermitian E whose map D(X) = <E, X> G the witness of ``state`` on ``side`` splits."""
    seen = []
    original = witness._witness_pair

    def recording(e):
        seen.append(e)
        return original(e)

    monkeypatch.setattr(witness, "_witness_pair", recording)
    assert faithfulness_witness(state, side) is not None
    assert len(seen) == 1
    return seen[0]


def _witness_choi(e):
    """The Choi matrix E^T (x) G of D(X) = <E, X> G, G the normalized traceless part of E, and d."""
    d = e.shape[0]
    g = e - (np.trace(e) / d) * np.eye(d)
    return np.kron(e.T, g / np.linalg.norm(g)), d


def _check_cptp_and_reproduction(c, d, pair):
    alpha, c0, c1 = pair
    for ci in (c0, c1):
        assert np.linalg.eigvalsh((ci + ci.conj().T) / 2)[0] >= -TOL
        assert np.linalg.norm(partial_trace(ci, (d, d), "B") - np.eye(d)) <= TOL
    assert np.linalg.norm(alpha * (c0 - c1) - c) <= TOL


def _check_split(c, d, pair):
    scale = max(1.0, float(np.linalg.norm(c)))
    alpha, c0, c1 = pair
    want_alpha, want0, want1 = _kraus_list_split(c, d)
    assert abs(alpha - want_alpha) <= TOL * scale
    assert np.linalg.norm(c0 - want0) <= TOL * scale
    assert np.linalg.norm(c1 - want1) <= TOL * scale
    _check_cptp_and_reproduction(c, d, pair)


@pytest.mark.parametrize("c, d", _random_maps())
def test_the_split_of_a_random_map_matches_the_kraus_list_split(c, d):
    _check_split(c, d, witness._channel_pair(c, d))


@pytest.mark.parametrize("state, side", CASES)
def test_the_split_of_a_witness_map_matches_the_kraus_list_split(state, side, monkeypatch):
    e = _witness_weight(state, side, monkeypatch)
    c, d = _witness_choi(e)
    _check_split(c, d, witness._witness_pair(e))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), tie=st.sampled_from([None, 1.0, -1.0]))
def test_the_closed_form_matches_the_general_split_of_the_witness_map(seed, d, tie):
    """Untied top |eigenvalue|: the same pair as the general split.  Tied: both pairs still CPTP and exact."""
    g = np.random.default_rng(seed)
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    lam, a = np.linalg.eigh((z + z.conj().T) / 2)
    if tie is not None:  # a second eigenvalue of the same modulus as the largest, of either sign
        top = int(np.argmax(np.abs(lam)))
        lam[top - 1] = tie * lam[top]
    assume(np.ptp(lam) > 1e-3 * np.abs(lam).max())  # E is not a multiple of the identity, as in the witness
    e = (a * lam) @ a.conj().T
    e = (e + e.conj().T) / (2 * np.linalg.norm(e))  # exactly Hermitian, as weight_in_span returns it
    c, _ = _witness_choi(e)
    closed, general = witness._witness_pair(e), witness._channel_pair(c, d)
    moduli = np.sort(np.abs(np.linalg.eigvalsh(e)))
    if moduli[-1] - moduli[-2] > 1e-6 * moduli[-1]:
        assert abs(closed[0] - general[0]) <= TOL
        assert np.linalg.norm(closed[1] - general[1]) <= TOL
        assert np.linalg.norm(closed[2] - general[2]) <= TOL
    for pair in (closed, general):
        _check_cptp_and_reproduction(c, d, pair)


@pytest.mark.parametrize("c, d", _random_maps()[:3])
def test_decompose_wraps_the_split_in_choi_form(c, d):
    m = HermitianPreservingMap(TransferMatrix(d, d, choi_to_transfer(c, d, d)))
    alpha, k0, k1 = decompose_channel_difference(m)
    want_alpha, want0, want1 = witness._channel_pair(m.transfer.choi(), d)
    assert alpha == want_alpha
    assert k0.kind == k1.kind == "choi"
    assert np.array_equal(k0.choi(), want0) and np.array_equal(k1.choi(), want1)


@pytest.mark.parametrize("state, side", CASES)
def test_witness_channels_are_choi_form_cptp_channels(state, side):
    pair = faithfulness_witness(state, side)
    for channel in (pair.k0, pair.k1):
        report = classify(channel)
        assert channel.kind == "choi" and report.is_cp and report.is_tp
