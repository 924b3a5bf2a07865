"""The channel-difference split works on Choi matrices and agrees with the Kraus-list split it replaced.

``witness._channel_pair`` is the one split behind ``decompose_channel_difference``
and ``faithfulness_witness``.  The oracle below is the earlier construction:
it built K0 and K1 as Kraus lists of the scaled conjugation terms plus the
slack operator.  On random trace-annihilating maps and on the map of every
non-faithful probe in ``tests/test_witness_stability.py``, both give the
same alpha and Choi matrices, and the Choi-form pair is CPTP and reproduces
the map.
"""

import math

import numpy as np
import pytest

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


def _witness_map(state, side, monkeypatch):
    """The Choi matrix the witness of ``state`` on ``side`` hands to the split."""
    seen = []
    original = witness._channel_pair

    def recording(c, d):
        seen.append((c, d))
        return original(c, d)

    monkeypatch.setattr(witness, "_channel_pair", recording)
    assert faithfulness_witness(state, side) is not None
    assert len(seen) == 1
    return seen[0]


def _check_split(c, d):
    scale = max(1.0, float(np.linalg.norm(c)))
    alpha, c0, c1 = witness._channel_pair(c, d)
    want_alpha, want0, want1 = _kraus_list_split(c, d)
    assert abs(alpha - want_alpha) <= TOL * scale
    assert np.linalg.norm(c0 - want0) <= TOL * scale
    assert np.linalg.norm(c1 - want1) <= TOL * scale
    for ci in (c0, c1):
        assert np.linalg.eigvalsh((ci + ci.conj().T) / 2)[0] >= -TOL
        assert np.linalg.norm(partial_trace(ci, (d, d), "B") - np.eye(d)) <= TOL
    assert np.linalg.norm(alpha * (c0 - c1) - c) <= TOL


@pytest.mark.parametrize("c, d", _random_maps())
def test_the_split_of_a_random_map_matches_the_kraus_list_split(c, d):
    _check_split(c, d)


@pytest.mark.parametrize("state, side", CASES)
def test_the_split_of_a_witness_map_matches_the_kraus_list_split(state, side, monkeypatch):
    c, d = _witness_map(state, side, monkeypatch)
    _check_split(c, d)


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
