"""One Hermitian eigen-split behind Kraus forms, conjugation terms and the channel-difference slack.

``choi_to_kraus``, ``conjugation_decomposition`` and ``schur_channel`` read
one eigendecomposition of a Choi matrix's Hermitian part, and
``decompose_channel_difference`` reads both alpha and the slack from one
eigendecomposition of p, so the slack's zero eigenvalue is exactly 0 and
the witness channels do not move with rounding.
"""

import math

import numpy as np
import pytest

from aapt import (
    HermitianPreservingMap,
    TransferMatrix,
    choi_to_kraus,
    choi_to_transfer,
    conjugation_decomposition,
    decompose_channel_difference,
    faithfulness_witness,
    random_cptp,
    random_density,
    schur_channel,
)
from aapt.linalg import unvec

from helpers import random_complex
from test_witness_stability import CASES, _perturbed

SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (4, 1), (1, 4), (3, 3)]


def _reference_terms(c, dim_in, dim_out):
    """Per-eigenvector loop: eigenvalues of the Hermitian part, largest first, each with its unstacked eigenvector."""
    w, q = np.linalg.eigh((c + c.conj().T) / 2)
    return [(w[i], unvec(q[:, i], (dim_out, dim_in))) for i in reversed(range(w.size))]


def _reference_kraus(c, dim_in, dim_out):
    terms = _reference_terms(c, dim_in, dim_out)
    keep = 1e-12 * dim_in * dim_out * max(1.0, max(abs(lam) for lam, _ in terms))
    return [math.sqrt(lam) * v for lam, v in terms if lam > keep]


def _random_psd(n, rank, seed):
    z = random_complex((n, rank), seed)
    return z @ z.conj().T


def _random_hermitian(n, seed):
    z = random_complex((n, n), seed)
    return (z + z.conj().T) / 2


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dim_in, dim_out", SHAPES)
def test_choi_to_kraus_matches_the_per_eigenvector_loop(dim_in, dim_out):
    n = dim_in * dim_out
    for k, rank in enumerate(sorted({1, max(1, n // 2), n})):
        c = _random_psd(n, rank, 7000 + 10 * n + k)
        _assert_same_arrays(choi_to_kraus(c, dim_in, dim_out), _reference_kraus(c, dim_in, dim_out))


@pytest.mark.parametrize("dim_in, dim_out", SHAPES)
def test_conjugation_terms_match_the_per_eigenvector_loop(dim_in, dim_out):
    n = dim_in * dim_out
    for k in range(3):
        c = _random_hermitian(n, 7100 + 10 * n + k)
        if k == 2:
            c = c @ c  # PSD, one more sign pattern
        hp = HermitianPreservingMap(TransferMatrix(dim_in, dim_out, choi_to_transfer(c, dim_in, dim_out)))
        ref = _reference_terms(hp.transfer.choi(), dim_in, dim_out)
        cutoff = 1e-12 * max(abs(lam) for lam, _ in ref)
        ref = [(lam, v) for lam, v in ref if abs(lam) > cutoff]
        got = conjugation_decomposition(hp)
        assert [lam for lam, _ in got] == [float(lam) for lam, _ in ref]
        _assert_same_arrays([v for _, v in got], [v for _, v in ref])


def _old_schur_choi(corr):
    w, q = np.linalg.eigh((corr + corr.conj().T) / 2)
    keep = 1e-12 * corr.shape[0] * max(1.0, float(w.max()))
    ops = [math.sqrt(w[i]) * np.diag(q[:, i]) for i in range(w.size) if w[i] > keep]
    return sum(np.outer(k.reshape(-1, order="F"), k.reshape(-1, order="F").conj()) for k in ops)


@pytest.mark.parametrize("d, rank", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 3)])
def test_schur_channel_matches_the_diagonal_construction(d, rank):
    w = random_density(d, rank, seed=7200 + d)
    s = np.sqrt(np.diag(w).real)
    corr = w / np.outer(s, s)
    ch = schur_channel(corr)
    assert ch.kind == "kraus"
    assert all(np.array_equal(k, np.diag(np.diag(k))) for k in ch.kraus())
    assert np.linalg.norm(ch.choi() - _old_schur_choi(corr)) <= 1e-14


def test_schur_channel_refuses_non_psd_with_the_kraus_message():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        schur_channel(np.array([[1.0, 3.0], [3.0, 1.0]]))


@pytest.mark.parametrize("state, side", CASES)
def test_witness_channels_are_stable_under_a_rounding_level_perturbation(state, side):
    want = faithfulness_witness(state, side)
    for seed in (1, 2):
        got = faithfulness_witness(_perturbed(state, seed), side)
        assert np.linalg.norm(got.k0.choi() - want.k0.choi()) <= 1e-12
        assert np.linalg.norm(got.k1.choi() - want.k1.choi()) <= 1e-12


def _split(t, d):
    return decompose_channel_difference(HermitianPreservingMap(TransferMatrix(d, d, t), trace_annihilating=True))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_decompose_is_stable_under_a_rounding_level_change(d):
    t = random_cptp(d, 2, 30 + d).transfer() - random_cptp(d, 3, 40 + d).transfer()
    kick = random_cptp(d, 2, 50 + d).transfer() - random_cptp(d, 1, 60 + d).transfer()
    alpha, k0, k1 = _split(t, d)
    alpha_kicked, k0_kicked, k1_kicked = _split(t + 1e-15 * kick, d)
    assert abs(alpha_kicked - alpha) <= 1e-12
    assert np.linalg.norm(k0_kicked.choi() - k0.choi()) <= 1e-12
    assert np.linalg.norm(k1_kicked.choi() - k1.choi()) <= 1e-12

