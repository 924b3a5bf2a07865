"""Kernels and checks against the per-operator reference loops.

``kraus_to_choi`` sums vec(K_i) vec(K_i)^dag as one stacked product, and
may differ from the loop sum only by rounding.  The ``ProjectiveMeasurement``
constructor checks a caller's projectors one at a time, and raises the
reference loop's first error.
"""

import numpy as np
import pytest

from aapt import ProjectiveMeasurement, haar_unitary, random_cptp, vec
from aapt.channels import kraus_to_choi
from aapt.sensitivity import PROJECTOR_TOL

from helpers import random_complex


def loop_choi(ops):
    n = vec(ops[0]).size
    out = np.zeros((n, n), dtype=complex)
    for k in ops:
        v = vec(k)
        out += np.outer(v, v.conj())
    return out


@pytest.mark.parametrize("ops", [
    random_cptp(3, 4, seed=7).kraus(),
    [random_complex((2, 3), 8 + i) for i in range(5)],
    [np.outer(q, q.conj()) for q in haar_unitary(12, 9).T],
])
def test_the_stacked_choi_matrix_is_the_loop_sum(ops):
    want = loop_choi(ops)
    got = kraus_to_choi(ops)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 8 * len(ops) * np.finfo(float).eps * np.max(np.abs(want))


def loop_check(ops):
    """The per-projector reference loop; returns its first error message or None."""
    d = ops[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for p in ops:
        if p.shape != (d, d):
            return "all projectors must share one dimension"
        if np.linalg.norm(p - p.conj().T) > PROJECTOR_TOL:
            return "projectors must be Hermitian"
        if np.linalg.norm(p @ p - p) > PROJECTOR_TOL:
            return "projectors must be idempotent"
        total += p
    if np.linalg.norm(total - np.eye(d)) > PROJECTOR_TOL:
        return "projectors must resolve the identity"
    for i, p in enumerate(ops):
        for q in ops[i + 1:]:
            if np.linalg.norm(p @ q) > PROJECTOR_TOL:
                return "projectors must be mutually orthogonal"
    return None


Q = haar_unitary(4, 11)
RANK1 = [np.outer(Q[:, i], Q[:, i].conj()) for i in range(4)]
NOT_HERMITIAN = RANK1[0] + 1e-6 * np.triu(np.ones((4, 4)), 1)
# within PROJECTOR_TOL of Hermitian, idempotent and complete, but ||P0 P1|| is about 1.07e-10
A, EPSILON = np.sqrt(5e-11), 4.5e-11
NEARLY_ORTHOGONAL = [np.array([[1.0, A], [A, 0.0]]), (1 - EPSILON) * np.eye(2) - np.array([[1.0, A], [A, 0.0]])]


def embedded_at_7_and_9(pair):
    """Twelve diagonal rank-one projectors, those at 7 and 9 replaced by ``pair`` acting on basis vectors 7 and 9."""
    ops = [np.diag(np.eye(12)[k]) for k in range(12)]
    for k, p in zip((7, 9), pair):
        ops[k] = np.zeros((12, 12))
        ops[k][np.ix_((7, 9), (7, 9))] = p
    return ops


FAMILIES = {
    "valid": RANK1,
    "valid_coarse": [RANK1[0] + RANK1[1], RANK1[2] + RANK1[3]],
    "wrong_dimension_first": [np.eye(3)[:, :2], np.eye(2)],
    "wrong_dimension_later": [RANK1[0], np.eye(3), 2 * RANK1[1]],
    "not_hermitian_before_wrong_dimension": [RANK1[0], NOT_HERMITIAN, np.eye(3)],
    "not_idempotent_before_not_hermitian": [2 * RANK1[0], NOT_HERMITIAN, RANK1[2]],
    "not_idempotent": [RANK1[0], RANK1[1], 2 * RANK1[2], RANK1[3]],
    "incomplete": RANK1[:3],
    "overlapping": [RANK1[0] + RANK1[1], RANK1[1] + RANK1[2], RANK1[3]],
    "with_a_zero_projector": [RANK1[0], RANK1[1] + RANK1[2], np.zeros((4, 4)), RANK1[3]],
    "nearly_orthogonal": NEARLY_ORTHOGONAL,
    "nearly_orthogonal_past_the_first_row": embedded_at_7_and_9(NEARLY_ORTHOGONAL),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_the_constructor_raises_the_first_error_of_the_reference_loop(name):
    ops = [np.asarray(p, dtype=complex) for p in FAMILIES[name]]
    want = loop_check(ops)
    if want is None:
        measurement = ProjectiveMeasurement(tuple(ops))
        assert all(np.array_equal(p, q) for p, q in zip(measurement.projectors, ops))
    else:
        with pytest.raises(ValueError, match=want):
            ProjectiveMeasurement(tuple(ops))
