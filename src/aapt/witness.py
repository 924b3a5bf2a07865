"""Constructive certificates of non-faithfulness.

Any Hermitian-preserving map decomposes as a real combination of
conjugations, ``D = sum_i lambda_i V_i . V_i^dag`` with Hilbert-Schmidt
orthonormal V_i, by eigendecomposing its (Hermitian) Choi matrix.  When the
map additionally annihilates the trace, ``sum_i lambda_i V_i^dag V_i = 0``,
it can be rescaled into a difference of two genuine channels:

    alpha = || sum_{lambda_i >= 0} lambda_i V_i^dag V_i ||_inf,
    M     = sqrt(alpha 1 - sum_{lambda_i >= 0} lambda_i V_i^dag V_i),
    K0    = Kraus { sqrt(lambda_i / alpha) V_i : lambda_i >= 0 } u { M / sqrt(alpha) },
    K1    = Kraus { sqrt(-lambda_i / alpha) V_i : lambda_i < 0 } u { M / sqrt(alpha) },

with D = alpha (K0 - K1).  The sums run over one eigendecomposition of the
Choi matrix, shared with :func:`aapt.channels.choi_to_kraus`.  The positive
part p = sum_{lambda_i >= 0} lambda_i V_i^dag V_i is eigendecomposed once,
p = U diag(w) U^dag, and both alpha = max w and M = U diag(sqrt(alpha - w))
U^dag are read from it, so the zero eigenvalue of alpha 1 - p is exactly 0
and the channels carry no sqrt(eps) rounding noise from the square root of a
singular matrix.

For a state that fails the faithfulness rank test this turns the rank
deficiency into a concrete pair of channels, read from the same decision the
certificate makes: the right singular vectors past the certificate's rank
span the operators orthogonal to the image of the state's B -> A map.  E is
the Hermitian projection onto that span of one fixed generic weight (the one
the PC-Q measurement also uses), G the traceless part of E, and
D(X) = <E, X> G is decomposed.  The span is fixed by the rank decision
alone, so E, G and D do not depend on which basis the SVD returns for a
degenerate cokernel.  The resulting channels differ (their Choi matrices are
far apart) yet produce identical outputs on the probe, which is exactly the
information the probe cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, _eigen_terms, apply_on_A
from .duality import TransferMatrix, _decide_faithful
from .linalg import unvec, vec, weight_in_span
from .states import BipartiteState

TRACE_ANNIHILATION_TOL = 1e-10
TERM_DROP_RTOL = 1e-12
OUTPUT_GAP_TOL = 1e-9
CHANNEL_GAP_MIN = 1e-3


@dataclass(frozen=True)
class HermitianPreservingMap:
    """A linear map on operator space that sends Hermitian to Hermitian.

    Hermiticity preservation is validated through the Choi matrix of
    ``transfer``, which also carries the map's dimensions.  With
    ``trace_annihilating=True`` the map must also send everything to
    traceless operators, i.e. its adjoint must kill the identity; that is
    the precondition :func:`decompose_channel_difference` checks itself.
    """

    transfer: TransferMatrix
    trace_annihilating: bool = False

    def __post_init__(self):
        if not self.transfer.is_hermitian_preserving():
            raise ValueError("map is not Hermitian preserving (its Choi matrix is not Hermitian)")
        if self.trace_annihilating:
            _check_trace_annihilating(self)

    def apply(self, m) -> np.ndarray:
        return self.transfer.apply(m)


def _check_trace_annihilating(m: HermitianPreservingMap) -> None:
    t = m.transfer
    # the adjoint map applied to the identity, sum_i lambda_i V_i^dag V_i, as T^dag vec(1)
    residual = np.linalg.norm(t.matrix.conj().T @ vec(np.eye(t.dim_out, dtype=complex)))
    if residual > TRACE_ANNIHILATION_TOL * max(1.0, float(np.linalg.norm(t.matrix))):
        raise ValueError(f"map does not annihilate the trace (adjoint identity residual {residual:.3e})")


@dataclass(frozen=True)
class WitnessPair:
    """Two channels a non-faithful probe cannot tell apart.

    ``output_gap`` is the Frobenius distance of the two output states on the
    probe (guaranteed tiny) and ``channel_gap`` the Frobenius distance of the
    Choi matrices (guaranteed macroscopic); ``alpha`` rescales the difference
    back to the underlying Hermitian-preserving map.
    """

    k0: Channel
    k1: Channel
    alpha: float
    output_gap: float
    channel_gap: float
    side: str


def conjugation_decomposition(m: HermitianPreservingMap) -> list[tuple[float, np.ndarray]]:
    """Write the map as a real combination of conjugations.

    Returns ``(weight, V)`` pairs, weights descending, with Hilbert-Schmidt
    orthonormal V; terms with a weight below 1e-12 of the largest are
    dropped.  ``sum_i weight_i V_i X V_i^dag`` reproduces the map's action.
    """
    t = m.transfer
    w, ops = _eigen_terms(t.choi(), t.dim_in, t.dim_out)
    cutoff = TERM_DROP_RTOL * float(np.abs(w).max())
    return [(float(lam), v) for lam, v in zip(w, ops) if abs(lam) > cutoff]


def decompose_channel_difference(m: HermitianPreservingMap) -> tuple[float, Channel, Channel]:
    """Split a trace-annihilating Hermitian-preserving map into alpha * (K0 - K1).

    Both returned channels are CPTP by construction and
    ``alpha * (K0(X) - K1(X))`` reproduces the map on every operator.
    Raises ValueError for the zero map, for non-square maps, and when the
    trace-annihilation precondition fails.
    """
    d = m.transfer.dim_in
    if m.transfer.dim_out != d:
        raise ValueError("only square maps can be split into a channel difference")
    _check_trace_annihilating(m)
    terms = conjugation_decomposition(m)
    positive = [(lam, v) for lam, v in terms if lam >= 0]
    negative = [(lam, v) for lam, v in terms if lam < 0]
    p = np.zeros((d, d), dtype=complex)
    for lam, v in positive:
        p += lam * (v.conj().T @ v)
    w, u = np.linalg.eigh((p + p.conj().T) / 2)
    alpha = float(w[-1])
    if alpha <= 0.0:
        raise ValueError("the zero map has no channel-difference decomposition")
    # alpha 1 - p shares p's eigenvectors, and its zero eigenvalue alpha - w[-1] is exactly 0
    slack = (u * np.sqrt(alpha - w)) @ u.conj().T
    extra = [] if np.linalg.norm(slack) <= 1e-12 * math.sqrt(alpha * d) else [slack / math.sqrt(alpha)]
    k0_ops = [math.sqrt(lam / alpha) * v for lam, v in positive] + extra
    k1_ops = [math.sqrt(-lam / alpha) * v for lam, v in negative] + extra
    return alpha, Channel.from_kraus(k0_ops), Channel.from_kraus(k1_ops)


def mix_with_identity(channel: Channel, eps: float) -> Channel:
    """Convex mixture (1 - eps) * channel + eps * identity, in Kraus form."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("mixing weight must lie in [0, 1)")
    if channel.dim_in != channel.dim_out:
        raise ValueError("only square channels can be mixed with the identity")
    ops = [math.sqrt(1.0 - eps) * k for k in channel.kraus()]
    ops.append(math.sqrt(eps) * np.eye(channel.dim_in, dtype=complex))
    return Channel.from_kraus(ops)


def faithfulness_witness(state: BipartiteState, side: str = "A", tol: float = 0.0) -> WitnessPair | None:
    """Explicit channel pair a non-faithful probe cannot distinguish.

    Returns None exactly when :func:`certify_faithful` holds on the chosen
    side, since both read the same rank decision.  Otherwise the rows of
    ``vh`` past the certificate's rank, in the full SVD of the matrix that
    decision was read from, span the operators orthogonal to the image of
    the probe's map into that side.  E is the projection onto that span of
    the fixed Hermitian weight the PC-Q measurement also uses (see
    :func:`aapt.linalg.weight_in_span`), normalized, and G its traceless
    part, normalized; D(X) = <E, X> G is decomposed into channels.  D kills
    the whole image, so the two channels agree on the probe; their Choi
    matrices are E^T (x) G apart (scaled by 1/alpha), which keeps the
    channel gap macroscopic.  The state is support-restricted first,
    matching the certificate; the returned channels act on the restricted
    side.
    """
    cert, work, matrix = _decide_faithful(state, side, tol)
    if cert.faithful:
        return None
    da = work.dim_a
    _, _, vh = np.linalg.svd(matrix)
    e_op = weight_in_span(np.stack([unvec(row, (da, da)) for row in vh[cert.rank :]]), da)
    e_op = e_op / np.linalg.norm(e_op)
    # E is orthogonal to the marginal, which lies in the image, so ||G|| >= 1/sqrt(da + 1)
    g_op = e_op - (np.trace(e_op) / da) * np.eye(da)
    g_op = g_op / np.linalg.norm(g_op)
    t_d = np.outer(vec(g_op), vec(e_op.T))
    alpha, k0, k1 = decompose_channel_difference(HermitianPreservingMap(TransferMatrix(da, da, t_d)))
    out0 = apply_on_A(k0, work)
    out1 = apply_on_A(k1, work)
    output_gap = float(np.linalg.norm(out0.matrix - out1.matrix))
    channel_gap = float(np.linalg.norm(k0.choi() - k1.choi()))
    if output_gap > OUTPUT_GAP_TOL:
        raise ArithmeticError(f"witness channels separate the probe outputs by {output_gap:.3e}; construction failed")
    if channel_gap < CHANNEL_GAP_MIN:
        raise ArithmeticError(f"witness channels are numerically identical (Choi gap {channel_gap:.3e})")
    return WitnessPair(k0=k0, k1=k1, alpha=alpha, output_gap=output_gap, channel_gap=channel_gap, side=side)
