"""Constructive certificates of non-faithfulness.

Any Hermitian-preserving map decomposes as a real combination of
conjugations, ``D = sum_i lambda_i V_i . V_i^dag`` with Hilbert-Schmidt
orthonormal V_i, by eigendecomposing its (Hermitian) Choi matrix.  When the
map additionally annihilates the trace, ``sum_i lambda_i V_i^dag V_i = 0``,
it can be rescaled into a difference of two genuine channels.  The split
works on the Choi matrix alone.  With h = (C + C^dag)/2 = Q diag(w) Q^dag,

    P+    = Q diag(max(w, 0)) Q^dag,   P- = P+ - h,
    p     = Tr_out(P+)^T = sum_{lambda_i >= 0} lambda_i V_i^dag V_i,
    alpha = || p ||_inf,   M = sqrt(alpha 1 - p),   S = vec(M) vec(M)^dag,
    K0    = (P+ + S) / alpha,   K1 = (P- + S) / alpha,

as Choi matrices, with D = alpha (K0 - K1).  P+, P- and S are PSD, and both
channels are trace preserving because Tr_out h = 0.  p is eigendecomposed
once, p = U diag(v) U^dag, and both alpha = max v and M = U diag(sqrt(alpha
- v)) U^dag are read from it, so the zero eigenvalue of alpha 1 - p is
exactly 0 and the channels carry no sqrt(eps) rounding noise from the square
root of a singular matrix.

For a state that fails the faithfulness rank test this turns the rank
deficiency into a concrete pair of channels, read from the same decision the
certificate makes: the null space of the conjugate of the certificate's
matrix, cut at the certificate's tolerance, spans the operators orthogonal
to the image of the state's B -> A map.  E is the Hermitian projection onto
that span of one fixed generic weight (the one the PC-Q measurement also
uses), G the traceless part of E, and the map D(X) = <E, X> G, whose Choi
matrix is E^T (x) G, is split.  The span is fixed by the rank decision
alone, so E, G and D do not depend on which basis the null-space rule
returns for a degenerate cokernel.  The resulting channels differ (their
Choi matrices are far apart) yet produce identical outputs on the probe,
which is exactly the information the probe cannot see.

The witness map needs no eigendecomposition of its d^2 x d^2 Choi matrix.
G is E minus a multiple of the identity, so one eigendecomposition
E = A diag(lambda) A^dag diagonalizes both, with G = A diag(mu) A^dag.  The
eigenpairs of E^T (x) G are products of theirs, so with X+ and X- the
spectral positive and negative parts (X = X+ - X-, both PSD),

    P+    = E+^T (x) G+ + E-^T (x) G-,   P- = E+^T (x) G- + E-^T (x) G+,
    p     = Tr_out(P+)^T = t E+ + t E- = t |E|,   t = Tr G+ = Tr G-,
    alpha = t max |lambda_i|,

where Tr G+ = Tr G- because G is traceless.  p is diagonal in A with
eigenvalues t |lambda_i|, so the slack operator is read from A as well.
:func:`decompose_channel_difference` splits an arbitrary map and keeps the
general route above; both routes hand (P+, P-, the eigenvalues of p in
ascending order, its eigenvectors) to one alpha/slack step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _eigen_terms, _reshuffle, act_on_first
from .duality import TransferMatrix, _decide_faithful
from .linalg import AMBIGUOUS_GAP_RATIO, _svd_nullspace, _trace_out, vec, weight_in_span
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


def _alpha_and_slack(positive, negative, v, u) -> tuple[float, np.ndarray, np.ndarray]:
    """alpha and the Choi matrices of K0 and K1 from P+, P- and p = u diag(v) u^dag, v ascending."""
    alpha = float(v[-1])
    if alpha <= 0.0:
        raise ValueError("the zero map has no channel-difference decomposition")
    # alpha 1 - p shares p's eigenvectors, and its zero eigenvalue alpha - v[-1] is exactly 0
    slack = vec((u * np.sqrt(alpha - v)) @ u.conj().T)
    s = np.outer(slack, slack.conj())
    return alpha, (positive + s) / alpha, (negative + s) / alpha


def _channel_pair(c: np.ndarray, d: int) -> tuple[float, np.ndarray, np.ndarray]:
    """alpha and the Choi matrices of K0 and K1 for the trace-annihilating d -> d map with Choi matrix ``c``."""
    h = (c + c.conj().T) / 2
    w, q = np.linalg.eigh(h)
    positive = (q * np.maximum(w, 0.0)) @ q.conj().T
    return _alpha_and_slack(positive, positive - h, *np.linalg.eigh(_trace_out(positive, (d, d), "B").T))


def _witness_pair(e_op: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The split of D(X) = <E, X> G, G the normalized traceless part of the Hermitian E, from one eigh of E."""
    d = e_op.shape[0]
    lam, a = np.linalg.eigh(e_op)
    mu = lam - lam.mean()
    mu = mu / np.linalg.norm(mu)
    # E+, E-, G+, G-, all diagonal in A
    parts = (a * np.maximum(np.stack([lam, -lam, mu, -mu]), 0.0)[:, None, :]) @ a.conj().T
    # sum over s of E_s^T[i, j] G[k, l], pairing E+, E- with G+, G- for P+ and with G-, G+ for P-, in one product
    products = parts[:2].transpose(0, 2, 1).reshape(2, d * d).T @ parts[[2, 3, 3, 2]].reshape(2, 2 * d * d)
    positive, negative = products.reshape(d, d, 2, d, d).transpose(2, 0, 3, 1, 4).reshape(2, d * d, d * d)
    t = np.maximum(mu, 0.0).sum()  # Tr G+ = Tr G-, as G is traceless
    order = np.argsort(np.abs(lam))  # p = t |E| has eigenvalues t |lambda_i| on A's columns
    return _alpha_and_slack(positive, negative, t * np.abs(lam[order]), a[:, order])


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
    alpha, c0, c1 = _channel_pair(m.transfer.choi(), d)
    return alpha, Channel.from_choi(c0, d, d), Channel.from_choi(c1, d, d)


def mix_with_identity(channel: Channel, eps: float) -> Channel:
    """Convex mixture (1 - eps) * channel + eps * identity, as one sum of Choi matrices."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("mixing weight must lie in [0, 1)")
    if channel.dim_in != channel.dim_out:
        raise ValueError("only square channels can be mixed with the identity")
    d = channel.dim_in
    return Channel.from_choi((1.0 - eps) * channel.choi() + eps * Channel.identity(d).choi(), d, d)


def faithfulness_witness(state: BipartiteState, side: str = "A", tol: float = 0.0) -> WitnessPair | None:
    """Explicit channel pair a non-faithful probe cannot distinguish.

    Returns None exactly when :func:`certify_faithful` holds on the chosen
    side, since both read the same rank decision.  Otherwise the null space
    of the conjugate of the matrix that decision was read from, cut by
    :func:`aapt.linalg.rank_and_nullspace`'s rule at the certificate's own
    tolerance, spans the operators orthogonal to the image of the probe's
    map into that side.  E is the projection onto that span of the fixed
    Hermitian weight the PC-Q measurement also uses (see
    :func:`aapt.linalg.weight_in_span`), normalized, and G its traceless
    part, normalized; the Choi matrix E^T (x) G of D(X) = <E, X> G is split
    into channels in closed form, from one eigendecomposition of the
    d x d matrix E (see the module docstring).  D kills the whole image, so
    the two channels agree on the probe; their Choi matrices are E^T (x) G
    apart (scaled by 1/alpha), which keeps the channel gap macroscopic.  Both gaps are checked on the
    bare Choi matrices before each is wrapped, once, in its ``Channel``.
    The state is support-restricted first, matching the certificate; the
    returned channels act on the restricted side.  Only a side whose
    marginal is rank deficient is compressed onto its support, so whenever
    the measured side's marginal is full rank the channels act in the
    caller's basis and agree on the caller's probe.  A cut whose gap ratio is
    below 10, which ``aapt certify`` calls undecided, is refused with
    ArithmeticError rather than given a pair.
    """
    cert, work, matrix = _decide_faithful(state, side, tol)
    ratio = cert.evidence.gap_ratio  # inf for a faithful cut, which drops no singular value
    if ratio < AMBIGUOUS_GAP_RATIO:
        raise ArithmeticError(f"ambiguous rank decision: gap ratio {ratio:.3g} < {AMBIGUOUS_GAP_RATIO:g}")
    if cert.faithful:
        return None
    da = work.dim_a
    # null(conj M) is the complement of the image of M^T, the B -> A map; cut where the certificate cut M
    _, null = _svd_nullspace(matrix.conj(), cert.evidence.tol)
    e_op = weight_in_span(null.T.reshape(-1, da, da).transpose(0, 2, 1), da)  # each column unstacked, as unvec does
    # E is orthogonal to the marginal, which lies in the image, so ||G|| >= 1/sqrt(da + 1)
    alpha, c0, c1 = _witness_pair(e_op / np.linalg.norm(e_op))
    gap = c0 - c1
    output_gap = float(np.linalg.norm(act_on_first(_reshuffle(gap, da, da, "transfer"), work.matrix, work.dims)))
    channel_gap = float(np.linalg.norm(gap))
    if output_gap > OUTPUT_GAP_TOL:
        raise ArithmeticError(f"witness channels separate the probe outputs by {output_gap:.3e}; construction failed")
    if channel_gap < CHANNEL_GAP_MIN:
        raise ArithmeticError(f"witness channels are numerically identical (Choi gap {channel_gap:.3e})")
    k0, k1 = Channel.from_choi(c0, da, da), Channel.from_choi(c1, da, da)
    return WitnessPair(k0=k0, k1=k1, alpha=alpha, output_gap=output_gap, channel_gap=channel_gap, side=side)
