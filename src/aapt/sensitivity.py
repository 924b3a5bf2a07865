"""Commutant-based sensitivity certificates and PC-Q measurement extraction.

A bipartite state is sensitive on A when no channel in the class of interest
other than the identity leaves it fixed.  For unitary operations and for
unital channels this reduces to one linear-algebra question: the local
commutant

    { M on A : [M (x) 1_B, rho] = 0 }

must contain only multiples of the identity.  A unital channel fixes a state
exactly when all of its Kraus operators commute with it, and any non-scalar
commuting operator yields, through the spectral projectors of its Hermitian
or anti-Hermitian part, a nontrivial projective measurement on A that leaves
the state unperturbed (the state is then "partially classical-quantum").
Both certified classes therefore share one verdict, the nullity of the
commutator map, and when the nullity exceeds one the unperturbing measurement
is constructed explicitly.

The nullity is read from the state's own operator space.  One SVD of the
reshuffled ``d_A^2 x d_B^2`` matrix (the state's B -> A map, reshuffled
from the already-checked state matrix as a bare array) gives the
operator-Schmidt form
rho = sum_k s_k A_k (x) B_k with the B_k Hilbert-Schmidt orthonormal, so

    ||[M (x) 1, rho]||^2 = sum_k s_k^2 ||[M, A_k]||^2

and the stack of the ``s_k ad(A_k)`` has exactly the singular values of the
``n^2 x d_A^2`` commutator matrix K with only ``r d_A^2`` rows, r the
operator-Schmidt rank.  K is the same stack over the matrix units of B
(rows reordered), so one builder serves both.  The stack replaces K when
r < d_B^2; otherwise it would be no smaller, and K itself is decomposed.
Terms are dropped only at s_k <= 1e-13 s_0, and a check after the SVD
keeps the stack only when the dropped terms move K's singular values by at
most 1e-3 of the rank tolerance; otherwise K is decomposed after all.  That check also sends a K
that vanishes exactly (rho = 1/d_A (x) sigma) back to K: the stack's own
rounding then sets its tolerance, and the dropped rounding-level terms
exceed a thousandth of it.  The tolerance is always computed with K's
shape, so the rank cut is the same on either route.

At full Schmidt rank (r = d_B^2 >= 2) a cheaper certificate comes first.
The two-term sub-stack of s_1 ad(A_1) and s_2 ad(A_2) consists of rows of
K up to a unitary, so by row interlacing its second smallest singular value
is at most K's, and ad(A) maps the identity to exactly zero.  With the cut
max(max(n^2, d_A^2) 2 ||rho||_F 1e-12, tol), no lower than K's own since
||K|| <= 2 ||rho||_F, a second smallest singular value above ten times the
cut certifies nullity 1 from the sub-stack's singular values alone; the
certificate is marked ``substack_bound`` and its documents say
``"evidence": "substack_bound"``.  The factor ten keeps K's own gap ratio
above the CLI's ambiguity limit, so exit codes do not move.  A skip test
saves the SVD when it cannot succeed: Courant-Fischer on span{1, M}, M the
traceless part of A_1, bounds the value by s_2 ||[M, A_2]|| / ||M||, which
vanishes for commuting Schmidt operators (classical-quantum probes).
Otherwise, and for every non-sensitive probe, K is decomposed.

The PC-Q measurement comes from one fixed generic Hermitian weight W: its
orthogonal projection onto the commutant, with the trace removed, is a
Hermitian commutant element whose spectral projectors give the measurement.
The projection depends on the commutant only as a subspace, not on the
basis that spans it, so both routes yield the same projectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import act_on_first, choi_to_transfer, kraus_to_transfer
from .linalg import (
    AMBIGUOUS_GAP_RATIO,
    RankEvidence,
    _svd_nullspace,
    as_operator,
    check_tol,
    default_rank_tol,
    read_only,
    unvec,
    vec,
    weight_in_span,
)
from .states import BipartiteState, orient

CHANNEL_CLASSES = ("unitary", "unital")
PCQ_TOL = 1e-10
PROJECTOR_TOL = 1e-10
EIGENVALUE_CLUSTER_RTOL = 1e-8
SCHMIDT_DROP_RTOL = 1e-13
DROPPED_MASS_RTOL = 1e-3


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal basis of the local commutant of a state.

    ``elements`` are Hilbert-Schmidt orthonormal operators on the selected
    side spanning the null space of M -> [M (x) 1, rho]; the scaled identity
    always lies in their span, so ``nullity >= 1``.  ``evidence`` is the
    rank decision the null space was cut at.
    """

    side: str
    elements: tuple[np.ndarray, ...]
    evidence: RankEvidence

    @property
    def nullity(self) -> int:
        return len(self.elements)

    @property
    def tol(self) -> float:
        return self.evidence.tol


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete family of mutually orthogonal Hermitian projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_operator(p) for p in self.projectors)
        if not ops:
            raise ValueError("a measurement needs at least one projector")
        d = ops[0].shape[0]
        # projectors are checked in order, each for dimension, Hermiticity and idempotence, and the
        # first failure raises; the stack holds those before the first one of another dimension
        same = next((i for i, p in enumerate(ops) if p.shape != (d, d)), len(ops))
        stack = np.stack(ops[:same]) if same else np.zeros((0, d, d), dtype=complex)
        # every tolerance comparison with NaN is False, so non-finite entries are refused first
        if not np.isfinite(stack).all():
            raise ValueError("projectors have non-finite entries (NaN or inf)")
        skew = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2)) > PROJECTOR_TOL
        off = np.linalg.norm(stack @ stack - stack, axis=(1, 2)) > PROJECTOR_TOL
        for not_hermitian, not_idempotent in zip(skew, off):
            if not_hermitian:
                raise ValueError("projectors must be Hermitian")
            if not_idempotent:
                raise ValueError("projectors must be idempotent")
        if same < len(ops):
            raise ValueError("all projectors must share one dimension")
        if np.linalg.norm(stack.sum(axis=0) - np.eye(d)) > PROJECTOR_TOL:
            raise ValueError("projectors must resolve the identity")
        for i in range(len(ops) - 1):
            if np.any(np.linalg.norm(stack[i] @ stack[i + 1 :], axis=(1, 2)) > PROJECTOR_TOL):
                raise ValueError("projectors must be mutually orthogonal")
        object.__setattr__(self, "projectors", tuple(read_only(p) for p in ops))

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class SensitivityCertificate:
    """Verdict on whether any nontrivial channel of the class fixes the state.

    ``sensitive`` holds exactly when the commutant nullity is 1.  For a
    non-sensitive state, ``pcq_measurement`` carries a nontrivial projective
    measurement that leaves the state unperturbed.  ``substack_bound`` marks
    evidence from the two-term sub-stack: its ``smallest_kept`` is a lower
    bound on the second smallest singular value of K, and only the exact
    null direction, the identity, lies below the cut.
    """

    sensitive: bool
    side: str
    channel_class: str
    nullity: int
    pcq_measurement: ProjectiveMeasurement | None
    evidence: RankEvidence
    substack_bound: bool


def _commutator_matrix(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Matrix of M -> (M (x) 1) rho - rho (M (x) 1) over vectorized M.

    Column ``c * da + r`` is vec of the commutator with the matrix unit E_rc.
    vec stacks columns, so a row index splits as ``(a', b', a, b)`` for the
    commutator entry at row ``(a, b)``, column ``(a', b')``.  Writing
    rho = sum_{b, b'} rho_{bb'} (x) |b><b'| over the matrix units of B, the
    commutator with M (x) 1 is sum [M, rho_{bb'}] (x) |b><b'|, so K is
    :func:`_adjoint_stack` of the blocks rho_{bb'} with its rows permuted
    into that order.
    """
    da, db = dims
    blocks = rho.reshape(da, db, da, db).transpose(0, 2, 3, 1).reshape(da * da, db * db)  # (a, a'), (b', b)
    k = _adjoint_stack(blocks, da).reshape(db, db, da, da, da, da)  # (b', b, i, j, p, q)
    return k.transpose(3, 0, 2, 1, 5, 4).reshape(-1, da * da)


def _schmidt_terms(work: BipartiteState) -> tuple[np.ndarray, float]:
    """Operator-Schmidt terms of the state kept for the stack, and how far the rest can move K.

    Column k of the first result is s_k times the k-th left singular vector
    of the reshuffled matrix, whose rows index (a', a): read row-major it is
    s_k A_k^T.  Terms at s_k <= 1e-13 s_0 are dropped.  ||ad(A)|| <= 2 for
    ||A||_F = 1, so the dropped terms move K's singular values by at most
    twice their norm.
    """
    u, s, _ = np.linalg.svd(choi_to_transfer(work.matrix, *work.dims).T, full_matrices=False)
    r = int((s > SCHMIDT_DROP_RTOL * s[0]).sum())
    return u[:, :r] * s[:r], 2.0 * float(np.linalg.norm(s[r:]))


def _adjoint_stack(weighted: np.ndarray, d: int) -> np.ndarray:
    """Rows of s_k ad(A_k) = s_k (1 (x) A_k - A_k^T (x) 1) over vectorized M, stacked over k.

    Block k, row (i, j), column (p, q) holds delta_ip A_k[j, q] - A_k[p, i] delta_jq.
    The entries are placed by slice assignment; an ``einsum`` against the
    identity gives the same bytes but multiplies out every zero.
    """
    at = weighted.T.reshape(-1, d, d)  # (k, p, q) = s_k A_k[q, p]
    out = np.zeros((at.shape[0], d, d, d, d), dtype=complex)  # (k, i, j, p, q)
    units = np.arange(d)
    out[:, units, :, units, :] = at.transpose(0, 2, 1)[None]
    out[:, :, units, :, units] -= at[None]
    return out.reshape(-1, d * d)


def _substack_evidence(weighted: np.ndarray, d: int, cut: float) -> RankEvidence | None:
    """Evidence that K has nullity exactly 1, from its two largest Schmidt terms, or None.

    The sub-stack's second smallest singular value is a lower bound on K's
    and must exceed ``AMBIGUOUS_GAP_RATIO * cut``, so that K's own gap
    ratio clears the limit the CLI treats as ambiguous; the Courant-Fischer
    bound on it is checked first, so the SVD is skipped when it cannot
    succeed.
    """
    a1, a2 = weighted[:, :2].T.reshape(2, d, d)  # s_k A_k^T
    m = a1 - (np.trace(a1) / d) * np.eye(d)
    if np.linalg.norm(m @ a2 - a2 @ m) <= AMBIGUOUS_GAP_RATIO * cut * np.linalg.norm(m):
        return None
    s = np.linalg.svd(_adjoint_stack(weighted[:, :2], d), compute_uv=False)
    if s[-2] <= AMBIGUOUS_GAP_RATIO * cut:
        return None
    return RankEvidence(d * d - 1, float(s[-2]), 0.0, cut)


def _commutant_nullspace(work: BipartiteState, tol: float) -> tuple[RankEvidence, np.ndarray, bool]:
    """Rank evidence and null vectors of K, and whether the sub-stack bound decided them.

    The operator-Schmidt stack replaces K when it is smaller; at full
    Schmidt rank the sub-stack bound is tried at a cut no lower than K's,
    since ||K|| <= 2 ||rho||_F.
    """
    check_tol(tol)
    da, db = work.dims
    shape = ((da * db) ** 2, da * da)
    weighted, moved = _schmidt_terms(work)
    if weighted.shape[1] < db * db:
        ev, null_vectors = _svd_nullspace(_adjoint_stack(weighted, da), tol, shape)
        if moved <= DROPPED_MASS_RTOL * ev.tol:
            return ev, null_vectors, False
    elif weighted.shape[1] >= 2:  # r = d_B^2 >= 2, so d_A >= d_B >= 2
        cut = max(default_rank_tol(shape, 2.0 * float(np.linalg.norm(work.matrix))), tol)
        ev = _substack_evidence(weighted, da, cut)
        if ev is not None:
            return ev, vec(np.eye(da))[:, None] / math.sqrt(da), True
    return (*_svd_nullspace(_commutator_matrix(work.matrix, work.dims), tol), False)


def _commutant(state: BipartiteState, side: str, tol: float) -> tuple[CommutantBasis, bool]:
    """The commutant basis, and whether the sub-stack bound decided it."""
    work = orient(state, side)
    ev, null_vectors, bound = _commutant_nullspace(work, tol)
    d = work.dim_a
    elements = tuple(unvec(null_vectors[:, i], (d, d)) for i in range(null_vectors.shape[1]))
    return CommutantBasis(side=side, elements=elements, evidence=ev), bound


def commutant_basis(state: BipartiteState, side: str = "A", tol: float = 0.0) -> CommutantBasis:
    """Null space of the local commutator map, as operators on the chosen side."""
    return _commutant(state, side, tol)[0]


def _nonscalar_hermitian(elements: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """A traceless Hermitian operator in the commutant span, independent of the spanning basis.

    The fixed weight of :func:`aapt.linalg.weight_in_span`, projected onto
    the span with its trace removed.  The commutant of a Hermitian state is
    closed under adjoints, so the projection is Hermitian up to rounding.
    """
    return weight_in_span(np.stack(elements), d, traceless=True)


def _eigenprojectors(h: np.ndarray) -> list[np.ndarray]:
    """Spectral projectors of a Hermitian matrix with eigenvalue clustering.

    Eigenvalues closer than 1e-8 of the spectral range are merged into one
    projector, so numerically degenerate spectra do not fragment.
    """
    w, v = np.linalg.eigh(h)
    spread = float(w[-1] - w[0])
    if spread <= 0.0:
        raise ArithmeticError("operator is numerically scalar; no nontrivial spectral projectors exist")
    threshold = EIGENVALUE_CLUSTER_RTOL * spread
    projectors = []
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size or w[i] - w[i - 1] > threshold:
            block = v[:, start:i]
            projectors.append(block @ block.conj().T)
            start = i
    return projectors


def pcq_residual(state: BipartiteState, measurement: ProjectiveMeasurement, side: str = "A") -> float:
    """Frobenius distance between the state and its pinched version.

    Zero means the measurement observes the chosen side without perturbing
    the state at all.
    """
    work = orient(state, side)
    pinched = act_on_first(kraus_to_transfer(measurement.projectors), work.matrix, work.dims)
    return float(np.linalg.norm(pinched - work.matrix))


def _extract_from_basis(state: BipartiteState, side: str, basis: CommutantBasis) -> ProjectiveMeasurement | None:
    if basis.nullity <= 1:
        return None
    h = _nonscalar_hermitian(basis.elements, basis.elements[0].shape[0])
    measurement = ProjectiveMeasurement(tuple(_eigenprojectors(h)))
    if len(measurement) < 2:
        raise ArithmeticError("extracted measurement is trivial despite a nontrivial commutant")
    residual = pcq_residual(state, measurement, side)
    if residual > PCQ_TOL:
        raise ArithmeticError(
            f"extracted measurement perturbs the state (residual {residual:.3e} > {PCQ_TOL}); "
            "the commutant tolerance and the verification tolerance are inconsistent"
        )
    return measurement


def extract_pcq(state: BipartiteState, side: str = "A", tol: float = 0.0) -> ProjectiveMeasurement | None:
    """Nontrivial unperturbing measurement on one side, or None.

    Returns None exactly when the local commutant is trivial (the state is
    sensitive there).  Otherwise the returned projectors pinch the state to
    itself within 1e-10.
    """
    basis = commutant_basis(state, side, tol)
    return _extract_from_basis(state, side, basis)


def certify_sensitive(
    state: BipartiteState,
    side: str = "A",
    channel_class: str = "unital",
    tol: float = 0.0,
) -> SensitivityCertificate:
    """Certify sensitivity to unitary operations or to unital channels.

    The two classes are equivalent for this property, so both arguments run
    the same commutant computation; the class is recorded in the certificate
    to make the equivalence itself testable.
    """
    if channel_class not in CHANNEL_CLASSES:
        raise ValueError(f"channel class must be one of {CHANNEL_CLASSES}, got {channel_class!r}")
    basis, bound = _commutant(state, side, tol)
    sensitive = basis.nullity == 1
    measurement = None if sensitive else _extract_from_basis(state, side, basis)
    return SensitivityCertificate(
        sensitive=sensitive,
        side=side,
        channel_class=channel_class,
        nullity=basis.nullity,
        pcq_measurement=measurement,
        evidence=basis.evidence,
        substack_bound=bound,
    )


def certify_faithful_to_unitaries(state: BipartiteState, side: str = "A", tol: float = 0.0) -> SensitivityCertificate:
    """Faithfulness to unitary operations.

    Unitary operations form a group, and for a group faithfulness and
    sensitivity coincide (undo one channel with its inverse), so the verdict
    is the unitary-class sensitivity certificate.
    """
    return certify_sensitive(state, side, channel_class="unitary", tol=tol)


def commuting_unitary(h: np.ndarray, angle: float) -> np.ndarray:
    """exp(i * angle * h) for Hermitian h, via its eigendecomposition.

    When h lies in the commutant of a state, every such unitary fixes the
    state; this is the constructive half of the sensitivity verdict.
    """
    h = as_operator(h)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def nonscalar_commutant_element(basis: CommutantBasis, dim: int) -> np.ndarray:
    """Traceless Hermitian commutant element used for unitary construction."""
    if basis.nullity <= 1:
        raise ValueError("the commutant is trivial; only scalars commute")
    return _nonscalar_hermitian(basis.elements, dim)
