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

The nullity is the number of singular values of the ``n^2 x d_A^2``
commutator matrix K at or below the rank cut.  K itself is decomposed only
as a fallback; first the decision is read from one slice of the state,
H = Tr_B[(1 (x) Y) rho], with Y the fixed weight of
:func:`aapt.linalg.fixed_weight` on B scaled to ||Y||_F = 1.

* Compression.  Writing rho = sum_k A_k (x) B_k over a Hermitian basis B_k
  of B, [M, H] = sum_k <Y, B_k> [M, A_k], so by Cauchy-Schwarz
  ||[M, H]|| <= ||[M (x) 1, rho]||: ad(H) is a compression of K.
* Split.  With eigh(H) = U diag(lam) U^dag, neighbouring eigenvalues at
  most theta = sqrt(cut L) apart are grouped into clusters, where L = 2 ||rho||_F >=
  ||K||_2 and cut = max(max(n^2, d_A^2) L 1e-12, tol), no lower than K's
  own cut.  g is the smallest gap between clusters, less a rounding
  allowance 4 d_A eps max |lam|.  V is spanned by the u_i u_j^dag with i
  and j in one cluster, and ad(H) is at least g on its complement.
* Restricted matrix.  K on V is built in the frame (U (x) 1)^dag rho (U (x) 1).
  When every cluster is a single eigenvalue, V holds the u_a u_a^dag and K
  on V is an isometry times the incidence matrix of the complete graph on
  d_A vertices weighted by the norms of the off-diagonal blocks, one row
  per pair; otherwise its columns are built in full.  Its singular values
  s' come from an R-only SVD.  q of them are at most tol, or without tol
  at most the default cut of sigma_lo = ||K||_F / (d_A^2 - 1)^(1/2) <=
  ||K||_2, with ||K||_F^2 = 2 d_A ||rho||_F^2 - 2 ||rho_B||_F^2 in closed
  form (the largest s' when that is zero).
* Dropped side.  On the q null directions, which lie in V, K acts as on V,
  so by Courant-Fischer K has q singular values at most s'_q, the largest
  of those q values of s', and so below its own cut.
* Kept side.  For x orthogonal to them, with a part of norm t outside V,
  ||K x|| >= max(g t, beta (1 - t^2)^(1/2) - L t), beta the smallest kept
  s'.  Minimizing over t, sigma_{q+1}(K) >= g beta / ((g + L)^2 + beta^2)^(1/2),
  which is beta for one cluster and g when V is all null.

A bound above ten times the cut certifies nullity q: K's own gap ratio is
then above the CLI's ambiguity limit, so no exit code depends on the route.
The certificate records ``(d_A^2 - q, bound, s'_q, cut)`` and is marked
``slice_bound``; its sensitive documents say ``"evidence": "slice_bound"``.
For q = 1 the null direction is the scaled identity, which K maps to
exactly zero, so it is returned exactly with 0 as the largest dropped
value.  Neither K nor its restriction is ever squared into a Gram matrix,
which would lose the 1e-12 relative cut.  K, built by slice assignment from
the entries of rho and decomposed through the R factor of its QR
factorization, decides every other case: a
side of dimension one, a K that vanishes, a gap too close to the cut, or a
``tol`` within a factor of ten of the bound.

:func:`commutant_basis` holds this decision and records its route in
``slice_bound``.  :func:`certify_sensitive` adds the PC-Q evidence, and
:func:`extract_pcq` reads it from the certificate.  The PC-Q measurement
comes from one fixed generic Hermitian weight W: its orthogonal projection
onto the commutant, with the trace removed, is a Hermitian commutant element
whose spectral projectors give the measurement.  The projection depends on
the commutant only as a subspace, not on the basis that spans it, so both
routes yield the same projectors.  The measurement is built and checked in
the eigenbasis V of that element h: one ``eigh(h)`` is split into clusters,
each projector is the product of one cluster's block of V with its adjoint,
and in X = (V (x) 1)^dag rho (V (x) 1) pinching keeps the blocks X_ac with a
and c in one cluster, so the self-check reads the norm of the other blocks.
No array beyond m d_A^2 + n^2 entries is formed for m projectors.  The
blocks are disjoint column sets of one unitary V, so the projectors are
Hermitian, idempotent, complete and mutually orthogonal to rounding; the
measurement is assembled like a derived state, by ``linalg._assembled``,
without the constructor's check of a caller's projectors, and the state
residual is its one self-check.
:func:`pcq_residual` stays the public check for any measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    AMBIGUOUS_GAP_RATIO,
    RankEvidence,
    _assembled,
    _svd_nullspace,
    _trace_out,
    check_tol,
    checked_choice,
    checked_matrix,
    default_rank_tol,
    fixed_weight,
    read_only,
    weight_in_span,
)
from .states import BipartiteState, orient

CHANNEL_CLASSES = ("unitary", "unital")
PCQ_TOL = 1e-10
PROJECTOR_TOL = 1e-10
EIGENVALUE_CLUSTER_RTOL = 1e-8
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal basis of the local commutant of a state.

    ``elements`` are Hilbert-Schmidt orthonormal operators on the selected
    side spanning the null space of M -> [M (x) 1, rho]; the scaled identity
    always lies in their span, so ``nullity >= 1``.  ``evidence`` is the
    rank decision the null space was cut at, and ``slice_bound`` says how it
    reads: bounds from the slice of the state (see
    :class:`SensitivityCertificate`), or K's own singular values.
    """

    side: str
    elements: tuple[np.ndarray, ...]
    evidence: RankEvidence
    slice_bound: bool

    @property
    def nullity(self) -> int:
        return len(self.elements)

    @property
    def tol(self) -> float:
        return self.evidence.tol


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete family of mutually orthogonal Hermitian projectors.

    A caller's projectors are each read by the package's matrix rule (2-D,
    finite entries), then checked in order, each for its dimension,
    Hermiticity and idempotence; then their sum for the identity, and each
    P_i against every later P_j for orthogonality.  Every tolerance check
    holds to 1e-10.  A certificate's measurement is not checked here:
    its projectors are the cluster blocks of one eigenbasis, so these rules
    hold to rounding, and it is checked against its state in that basis.
    :func:`pcq_residual` is the check of any measurement against any state.
    """

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(checked_matrix(p, None, "projector") for p in self.projectors)
        if not ops:
            raise ValueError("a measurement needs at least one projector")
        d = ops[0].shape[0]
        for p in ops:
            if p.shape != (d, d):
                raise ValueError("all projectors must share one dimension")
            if np.linalg.norm(p - p.conj().T) > PROJECTOR_TOL:
                raise ValueError("projectors must be Hermitian")
            if np.linalg.norm(p @ p - p) > PROJECTOR_TOL:
                raise ValueError("projectors must be idempotent")
        if np.linalg.norm(sum(ops) - np.eye(d)) > PROJECTOR_TOL:
            raise ValueError("projectors must resolve the identity")
        if any(np.linalg.norm(p @ q) > PROJECTOR_TOL for i, p in enumerate(ops) for q in ops[i + 1 :]):
            raise ValueError("projectors must be mutually orthogonal")
        object.__setattr__(self, "projectors", tuple(read_only(p) for p in ops))

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class SensitivityCertificate:
    """Verdict on whether any nontrivial channel of the class fixes the state.

    ``sensitive`` holds exactly when the commutant nullity is 1.  For a
    non-sensitive state, ``pcq_measurement`` carries a nontrivial projective
    measurement that leaves the state unperturbed.  ``slice_bound`` marks
    evidence from the slice of the state: its ``smallest_kept`` is a lower
    bound on K's smallest kept singular value, its ``largest_dropped`` an
    upper bound on K's largest dropped one, and its ``tol`` a cut no lower
    than K's own.
    """

    sensitive: bool
    side: str
    channel_class: str
    nullity: int
    pcq_measurement: ProjectiveMeasurement | None
    evidence: RankEvidence
    slice_bound: bool


def _unit_commutators(rho: np.ndarray, dims: tuple[int, int], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns vec([E_ij (x) 1, rho]) for the matrix units E_ij of A, (i, j) = (rows[p], cols[p]).

    vec stacks columns, so a row index splits as ``(a', b', a, b)`` for the
    commutator entry at row ``(a, b)``, column ``(a', b')``: rows a = i carry
    rho's rows a = j, less rho's columns a' = i placed at a' = j.  The
    entries are placed by slice assignment, so each is a copy or a
    difference of two entries of rho, and the identity maps to exactly zero.
    """
    da, db = dims
    r4 = rho.reshape(da, db, da, db)
    p = np.arange(rows.size)
    out = np.zeros((rows.size, da, db, da, db), dtype=complex)  # (p, a', b', a, b)
    out[p, :, :, rows] = r4[cols].transpose(0, 2, 3, 1)
    out[p, cols] -= r4[:, :, rows].transpose(2, 3, 0, 1)
    return out.reshape(rows.size, -1).T


def _commutator_matrix(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Matrix K of M -> (M (x) 1) rho - rho (M (x) 1) over vectorized M; column ``c * da + r`` is for E_rc."""
    units = np.arange(dims[0] ** 2)
    return _unit_commutators(rho, dims, units % dims[0], units // dims[0])


def _clusters(w: list[float], gap: float) -> list[range]:
    """Index ranges of the ascending values ``w``, split wherever two neighbours differ by more than ``gap``."""
    cuts = [i for i in range(1, len(w)) if w[i] - w[i - 1] > gap]
    return [range(*r) for r in zip([0, *cuts], [*cuts, len(w)])]


@cache
def _complete_graph(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex pairs a < b of the complete graph on d vertices, and its incidence rows e_a - e_b."""
    a, b = np.triu_indices(d, 1)
    return tuple(read_only(x) for x in (a, b, np.eye(d, dtype=complex)[a] - np.eye(d)[b]))


def _rotate_first(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(U (x) 1)^dag rho (U (x) 1) for a square U on the first factor, by two products on its index."""
    da = u.shape[0]
    left = (u.conj().T @ rho.reshape(da, -1)).reshape(rho.shape)
    return (u.T @ left.T.reshape(da, -1)).reshape(rho.shape).T


def _block_norms(rotated: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The squared norms ||X_ac||^2 of the d_B x d_B blocks X_ac of a bipartite matrix, as a d_A x d_A array."""
    r4 = rotated.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("abcd,abcd->ac", r4, r4.conj()).real


def _restricted_commutator(rotated: np.ndarray, dims: tuple[int, int], ranges: list[range]) -> tuple[np.ndarray, tuple]:
    """A matrix with the singular values and right singular vectors of K on V, and the pairs spanning V.

    ``rotated`` is the state in the eigenbasis of the slice, whose clusters
    are the index ``ranges``; V is spanned by the u_i u_j^dag with i, j in
    one cluster.  When every cluster is a single eigenvalue, V holds the
    u_a u_a^dag alone, and the blocks (a, b) and (b, a) of the commutator
    are X_ab (c_a - c_b) and -X_ba (c_a - c_b), X the blocks of ``rotated``:
    K on V is an isometry times the incidence matrix of the complete graph
    weighted by (||X_ab||^2 + ||X_ba||^2)^(1/2), one row per pair.
    Otherwise K's columns for V are built in full.
    """
    da = dims[0]
    if len(ranges) == da:
        w2 = _block_norms(rotated, dims)
        a, b, incidence = _complete_graph(da)
        return incidence * np.sqrt(w2[a, b] + w2[b, a])[:, None], (np.arange(da),) * 2
    pairs = tuple(np.array([(i, j) for r in ranges for i in r for j in r]).T)
    return _unit_commutators(rotated, dims, *pairs), pairs


def _slice_nullspace(work: BipartiteState, tol: float, shape: tuple) -> tuple[RankEvidence, np.ndarray] | None:
    """Rank evidence and commutant elements certified in the eigenbasis of one slice of the state, or None.

    The slice H = Tr_B[(1 (x) Y) rho], Y the fixed weight on B at unit norm,
    has ||[M, H]|| <= ||K vec(M)||.  Its eigenvalues are split into clusters
    at gaps above sqrt(cut L); K is decomposed only on the span V of the
    u_i u_j^dag within one cluster, and ad(H) is at least g, the smallest gap
    between clusters, on the rest.  The module docstring derives the bound
    on K's kept singular values from the two.
    """
    da, db = work.dims
    if da == 1:
        return None
    rho = work.matrix
    norm2 = float(np.vdot(rho, rho).real)
    big = 2.0 * math.sqrt(norm2)  # L >= ||K||_2
    cut = max(default_rank_tol(shape, big), tol)
    y = fixed_weight(db)
    lam, u = np.linalg.eigh(np.einsum("acxb,bc->ax", rho.reshape(da, db, da, db), y))
    lam = (lam / math.sqrt(np.vdot(y, y).real)).tolist()
    ranges = _clusters(lam, math.sqrt(cut * big))
    gaps = [lam[r.start] - lam[r.start - 1] for r in ranges[1:]]
    g = min(gaps, default=math.inf) - 4 * da * EPS * max(-lam[0], lam[-1])  # less what rounding moves
    kv, pairs = _restricted_commutator(_rotate_first(rho, u), work.dims, ranges)
    # ||K||_F^2 = 2 d_A ||rho||_F^2 - 2 ||rho_B||_F^2, over at most d_A^2 - 1 nonzero singular values
    rho_b = _trace_out(rho, work.dims, "A")
    sigma_lo = math.sqrt(max(2 * da * norm2 - 2 * float(np.vdot(rho_b, rho_b).real), 0.0) / (da * da - 1))
    ev, null = _svd_nullspace(kv, tol or default_rank_tol(shape, sigma_lo), shape)
    q = null.shape[1]
    if q == da * da or g <= 0:  # K vanishes or no gap separates the clusters
        return None
    beta = ev.smallest_kept if ev.rank else math.inf
    bound = 1.0 / math.hypot((1.0 + big / g) / beta, 1.0 / g)  # g beta / sqrt((g + L)^2 + beta^2)
    if not bound > AMBIGUOUS_GAP_RATIO * cut:
        return None
    if q == 1:  # the scaled identity, which K maps to exactly zero
        return RankEvidence(da * da - 1, bound, 0.0, cut), np.eye(da, dtype=complex)[None] / math.sqrt(da)
    c = np.zeros((q, da, da), dtype=complex)
    c[:, pairs[0], pairs[1]] = null.T
    return RankEvidence(da * da - q, bound, ev.largest_dropped, cut), u @ c @ u.conj().T


def commutant_basis(state: BipartiteState, side: str = "A", tol: float = 0.0) -> CommutantBasis:
    """Null space of the local commutator map, as operators on the chosen side.

    The slice of the state decides it where its bound does, and K is
    decomposed otherwise; ``slice_bound`` records which of the two it was.
    """
    check_tol(tol)
    work = orient(state, side)
    da, db = work.dims
    found = _slice_nullspace(work, tol, ((da * db) ** 2, da * da))
    if found is not None:
        return CommutantBasis(side=side, elements=tuple(found[1]), evidence=found[0], slice_bound=True)
    ev, null = _svd_nullspace(_commutator_matrix(work.matrix, work.dims), tol)
    elements = tuple(null.T.reshape(-1, da, da).transpose(0, 2, 1))  # each column unstacked, as unvec does
    return CommutantBasis(side=side, elements=elements, evidence=ev, slice_bound=False)


def _nonscalar_hermitian(elements: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """A traceless Hermitian operator in the commutant span, independent of the spanning basis.

    The fixed weight of :func:`aapt.linalg.weight_in_span`, projected onto
    the span with its trace removed.  The commutant of a Hermitian state is
    closed under adjoints, so the projection is Hermitian up to rounding.
    """
    return weight_in_span(np.stack(elements), d, traceless=True)


def _eigensplit(h: np.ndarray) -> tuple[np.ndarray, list[range]]:
    """Eigenvectors of a Hermitian matrix and the index ranges of its eigenvalue clusters.

    Eigenvalues closer than 1e-8 of the spectral range share one cluster, so
    numerically degenerate spectra do not fragment; each cluster's columns
    span one spectral projector.  A range above 0 always gives at least two
    clusters: the d - 1 neighbouring gaps sum to it, so for d - 1 < 1e8 one
    of them exceeds 1e-8 of it, also where that cut underflows to 0.
    """
    w, v = np.linalg.eigh(h)
    spread = float(w[-1] - w[0])
    if spread <= 0.0:
        raise ArithmeticError("operator is numerically scalar; no nontrivial spectral projectors exist")
    return v, _clusters(w.tolist(), EIGENVALUE_CLUSTER_RTOL * spread)


def _split_residual(work: BipartiteState, v: np.ndarray, ranges: list[range]) -> float:
    """:func:`pcq_residual` of the spectral projectors of one split, read in its eigenbasis.

    With X = (V (x) 1)^dag rho (V (x) 1), pinching keeps the blocks X_ac
    with a and c in one cluster and zeroes the rest, so the distance is the
    norm of the blocks between clusters.
    """
    labels = np.repeat(np.arange(len(ranges)), [len(r) for r in ranges])
    norms = _block_norms(_rotate_first(work.matrix, v), work.dims)
    return math.sqrt(float(norms[labels[:, None] != labels].sum()))


def pcq_residual(state: BipartiteState, measurement: ProjectiveMeasurement, side: str = "A") -> float:
    """Frobenius distance between the state and its pinched version.

    Zero means the measurement observes the chosen side without perturbing
    the state at all.
    """
    work = orient(state, side)
    d = measurement.projectors[0].shape[0]
    if d != work.dim_a:
        raise ValueError(f"measurement acts on dimension {d}, but side {side} has dimension {work.dim_a}")
    pinched = sum(_rotate_first(work.matrix, p) for p in measurement.projectors)
    return float(np.linalg.norm(pinched - work.matrix))


def extract_pcq(state: BipartiteState, side: str = "A", tol: float = 0.0) -> ProjectiveMeasurement | None:
    """Nontrivial unperturbing measurement on one side, or None.

    Returns None exactly when the local commutant is trivial (the state is
    sensitive there).  Otherwise the returned projectors pinch the state to
    itself within 1e-10.  It reads them from :func:`certify_sensitive`.
    """
    return certify_sensitive(state, side, tol=tol).pcq_measurement


def certify_sensitive(
    state: BipartiteState,
    side: str = "A",
    channel_class: str = "unital",
    tol: float = 0.0,
) -> SensitivityCertificate:
    """Certify sensitivity to unitary operations or to unital channels.

    The two classes are equivalent for this property, so both arguments run
    the same commutant computation; the class is recorded in the certificate
    to make the equivalence itself testable.  A nontrivial commutant yields
    the PC-Q measurement, checked to leave the state unperturbed.
    """
    checked_choice(channel_class, CHANNEL_CLASSES, "channel class")
    work = orient(state, side)
    basis = commutant_basis(work, "A", tol)
    measurement = None
    if basis.nullity > 1:
        v, ranges = _eigensplit(_nonscalar_hermitian(basis.elements, basis.elements[0].shape[0]))
        blocks = [v[:, r.start : r.stop] for r in ranges]
        measurement = _assembled(ProjectiveMeasurement, projectors=tuple(read_only(b @ b.conj().T) for b in blocks))
        residual = _split_residual(work, v, ranges)
        if residual > PCQ_TOL:
            raise ArithmeticError(
                f"extracted measurement perturbs the state (residual {residual:.3e} > {PCQ_TOL}); "
                "the commutant tolerance and the verification tolerance are inconsistent"
            )
    return SensitivityCertificate(
        sensitive=basis.nullity == 1, side=side, channel_class=channel_class, nullity=basis.nullity,
        pcq_measurement=measurement, evidence=basis.evidence, slice_bound=basis.slice_bound,
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
    state; this is the constructive half of the sensitivity verdict.  ``h``
    must be a square matrix with finite entries and ``angle`` finite.
    """
    d = len(np.atleast_1d(h))
    h = checked_matrix(h, (d, d), "h")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def nonscalar_commutant_element(basis: CommutantBasis, dim: int) -> np.ndarray:
    """Traceless Hermitian commutant element used for unitary construction."""
    if basis.nullity <= 1:
        raise ValueError("the commutant is trivial; only scalars commute")
    return _nonscalar_hermitian(basis.elements, dim)
