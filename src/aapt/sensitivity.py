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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RankEvidence, _svd_nullspace, as_operator, tensor, unvec
from .states import BipartiteState, swap_sides

SIDES = ("A", "B")
CHANNEL_CLASSES = ("unitary", "unital")
PCQ_TOL = 1e-10
PROJECTOR_TOL = 1e-10
EIGENVALUE_CLUSTER_RTOL = 1e-8
SCALAR_PART_RTOL = 1e-8


@dataclass(frozen=True)
class CommutantBasis:
    """Orthonormal basis of the local commutant of a state.

    ``elements`` are Hilbert-Schmidt orthonormal operators on the selected
    side spanning the null space of M -> [M (x) 1, rho]; the scaled identity
    always lies in their span, so ``nullity >= 1``.
    """

    side: str
    elements: tuple[np.ndarray, ...]
    nullity: int
    tol: float
    evidence: RankEvidence


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete family of mutually orthogonal Hermitian projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_operator(p) for p in self.projectors)
        if not ops:
            raise ValueError("a measurement needs at least one projector")
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for p in ops:
            if p.shape != (d, d):
                raise ValueError("all projectors must share one dimension")
            if np.linalg.norm(p - p.conj().T) > PROJECTOR_TOL:
                raise ValueError("projectors must be Hermitian")
            if np.linalg.norm(p @ p - p) > PROJECTOR_TOL:
                raise ValueError("projectors must be idempotent")
            total += p
        if np.linalg.norm(total - np.eye(d)) > PROJECTOR_TOL:
            raise ValueError("projectors must resolve the identity")
        for i, p in enumerate(ops):
            for q in ops[i + 1 :]:
                if np.linalg.norm(p @ q) > PROJECTOR_TOL:
                    raise ValueError("projectors must be mutually orthogonal")
        frozen = []
        for p in ops:
            p = p.copy()
            p.setflags(write=False)
            frozen.append(p)
        object.__setattr__(self, "projectors", tuple(frozen))

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class SensitivityCertificate:
    """Verdict on whether any nontrivial channel of the class fixes the state.

    ``sensitive`` holds exactly when the commutant nullity is 1.  For a
    non-sensitive state, ``pcq_measurement`` carries a nontrivial projective
    measurement that leaves the state unperturbed.
    """

    sensitive: bool
    side: str
    channel_class: str
    nullity: int
    pcq_measurement: ProjectiveMeasurement | None
    tol: float
    smallest_kept: float
    largest_dropped: float

    @property
    def gap_ratio(self) -> float:
        if self.largest_dropped <= 0.0:
            return float("inf")
        return self.smallest_kept / self.largest_dropped


def _oriented(state: BipartiteState, side: str) -> BipartiteState:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return state if side == "A" else swap_sides(state)


def _commutator_matrix(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Matrix of M -> (M (x) 1) rho - rho (M (x) 1) over vectorized M.

    Column ``c * da + r`` is vec of the commutator with the matrix unit E_rc.
    vec stacks columns, so a row index splits as ``(a', b', a, b)`` for the
    commutator entry at row ``(a, b)``, column ``(a', b')``.  Both products
    with ``E_rc (x) 1`` only move entries of rho, so they are placed by
    slice assignment rather than multiplied out.
    """
    da, db = dims
    n = da * db
    r4 = rho.reshape(da, db, da, db)  # (a, b, a', b')
    k = np.zeros((da, db, da, db, da, da), dtype=complex)  # (a', b', a, b, c, r)
    units = np.arange(da)
    # (E_rc (x) 1) rho: nonzero where a == r, entry rho[(c, b), (a', b')]
    k[:, :, units, :, :, units] = r4.transpose(2, 3, 1, 0)
    # rho (E_rc (x) 1): nonzero where a' == c, entry rho[(a, b), (r, b')]
    k[units, :, :, :, units, :] -= r4.transpose(3, 0, 1, 2)
    return k.reshape(n * n, da * da)


def commutant_basis(state: BipartiteState, side: str = "A", tol: float = 0.0) -> CommutantBasis:
    """Null space of the local commutator map, as operators on the chosen side."""
    work = _oriented(state, side)
    k = _commutator_matrix(work.matrix, work.dims)
    ev, null_vectors = _svd_nullspace(k, tol)
    d = work.dim_a
    elements = tuple(unvec(null_vectors[:, i], (d, d)) for i in range(null_vectors.shape[1]))
    return CommutantBasis(side=side, elements=elements, nullity=len(elements), tol=ev.tol, evidence=ev)


def _nonscalar_hermitian(elements: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """Pick a traceless Hermitian operator out of the commutant span.

    Chooses the basis element with the largest component orthogonal to the
    identity, strips its trace, and takes the Hermitian part (falling back to
    the anti-Hermitian part when that is numerically scalar).  Both parts
    commute with the state because the state is Hermitian.
    """
    best = None
    best_score = -1.0
    for m in elements:
        perp = m - (np.trace(m) / d) * np.eye(d)
        score = float(np.linalg.norm(perp))
        if score > best_score:
            best, best_score = perp, score
    h = (best + best.conj().T) / 2
    if np.linalg.norm(h) <= SCALAR_PART_RTOL * best_score:
        h = (best - best.conj().T) / 2j
    return h


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
    work = _oriented(state, side)
    rho = work.matrix
    eye_b = np.eye(work.dim_b, dtype=complex)
    pinched = np.zeros_like(rho)
    for p in measurement.projectors:
        big = tensor(p, eye_b)
        pinched += big @ rho @ big
    return float(np.linalg.norm(pinched - rho))


def _extract_from_basis(state: BipartiteState, side: str, basis: CommutantBasis) -> ProjectiveMeasurement | None:
    if basis.nullity <= 1:
        return None
    work = _oriented(state, side)
    h = _nonscalar_hermitian(basis.elements, work.dim_a)
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
    basis = commutant_basis(state, side, tol)
    sensitive = basis.nullity == 1
    measurement = None if sensitive else _extract_from_basis(state, side, basis)
    return SensitivityCertificate(
        sensitive=sensitive,
        side=side,
        channel_class=channel_class,
        nullity=basis.nullity,
        pcq_measurement=measurement,
        tol=basis.tol,
        smallest_kept=basis.evidence.smallest_kept,
        largest_dropped=basis.evidence.largest_dropped,
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
