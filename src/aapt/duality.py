"""State to map duality for bipartite probes, and the faithfulness certificate.

Every bipartite state rho on A (x) B induces two linear maps between the
subsystem operator spaces,

    sigma on A  ->  Tr_A[(sigma^T (x) 1_B) rho]   (the A -> B map),
    sigma on B  ->  Tr_B[(1_A (x) sigma^T) rho]   (the B -> A map),

with the transpose taken in the computational basis, fixed once for the whole
package.  In the conventions used here (column stacking, Choi on input (x)
output) the matrix of the A -> B map is exactly the Choi-to-transfer
reshuffle of rho itself, and the two directions are transposes of each other.

A state can identify an arbitrary unknown channel acting on A precisely when
its A -> B map is injective, i.e. the transfer matrix has full column rank
|A|^2.  ``certify_faithful`` decides that rank question numerically and keeps
the singular values around the cut as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _act_on_operator, choi_to_transfer, transfer_to_choi
from .linalg import RankEvidence, as_operator, hermitian_basis, rank_evidence, read_only, tensor, vec
from .states import HERMITIAN_TOL, BipartiteState, orient

DIRECTIONS = ("a_to_b", "b_to_a")
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class TransferMatrix:
    """Matrix of a linear map on operator space, in column-stacking convention."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("dimensions must be positive")
        m = as_operator(self.matrix)
        expected = (self.dim_out * self.dim_out, self.dim_in * self.dim_in)
        if m.shape != expected:
            raise ValueError(f"transfer matrix must have shape {expected}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("transfer matrix has non-finite entries (NaN or inf)")
        object.__setattr__(self, "matrix", read_only(m))

    def apply(self, m) -> np.ndarray:
        """Act on a single operator."""
        return _act_on_operator(self.matrix, m, self.dim_in)

    def choi(self) -> np.ndarray:
        return transfer_to_choi(self.matrix, self.dim_in, self.dim_out)

    def is_hermitian_preserving(self) -> bool:
        """Whether the Choi matrix is Hermitian, under the relative rule states are checked with."""
        c = self.choi()
        return bool(np.linalg.norm(c - c.conj().T) <= HERMITIAN_TOL * max(1.0, np.linalg.norm(c)))


def state_to_map(state: BipartiteState, direction: str = "a_to_b") -> TransferMatrix:
    """Transfer matrix of the map a bipartite state induces between its sides.

    For ``a_to_b`` the state matrix, viewed as a Choi matrix with A as input
    and B as output, is reshuffled into the transfer form; ``b_to_a`` is its
    transpose.
    """
    da, db = state.dims
    if direction == "a_to_b":
        return TransferMatrix(da, db, choi_to_transfer(state.matrix, da, db))
    if direction == "b_to_a":
        return TransferMatrix(db, da, choi_to_transfer(state.matrix, da, db).T)
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def map_to_state(t: TransferMatrix, dims: tuple[int, int], direction: str = "a_to_b") -> BipartiteState:
    """Invert :func:`state_to_map`.

    Raises ValueError when the resulting matrix is not a valid density
    matrix, which signals that ``t`` was not induced by a state.
    """
    da, db = int(dims[0]), int(dims[1])
    if direction == "a_to_b":
        expected, m = (da, db), t.matrix
    elif direction == "b_to_a":
        expected, m = (db, da), t.matrix.T
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if (t.dim_in, t.dim_out) != expected:
        raise ValueError(f"transfer dims {t.dim_in} -> {t.dim_out} do not match state dims {dims}")
    return BipartiteState(transfer_to_choi(m, da, db), da, db)


def _support_isometry(marginal: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((marginal + marginal.conj().T) / 2)
    keep = w > SUPPORT_TOL
    # columns ordered by descending eigenvalue for a deterministic basis
    return v[:, keep][:, ::-1]


def restrict_support(state: BipartiteState) -> BipartiteState:
    """Project both sides onto the supports of their marginals.

    A marginal's support is spanned by its eigenvectors with eigenvalue above
    1e-12.  States whose marginals are already full rank are returned unchanged.
    Otherwise the state is compressed onto the support eigenbases and
    renormalized, so the output has full-rank marginals on both sides.
    """
    pa = _support_isometry(state.marginal("A"))
    pb = _support_isometry(state.marginal("B"))
    if pa.shape[1] == state.dim_a and pb.shape[1] == state.dim_b:
        return state
    iso = tensor(pa, pb)
    m = iso.conj().T @ state.matrix @ iso
    m = m / np.trace(m).real
    return BipartiteState(m, pa.shape[1], pb.shape[1])


@dataclass(frozen=True)
class FaithfulnessCertificate:
    """Verdict on whether a probe state can identify arbitrary channels.

    ``rank`` is the numerical rank of the probe's channel map on the chosen
    side and ``required_rank`` the square of that side's dimension after
    support restriction; the state is faithful exactly when they agree.
    ``evidence`` is the rank decision itself, with the singular values on
    either side of the cut.
    """

    faithful: bool
    side: str
    rank: int
    required_rank: int
    evidence: RankEvidence
    dims: tuple[int, int]
    input_dims: tuple[int, int]


def _decide_faithful(
    state: BipartiteState, side: str, tol: float
) -> tuple[FaithfulnessCertificate, BipartiteState, np.ndarray]:
    """The faithfulness decision, with the restricted and oriented state and the A -> B matrix it was read from."""
    restricted = restrict_support(state)
    work = orient(restricted, side)
    matrix = state_to_map(work).matrix
    ev = rank_evidence(matrix, tol)
    required = work.dim_a**2
    cert = FaithfulnessCertificate(
        faithful=ev.rank == required,
        side=side,
        rank=ev.rank,
        required_rank=required,
        evidence=ev,
        dims=restricted.dims,
        input_dims=state.dims,
    )
    return cert, work, matrix


def certify_faithful(state: BipartiteState, side: str = "A", tol: float = 0.0) -> FaithfulnessCertificate:
    """Decide faithfulness on one side by the rank of the induced map.

    The state is support-restricted first (recorded in ``dims``), since the
    question is only meaningful for full-rank marginals.  Faithfulness on A
    is full column rank |A|^2 of the A -> B map, equivalently full row rank
    of the B -> A direction.
    """
    return _decide_faithful(state, side, tol)[0]


def hermitian_restricted_rank(t: TransferMatrix) -> int:
    """Real rank of a map restricted to Hermitian operators.

    The map is expressed in orthonormal Hermitian bases of its input and
    output spaces, as Re(F_out^dag T F_in) where the columns of F are vec of
    :func:`aapt.linalg.hermitian_basis`; for a Hermitian-preserving map that
    coefficient matrix is real and its real rank equals the complex rank of
    the full transfer matrix.
    """
    f_in, f_out = (np.stack([vec(b) for b in hermitian_basis(d)], axis=1) for d in (t.dim_in, t.dim_out))
    return rank_evidence((f_out.conj().T @ t.matrix @ f_in).real).rank
