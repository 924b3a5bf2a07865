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

from .channels import _act_on_operator, _checked_form, _reshuffle
from .linalg import RankEvidence, checked_dims, hermitian_basis, rank_evidence, read_only, tensor, vec
from .states import BipartiteState, _derived_state, _is_hermitian, orient

DIRECTIONS = ("a_to_b", "b_to_a")
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class TransferMatrix:
    """Matrix of a linear map on operator space, in column-stacking convention."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _checked_form("transfer", self.matrix, self.dim_in, self.dim_out)
        object.__setattr__(self, "matrix", read_only(m))

    def apply(self, m) -> np.ndarray:
        """Act on a single operator."""
        return _act_on_operator(self.matrix, m, self.dim_in)

    def choi(self) -> np.ndarray:
        return _reshuffle(self.matrix, self.dim_in, self.dim_out, "choi")

    def is_hermitian_preserving(self) -> bool:
        """Whether the Choi matrix is Hermitian, under the relative rule states are checked with."""
        return _is_hermitian(self.choi())


def state_to_map(state: BipartiteState, direction: str = "a_to_b") -> TransferMatrix:
    """Transfer matrix of the map a bipartite state induces between its sides.

    For ``a_to_b`` the state matrix, viewed as a Choi matrix with A as input
    and B as output, is reshuffled into the transfer form; ``b_to_a`` is its
    transpose.
    """
    da, db = state.dims
    if direction == "a_to_b":
        return TransferMatrix(da, db, _reshuffle(state.matrix, da, db, "transfer"))
    if direction == "b_to_a":
        return TransferMatrix(db, da, _reshuffle(state.matrix, da, db, "transfer").T)
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def map_to_state(t: TransferMatrix, dims: tuple[int, int], direction: str = "a_to_b") -> BipartiteState:
    """Invert :func:`state_to_map`.

    Raises ValueError when the resulting matrix is not a valid density
    matrix, which signals that ``t`` was not induced by a state.
    """
    da, db = checked_dims(dims, "dims")
    if direction == "a_to_b":
        expected, m = (da, db), t.matrix
    elif direction == "b_to_a":
        expected, m = (db, da), t.matrix.T
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if (t.dim_in, t.dim_out) != expected:
        raise ValueError(f"transfer dims {t.dim_in} -> {t.dim_out} do not match state dims {dims}")
    return BipartiteState(_reshuffle(m, da, db, "choi"), da, db)


def _support_isometry(hermitian: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian)
    keep = w > SUPPORT_TOL
    # columns ordered by descending eigenvalue for a deterministic basis
    return v[:, keep][:, ::-1]


def restrict_support(state: BipartiteState) -> BipartiteState:
    """Project both sides onto the supports of their marginals.

    A marginal's support is spanned by its eigenvectors with eigenvalue above
    1e-12.  Both marginals are read from one reshape of the state, and the
    eigenvalues of each one's Hermitian part (``eigvalsh``, no eigenvectors)
    decide first: when both smallest eigenvalues are above 1e-12 the state
    is returned unchanged and no support basis is built.  Otherwise the
    state is compressed onto the support eigenbases and renormalized, so the
    output has full-rank marginals on both sides.  The compression
    iso^dag rho iso / Tr of a valid state is a density matrix, so it is not
    validated again.
    """
    da, db = state.dims
    m4 = state.matrix.reshape(da, db, da, db)
    marginals = [(m + m.conj().T) / 2 for m in (np.einsum("abcb->ac", m4), np.einsum("abad->bd", m4))]
    if all(np.linalg.eigvalsh(m)[0] > SUPPORT_TOL for m in marginals):
        return state
    pa, pb = (_support_isometry(m) for m in marginals)
    if pa.shape[1] == da and pb.shape[1] == db:  # eigh's eigenvalues may round above the cut where eigvalsh's did not
        return state
    iso = tensor(pa, pb)
    m = iso.conj().T @ state.matrix @ iso
    m = m / np.trace(m).real
    return _derived_state(m, pa.shape[1], pb.shape[1])


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
    matrix = _reshuffle(work.matrix, *work.dims, "transfer")
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
