"""Bipartite density matrices and the probe state families used throughout.

A :class:`BipartiteState` is a density matrix on A (x) B together with the
two subsystem dimensions.  Construction checks the caller's matrix once:
shape and finite entries by :func:`aapt.linalg.checked_matrix`, then the
Hermitian, positivity and unit-trace rules of one density check that the B
blocks of :func:`cq_state` share.  Every instance in circulation is
therefore a physical state, and code inside the package reads its
``matrix`` as a bare array without checking it again.  A state the package
derives from a checked one, by a side swap or a support restriction, is
assembled by ``_derived_state`` without a second check, through the one
helper ``linalg._assembled`` that also builds the PC-Q measurement of a
sensitivity certificate.  The relative Hermiticity rule is written here
once; :mod:`aapt.duality` reads it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SIDES, _assembled, _rng, _trace_out, checked_choice, checked_dims, checked_matrix, random_density, read_only

PSD_TOL = 1e-12
TRACE_TOL = 1e-12
HERMITIAN_TOL = 1e-12


def _is_hermitian(m: np.ndarray) -> bool:
    """Whether ||m - m^dag||_F <= 1e-12 max(1, ||m||_F), the relative Hermiticity rule."""
    return bool(np.linalg.norm(m - m.conj().T) <= HERMITIAN_TOL * max(1.0, np.linalg.norm(m)))


def _check_density(m, n: int, label: str) -> np.ndarray:
    """``m`` as a checked ``n x n`` matrix that is Hermitian, positive semidefinite and of unit trace."""
    m = checked_matrix(m, (n, n), label)
    if not _is_hermitian(m):
        raise ValueError(f"{label} is not Hermitian")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if eigs[0] < -PSD_TOL:
        raise ValueError(f"{label} is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
    trace = np.trace(m).real
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"{label} must have unit trace, got {float(trace)}")
    return m


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on A (x) B with recorded subsystem dimensions."""

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        checked_dims((self.dim_a, self.dim_b), "dim_a and dim_b")
        m = _check_density(self.matrix, self.dim_a * self.dim_b, "state matrix")
        object.__setattr__(self, "matrix", read_only(m))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    def marginal(self, which: str = "A") -> np.ndarray:
        """Reduced density matrix on the named subsystem."""
        which = checked_choice(which, SIDES, "subsystem selector")
        return _trace_out(self.matrix, self.dims, "B" if which == "A" else "A")


def _oriented_matrix(m: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """A bare matrix on A (x) B of ``dims``, or a stack of them, with the named side first (for B, a permutation)."""
    da, db = dims
    return m if side == "A" else m.reshape(-1, da, db, da, db).transpose(0, 2, 1, 4, 3).reshape(m.shape)


def _derived_state(m: np.ndarray, dim_a: int, dim_b: int) -> BipartiteState:
    """A state whose matrix is derived from a checked one, assembled without validating it again.

    For matrices that are density matrices by construction, such as an index
    permutation or a renormalized compression of a valid state.
    """
    return _assembled(BipartiteState, matrix=read_only(m), dim_a=dim_a, dim_b=dim_b)


def swap_sides(state: BipartiteState) -> BipartiteState:
    """Exchange the roles of A and B (an exact index permutation, so no validation runs)."""
    return _derived_state(_oriented_matrix(state.matrix, state.dims, "B"), state.dim_b, state.dim_a)


def orient(state: BipartiteState, side: str) -> BipartiteState:
    """The state with the named side as its first factor."""
    return state if checked_choice(side, SIDES, "side") == "A" else swap_sides(state)


def max_entangled(d: int) -> BipartiteState:
    """The maximally entangled state sum_ij |ii><jj| / d on d (x) d."""
    (d,) = checked_dims((d,), "d")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / math.sqrt(d)
    return BipartiteState(np.outer(phi, phi.conj()), d, d)


def product_state(rho_a, rho_b) -> BipartiteState:
    """Tensor product of two density matrices."""
    a = checked_matrix(rho_a, None, "rho_a")
    b = checked_matrix(rho_b, None, "rho_b")
    return BipartiteState(np.kron(a, b), a.shape[0], b.shape[0])


def random_state(dim_a: int, dim_b: int, rank: int | None = None, seed=0) -> BipartiteState:
    """Random bipartite state of the given rank (full rank by default)."""
    dim_a, dim_b = checked_dims((dim_a, dim_b), "dim_a and dim_b")
    n = dim_a * dim_b
    if rank is None:
        rank = n
    return BipartiteState(random_density(n, rank, seed), dim_a, dim_b)


def cq_state(p, sigmas) -> BipartiteState:
    """Classical-quantum state sum_i p_i |i><i| (x) sigma_i.

    ``p`` is a probability vector over the A basis and ``sigmas`` one B state
    per entry, each of the first one's dimension.  The result commutes with
    every projective measurement that is diagonal in the chosen A basis, so
    it is never sensitive on A.
    """
    weights = np.asarray(p, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("p must be a nonempty probability vector")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= TRACE_TOL):  # so that NaN fails too
        raise ValueError("p must be nonnegative and sum to 1")
    sigmas = list(sigmas)
    if len(sigmas) != weights.size:
        raise ValueError("need exactly one B state per probability entry")
    db = len(sigmas[0]) if np.ndim(sigmas[0]) else 0
    blocks = [_check_density(s, db, f"sigma[{i}]") for i, s in enumerate(sigmas)]
    da = weights.size
    out = np.zeros((da * db, da * db), dtype=complex)
    for i, (w, b) in enumerate(zip(weights, blocks)):
        out[i * db : (i + 1) * db, i * db : (i + 1) * db] = w * b
    return BipartiteState(out, da, db)


def unitary_faithful_state(spectrum) -> BipartiteState:
    """A state that pins down unitaries on A but has a rank-2 channel map.

    Built from a non-degenerate diagonal state and the uniform-superposition
    projector on A, each flagged by one basis state of a qubit B:

        rho = (diag(spectrum) (x) |0><0| + |+><+| (x) |1><1|) / 2

    The pair of A components transforms distinctly under every nontrivial
    unitary, yet the image of the associated B -> A map is only 2-dimensional,
    so the state cannot identify a general channel once |A| >= 2.
    """
    lam = np.asarray(spectrum, dtype=float)
    d = lam.size
    if lam.ndim != 1 or d < 2:
        raise ValueError("spectrum must be a vector of length at least 2")
    if not (np.all(lam > 0) and abs(lam.sum() - 1.0) <= TRACE_TOL):  # so that NaN fails too
        raise ValueError("spectrum must be strictly positive and sum to 1")
    diffs = np.abs(lam[:, None] - lam[None, :])[~np.eye(d, dtype=bool)]
    if diffs.min() <= 1e-12:
        raise ValueError("spectrum must be non-degenerate")
    uniform = np.full((d, d), 1.0 / d)
    return swap_sides(cq_state([0.5, 0.5], [np.diag(lam), uniform]))


def random_cq_state(dim_a: int, dim_b: int, seed=0) -> BipartiteState:
    """Classical-quantum state with Dirichlet weights and random B blocks."""
    dim_a, dim_b = checked_dims((dim_a, dim_b), "dim_a and dim_b")
    g = _rng(seed)
    p = g.dirichlet(np.ones(dim_a))
    sigmas = [random_density(dim_b, dim_b, g) for _ in range(dim_a)]
    return cq_state(p, sigmas)
