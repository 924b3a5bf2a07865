"""Dense complex linear algebra underneath the tomography layers.

Operators are bare ``numpy.ndarray`` values with complex dtype; nothing in
this package wraps matrices in richer classes.  A matrix a caller hands in
is checked once, by :func:`checked_matrix` in the type that takes it (shape
and finite entries, with a message naming what was given); inside the
package checked data is passed on as bare arrays and not checked again.
Dimensions and counts follow one rule, decided only by
:func:`checked_dims`: each is a Python or numpy integer, not a ``bool``,
and at least 1; anything else is refused with a ValueError naming the
argument.

Vectorization is column stacking everywhere: ``vec(M)`` concatenates the
columns of ``M``, which gives the identity
``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.  Composite systems use
row-major index order, so the basis vector ``|i>_A (x) |j>_B`` sits at
position ``i * dim_b + j``.

Rank decisions follow a single tolerance rule: a singular value counts as
nonzero when it exceeds ``max(rows, cols) * s_max * 1e-12``, unless the
caller supplies a positive tolerance; a negative or non-finite one is
refused.  Certificates built on top of these routines keep the singular
values around the cut so the decision can be audited afterwards.

Null spaces are read from ``s`` and ``vh`` alone.  A tall matrix is first
reduced to the square ``R`` of its QR factorization (``mode="r"``, so no
``Q`` is formed); ``R`` has the same singular values and right singular
vectors, and its SVD builds a ``cols x cols`` ``u`` instead of the
``rows x cols`` one that the null space never reads.  A square matrix takes
its SVD directly, and a wide one the full SVD, whose ``vh`` also holds the
``cols - rows`` directions that no singular value reaches.  A caller whose
matrix stands in for a larger one, such as a restriction of it, passes the
larger shape, so the tolerance rule and the rank cut read the shape of the
matrix the decision is about.

Every SVD and QR of the package runs here; no other module decomposes a
matrix this way.  The SVDs sit in three helpers, one LAPACK job each:
:func:`rank_evidence` asks for singular values only, ``_svd_nullspace`` for
the right vectors, and ``_svd_pinv`` for the thin ``u`` and ``vh``.  The
values-only job stays apart because it takes between a third and a half
of the time of one with vectors (a 25 x 25 complex matrix, numpy 2.4.6 on
2 cores), and every faithfulness certificate runs it.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

RANK_RTOL = 1e-12
WEIGHT_SEED = 20220101
WEIGHT_PART_RTOL = 1e-8


def _rng(seed) -> np.random.Generator:
    """Coerce an integer seed (or an existing Generator) into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_operator(m, what: str = "a matrix") -> np.ndarray:
    """View ``m`` as a complex matrix, rejecting anything that is not 2-D with a message naming ``what``."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected {what}, got an array of shape {a.shape}")
    return a


def checked_matrix(m, shape: tuple[int, int], label: str) -> np.ndarray:
    """View a caller's ``m`` as a complex matrix of the given shape with finite entries.

    The one check every type runs on the matrix it takes; a failure raises
    ValueError naming ``label``, also for input that is not 2-D.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{label} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{label} has non-finite entries (NaN or inf)")
    return a


def checked_dims(values, label: str) -> tuple[int, ...]:
    """The caller's dimensions or counts ``values`` as Python ints, each an integer (not a bool) of at least 1.

    The one dimension rule of the package; a failure raises ValueError naming ``label``.
    """
    dims = [int(v) for v in values if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1]
    if len(dims) != len(values):
        raise ValueError(f"{label} must be positive integers, got {values}")
    return tuple(dims)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with row-major composite indexing (i_a * dim_b + i_b)."""
    return np.kron(as_operator(a), as_operator(b))


def vec(m) -> np.ndarray:
    """Stack the columns of ``m`` into a single vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of :func:`vec`.

    The result is square by default; pass ``shape=(rows, cols)`` to unstack
    into a rectangular matrix.
    """
    a = np.asarray(v, dtype=complex).reshape(-1)
    if shape is None:
        d = math.isqrt(a.size)
        if d * d != a.size:
            raise ValueError(f"cannot unvec a length-{a.size} vector into a square matrix")
        shape = (d, d)
    if shape[0] * shape[1] != a.size:
        raise ValueError(f"cannot unvec a length-{a.size} vector into shape {shape}")
    return a.reshape(shape, order="F")


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b] (conjugate-linear in ``a``)."""
    return complex(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def read_only(m: np.ndarray) -> np.ndarray:
    """A write-protected copy of ``m``, for arrays held by frozen objects."""
    frozen = m.copy()
    frozen.setflags(write=False)
    return frozen


def _assembled(cls, **fields):
    """An instance of the frozen type ``cls`` from fields that already satisfy its rules, so no check runs.

    For values the package builds to the type's rules, such as a permutation
    of a checked matrix or the spectral projectors of one eigenbasis.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _split(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = checked_dims(dims, "dims")
    n = da * db
    if m.shape != (n, n):
        raise ValueError(f"matrix of shape {m.shape} does not act on {da} x {db} = {n} dimensions")
    return m.reshape(da, db, da, db)


def partial_trace(m, dims: tuple[int, int], which: str = "A") -> np.ndarray:
    """Trace out one factor of a matrix acting on A (x) B.

    ``which`` names the subsystem that is traced out, so
    ``partial_trace(m, dims, "A")`` returns the operator left on B.
    """
    m4 = _split(as_operator(m), dims)
    if which == "A":
        return np.einsum("abad->bd", m4)
    if which == "B":
        return np.einsum("abcb->ac", m4)
    raise ValueError(f"subsystem selector must be 'A' or 'B', got {which!r}")


def partial_transpose(m, dims: tuple[int, int], which: str = "A") -> np.ndarray:
    """Transpose the indices of one tensor factor; applying it twice is a no-op."""
    m = as_operator(m)
    m4 = _split(m, dims)
    if which == "A":
        out = m4.transpose(2, 1, 0, 3)
    elif which == "B":
        out = m4.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem selector must be 'A' or 'B', got {which!r}")
    return out.reshape(m.shape)


class RankEvidence(NamedTuple):
    """Outcome of a thresholded rank decision together with its audit trail.

    ``smallest_kept`` and ``largest_dropped`` are the singular values on
    either side of the cut (0.0 when the respective side is empty), so
    ``gap_ratio`` tells how decisively the threshold separated them.
    """

    rank: int
    smallest_kept: float
    largest_dropped: float
    tol: float

    @property
    def gap_ratio(self) -> float:
        """Ratio of the singular values either side of the cut (inf when nothing was dropped)."""
        if self.largest_dropped <= 0.0:
            return math.inf
        return self.smallest_kept / self.largest_dropped


# a rank decision whose gap ratio falls below this is ambiguous (the CLI exits 3)
AMBIGUOUS_GAP_RATIO = 10.0


def default_rank_tol(shape: tuple[int, int], s_max: float) -> float:
    """Default singular value cutoff, max(rows, cols) * s_max * 1e-12."""
    return max(shape) * s_max * RANK_RTOL


def check_tol(tol: float) -> None:
    """Refuse a negative or non-finite tolerance."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _evidence(shape: tuple[int, int], s: np.ndarray, tol: float) -> RankEvidence:
    check_tol(tol)
    used = tol or default_rank_tol(shape, float(s[0]) if s.size else 0.0)
    rank = int((s > used).sum())
    smallest_kept = float(s[rank - 1]) if rank > 0 else 0.0
    largest_dropped = float(s[rank]) if rank < s.size else 0.0
    return RankEvidence(rank, smallest_kept, largest_dropped, used)


def rank_evidence(m, tol: float = 0.0) -> RankEvidence:
    """Numerical rank of ``m`` with the singular values around the cut."""
    m = as_operator(m)
    s = np.linalg.svd(m, compute_uv=False)
    return _evidence(m.shape, s, tol)


def _svd_nullspace(m: np.ndarray, tol: float, shape: tuple[int, int] | None = None) -> tuple[RankEvidence, np.ndarray]:
    """Rank evidence and right null space of ``m``, with the tolerance rule read at ``shape`` (default ``m.shape``)."""
    rows, cols = m.shape
    r = np.linalg.qr(m, mode="r") if rows > cols else m
    _, s, vh = np.linalg.svd(r, full_matrices=rows < cols)
    ev = _evidence(m.shape if shape is None else shape, s, tol)
    return ev, vh[ev.rank:].conj().T


def rank_and_nullspace(m, tol: float = 0.0) -> tuple[int, np.ndarray]:
    """Numerical rank and an orthonormal basis of the right null space.

    Returns ``(rank, basis)`` where the columns of ``basis`` span the null
    space of ``m``; ``rank + basis.shape[1] == m.shape[1]`` always holds.
    With ``tol=0`` the default cutoff rule applies.

    The basis is read from ``vh`` only.  A tall matrix is reduced to the
    ``cols x cols`` R factor of its QR factorization first, so no
    ``rows x cols`` ``u`` is formed; a wide matrix takes the full SVD,
    since its null space also contains the ``cols - rows`` directions that
    the thin ``vh`` leaves out.
    """
    m = as_operator(m)
    ev, basis = _svd_nullspace(m, tol)
    return ev.rank, basis


def _svd_pinv(m: np.ndarray, tol: float) -> tuple[RankEvidence, np.ndarray, np.ndarray]:
    """Rank evidence, singular values and Moore-Penrose inverse of ``m``, from one thin SVD."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    ev = _evidence(m.shape, s, tol)
    inv_s = np.zeros_like(s)
    keep = s > ev.tol
    inv_s[keep] = 1.0 / s[keep]
    return ev, s, vh.conj().T @ (inv_s[:, None] * u.conj().T)


def pseudo_inverse(m, tol: float = 0.0) -> np.ndarray:
    """Moore-Penrose inverse via SVD, using the package-wide tolerance rule."""
    return _svd_pinv(as_operator(m), tol)[2]


@cache
def fixed_weight(d: int) -> np.ndarray:
    """The fixed ``d x d`` Hermitian weight W: a GUE draw from ``WEIGHT_SEED``, made once per d, read-only."""
    g = _rng(WEIGHT_SEED)
    z = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return read_only((z + z.conj().T) / 2)


def weight_in_span(elements: np.ndarray, d: int, traceless: bool = False) -> np.ndarray:
    """Hermitian part of the projection of one fixed weight W onto the span of ``elements``.

    W is :func:`fixed_weight`, the same for every caller.  The
    ``d x d`` elements, stacked along the first axis, are Hilbert-Schmidt
    orthonormal, so the projection is sum_i <E_i, W> E_i; it depends on the
    span, not on the basis that spans it.  For a span closed under adjoints
    the projection of the Hermitian W is already Hermitian up to rounding.
    With ``traceless`` the trace is removed before the Hermitian part is
    taken.  Raises ArithmeticError when the result is at most 1e-8 ||W||.
    """
    w = fixed_weight(d)
    projected = np.einsum("k,kij->ij", np.einsum("kij,ij->k", elements.conj(), w), elements)
    if traceless:
        projected = projected - (np.trace(projected) / d) * np.eye(d)
    h = (projected + projected.conj().T) / 2
    if np.linalg.norm(h) <= WEIGHT_PART_RTOL * np.linalg.norm(w):
        kind = "non-scalar component" if traceless else "component"
        raise ArithmeticError(f"the fixed weight has no {kind} in the span")
    return h


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed ``d x d`` unitary.

    QR of a complex Ginibre matrix with the R-diagonal phases folded back in,
    which makes the distribution invariant under left multiplication by any
    fixed unitary.  The same seed always reproduces the same matrix.
    """
    (d,) = checked_dims((d,), "d")
    g = _rng(seed)
    z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal basis of the real space of ``d x d`` Hermitian matrices.

    Generalized Gell-Mann convention: the scaled identity first, then the
    symmetric off-diagonal elements, the antisymmetric ones, and finally the
    diagonal traceless elements.  For ``d=2`` this is exactly
    ``{1, sigma_x, sigma_y, sigma_z} / sqrt(2)``.  All pairs are orthonormal
    under the Hilbert-Schmidt inner product.
    """
    (d,) = checked_dims((d,), "d")
    basis = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / math.sqrt(2)
            basis.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2)
            m[k, j] = 1j / math.sqrt(2)
            basis.append(m)
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        basis.append(np.diag(diag).astype(complex) / math.sqrt(level * (level + 1)))
    return basis


def random_density(d: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of the requested rank (normalized Wishart G G^dag)."""
    d, rank = checked_dims((d, rank), "d and rank")
    if rank > d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    g = _rng(seed)
    gmat = (g.standard_normal((d, rank)) + 1j * g.standard_normal((d, rank))) / math.sqrt(2)
    rho = gmat @ gmat.conj().T
    return rho / np.trace(rho).real
