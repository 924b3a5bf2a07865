"""Quantum channels and completely positive maps, held as Choi matrices.

A :class:`Channel` can be built from any of three forms,

* ``kraus``: a tuple of ``dim_out x dim_in`` operators K_i acting as
  ``rho -> sum_i K_i rho K_i^dag``,
* ``choi``: the unnormalized Choi matrix ``C = sum_ij |i><j| (x) E(|i><j|)``
  living on input (x) output space, so Tr C = dim_in, complete positivity is
  C >= 0, and trace preservation is Tr_out C = 1,
* ``transfer``: the ``dim_out^2 x dim_in^2`` matrix acting on column-stacked
  operators,

and stores its Choi matrix, the Jamiolkowski image that a bipartite probe
state also is.  With column stacking the three forms are linked by
``C = sum_i vec(K_i) vec(K_i)^dag`` and ``T = sum_i conj(K_i) (x) K_i``;
Choi and transfer matrices are entry permutations of each other, so the
transfer form is read back exactly.

This module alone knows what a valid map matrix is.  A caller's Choi or
transfer matrix enters through ``_checked_form``, which holds each form's
shape, and a Kraus family through ``_kraus_stack``; ``_reshuffle`` is the
one layout of the Choi <-> transfer permutation.  The public conversions
and the constructors check their input that way, while code inside the
package already holds checked arrays and calls ``_reshuffle`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _rng, as_operator, check_tol, checked_dims, checked_matrix, haar_unitary, partial_trace, read_only, vec
from .states import BipartiteState, swap_sides

_KINDS = ("kraus", "choi", "transfer")

CP_TOL = 1e-10
KRAUS_KEEP_RTOL = 1e-12


def _checked_form(kind: str, m, dim_in: int, dim_out: int) -> np.ndarray:
    """A caller's ``"choi"`` or ``"transfer"`` matrix of a ``dim_in -> dim_out`` map, checked.

    The dimensions go through the package's dimension rule, then the matrix
    through its matrix rule, against the one shape of each form: a Choi
    matrix is ``dim_in * dim_out`` square, a transfer matrix ``dim_out^2 x
    dim_in^2``.
    """
    dim_in, dim_out = checked_dims((dim_in, dim_out), "dim_in and dim_out")
    shape = (dim_in * dim_out,) * 2 if kind == "choi" else (dim_out * dim_out, dim_in * dim_in)
    return checked_matrix(m, shape, f"{kind} matrix")


def _kraus_stack(ops, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A caller's Kraus family as one read-only stack.

    The family must be nonempty, every operator must have ``shape`` (the
    first operator's shape when it is not given), and every entry finite.
    """
    ops = [as_operator(k, "Kraus operators to be matrices") for k in ops]
    if not ops:
        raise ValueError("need at least one Kraus operator")
    shape = shape or ops[0].shape
    if any(k.shape != shape for k in ops):
        raise ValueError(f"every Kraus operator must have shape {shape}")
    stack = np.stack(ops)
    if not np.isfinite(stack).all():
        raise ValueError("Kraus operators have non-finite entries (NaN or inf)")
    stack.setflags(write=False)
    return stack


def _reshuffle(m: np.ndarray, dim_in: int, dim_out: int, to: str) -> np.ndarray:
    """The Choi <-> transfer permutation of a ``dim_in -> dim_out`` map, on a matrix or on every matrix of a stack.

    ``to="transfer"`` takes Choi matrices to transfer matrices, ``to="choi"``
    the reverse.  Each matrix is read as a four-index tensor and its outer
    two axes are exchanged; nothing is checked.
    """
    a, b, c, d = (dim_in, dim_out) * 2 if to == "transfer" else (dim_out, dim_out, dim_in, dim_in)
    return m.reshape(-1, a, b, c, d).transpose(0, 4, 2, 3, 1).reshape(*m.shape[:-2], d * b, c * a)


def kraus_to_choi(ops) -> np.ndarray:
    """Choi matrix sum_i vec(K_i) vec(K_i)^dag of a Kraus family, as one product V V^dag."""
    v = np.stack([vec(k) for k in _kraus_stack(ops)], axis=1)
    return v @ v.conj().T


def kraus_to_transfer(ops) -> np.ndarray:
    """Transfer matrix sum_i conj(K_i) (x) K_i of a Kraus family, reshuffled from its Choi matrix."""
    stack = _kraus_stack(ops)
    _, dim_out, dim_in = stack.shape
    return _reshuffle(kraus_to_choi(stack), dim_in, dim_out, "transfer")


def transfer_to_choi(t, dim_in: int, dim_out: int) -> np.ndarray:
    """Reshuffle a transfer matrix into the corresponding Choi matrix."""
    return _reshuffle(_checked_form("transfer", t, dim_in, dim_out), dim_in, dim_out, "choi")


def choi_to_transfer(c, dim_in: int, dim_out: int) -> np.ndarray:
    """Reshuffle a Choi matrix into the corresponding transfer matrix."""
    return _reshuffle(_checked_form("choi", c, dim_in, dim_out), dim_in, dim_out, "transfer")


def act_on_first(t: np.ndarray, m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """(T (x) id_B) m for a transfer matrix T on the first factor of ``dims``.

    The transposed reshuffle of m is its B -> A map, as for a state (see
    :mod:`aapt.duality`).  T composes with that map and the product is
    reshuffled back, so J_out = T J_in is the one way a map acts on an
    operator; ``dims = (d, 1)`` acts on a single d x d operator.
    """
    return _reshuffle((t @ _reshuffle(m, *dims, "transfer").T).T, math.isqrt(t.shape[0]), dims[1], "choi")


def _act_on_operator(t: np.ndarray, m, dim_in: int) -> np.ndarray:
    """Act with the transfer matrix ``t`` on one caller's ``dim_in x dim_in`` operator."""
    return act_on_first(t, checked_matrix(m, (dim_in, dim_in), "operator"), (dim_in, 1))


def _eigen_terms(c: np.ndarray, dim_in: int, dim_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the Hermitian part of a Choi matrix, largest first.

    Row i of the second array is eigenvector i unstacked into a
    ``dim_out x dim_in`` operator, so ``sum_i w_i k_i X k_i^dag`` is the
    Hermitian part's action on X.
    """
    w, q = np.linalg.eigh((c + c.conj().T) / 2)
    return w[::-1], q.T[::-1].reshape(-1, dim_in, dim_out).transpose(0, 2, 1)


def choi_to_kraus(c, dim_in: int, dim_out: int) -> tuple[np.ndarray, ...]:
    """Kraus operators from the eigendecomposition of a PSD Choi matrix.

    Eigenvectors with eigenvalue at most 1e-12 * n * max(1, max |eigenvalue|),
    n = dim_in * dim_out, are dropped; an eigenvalue more negative than the
    CP tolerance means the map is not completely positive and no Kraus form
    exists.
    """
    c = _checked_form("choi", c, dim_in, dim_out)
    n = dim_in * dim_out
    w, ops = _eigen_terms(c, dim_in, dim_out)
    scale = max(1.0, float(np.abs(w).max()))
    if w[-1] < -CP_TOL * scale:
        raise ValueError(f"Choi matrix is not positive semidefinite (min eigenvalue {w[-1]:.3e}); the map is not CP")
    keep = KRAUS_KEEP_RTOL * n * scale
    kraus = tuple(math.sqrt(lam) * k for lam, k in zip(w, ops) if lam > keep)
    return kraus or (np.zeros((dim_out, dim_in), dtype=complex),)


class Channel:
    """A linear map between operator spaces, stored as one read-only Choi matrix.

    Any linear map in Choi form is held; nothing here checks complete
    positivity or trace preservation.  :func:`classify` reports both, and a
    document flagged ``cptp=true`` is refused on load unless it passes them.

    The constructor computes the Choi matrix once, by :func:`kraus_to_choi`
    or by the exact transfer-to-Choi permutation, and keeps the Kraus
    operators only when it was given them.  ``kind`` names the form the
    channel was built from.  ``choi()`` is a copy, ``transfer()`` one
    reshuffle, and ``kraus()`` of a channel built from another form runs an
    eigendecomposition on every call; nothing else is cached.
    """

    __slots__ = ("kind", "dim_in", "dim_out", "_choi", "_kraus")

    def __init__(self, kind: str, data, dim_in: int, dim_out: int):
        if kind not in _KINDS:
            raise ValueError(f"representation must be one of {_KINDS}, got {kind!r}")
        dim_in, dim_out = checked_dims((dim_in, dim_out), "dim_in and dim_out")
        if kind == "kraus":
            self._kraus = tuple(_kraus_stack(data, (dim_out, dim_in)))
            choi = kraus_to_choi(self._kraus)
        else:
            m = _checked_form(kind, data, dim_in, dim_out)
            self._kraus = None
            choi = m if kind == "choi" else _reshuffle(m, dim_in, dim_out, "choi")
        self.kind = kind
        self.dim_in = dim_in
        self.dim_out = dim_out
        self._choi = read_only(choi)

    @classmethod
    def from_kraus(cls, ops) -> "Channel":
        stack = _kraus_stack(ops)
        return cls("kraus", stack, stack.shape[2], stack.shape[1])

    @classmethod
    def from_choi(cls, choi, dim_in: int, dim_out: int) -> "Channel":
        return cls("choi", choi, dim_in, dim_out)

    @classmethod
    def from_transfer(cls, t, dim_in: int, dim_out: int) -> "Channel":
        return cls("transfer", t, dim_in, dim_out)

    @classmethod
    def identity(cls, d: int) -> "Channel":
        (d,) = checked_dims((d,), "d")
        return cls.from_kraus([np.eye(d, dtype=complex)])

    def kraus(self) -> tuple[np.ndarray, ...]:
        return self._kraus or choi_to_kraus(self._choi, self.dim_in, self.dim_out)

    def choi(self) -> np.ndarray:
        return self._choi.copy()

    def transfer(self) -> np.ndarray:
        # reshuffling the copy keeps the result writable: for 1 -> 1 it is a view
        return _reshuffle(self.choi(), self.dim_in, self.dim_out, "transfer")

    def apply(self, m) -> np.ndarray:
        """Act on a single-system operator, through the transfer matrix."""
        return _act_on_operator(self.transfer(), m, self.dim_in)

    def __repr__(self) -> str:
        return f"Channel(kind={self.kind!r}, dim_in={self.dim_in}, dim_out={self.dim_out})"


def convert(channel: Channel, target: str) -> Channel:
    """Re-express a channel in the target representation.

    The underlying linear map is unchanged; round-tripping through any chain
    of representations reproduces the same Choi matrix up to eigensolver
    noise (well below 1e-10 at the dimensions used here).
    """
    if target not in _KINDS:
        raise ValueError(f"representation must be one of {_KINDS}, got {target!r}")
    if target == channel.kind:
        return channel
    return Channel(target, getattr(channel, target)(), channel.dim_in, channel.dim_out)


@dataclass(frozen=True)
class ChannelClassReport:
    """Membership residuals for the CP, trace-preserving, and unital classes.

    Residuals are spectral norms; each flag records whether its residual is
    within ``tol``.
    """

    is_cp: bool
    min_choi_eigenvalue: float
    is_tp: bool
    tp_residual: float
    is_unital: bool
    unitality_residual: float
    tol: float


def classify(channel: Channel, tol: float = 1e-10) -> ChannelClassReport:
    """Report how close a map is to being CP, trace preserving, and unital.

    ``tol`` follows the package's one tolerance rule: a negative or
    non-finite value is refused, since NaN or a negative bound fails every
    map and an infinite one passes every map.
    """
    check_tol(tol)
    c = channel.choi()
    c = (c + c.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(c)[0])
    dims = (channel.dim_in, channel.dim_out)
    tp_gap = partial_trace(c, dims, "B") - np.eye(channel.dim_in)
    unital_gap = partial_trace(c, dims, "A") - np.eye(channel.dim_out)
    tp_res = float(np.linalg.norm(tp_gap, 2))
    unital_res = float(np.linalg.norm(unital_gap, 2))
    return ChannelClassReport(
        is_cp=min_eig >= -tol,
        min_choi_eigenvalue=min_eig,
        is_tp=tp_res <= tol,
        tp_residual=tp_res,
        is_unital=unital_res <= tol,
        unitality_residual=unital_res,
        tol=tol,
    )


def apply_on_A(channel: Channel, state: BipartiteState) -> BipartiteState:
    """Apply ``channel (x) id_B`` to a bipartite state.

    The channel must be square on A, and must be trace preserving for the
    result to pass state validation.
    """
    da, db = state.dims
    if channel.dim_in != channel.dim_out or channel.dim_in != da:
        raise ValueError(
            f"channel must map the {da}-dimensional subsystem to itself, "
            f"got {channel.dim_in} -> {channel.dim_out}"
        )
    return BipartiteState(act_on_first(channel.transfer(), state.matrix, state.dims), da, db)


def apply_on_B(channel: Channel, state: BipartiteState) -> BipartiteState:
    """Apply ``id_A (x) channel`` to a bipartite state, as :func:`apply_on_A` on the swapped sides."""
    return swap_sides(apply_on_A(channel, swap_sides(state)))


def random_cptp(d: int, env: int, seed) -> Channel:
    """Random channel from a Haar isometry into ``d * env`` dimensions.

    The Kraus operators are the ``env`` blocks of the isometry, so the Kraus
    count equals the environment dimension and ``env=1`` gives a unitary
    channel.
    """
    d, env = checked_dims((d, env), "d and env")
    u = haar_unitary(d * env, seed)
    v = u[:, :d]
    ops = [v[e * d : (e + 1) * d, :] for e in range(env)]
    return Channel.from_kraus(ops)


def random_unitary_mixture(d: int, k: int, seed) -> Channel:
    """Random unitary operation: a Dirichlet-weighted mixture of Haar unitaries."""
    d, k = checked_dims((d, k), "d and k")
    g = _rng(seed)
    p = g.dirichlet(np.ones(k))
    ops = [math.sqrt(p[i]) * haar_unitary(d, g) for i in range(k)]
    return Channel.from_kraus(ops)


def schur_channel(corr) -> Channel:
    """Entrywise (Schur product) channel M -> corr * M.

    ``corr`` must be positive semidefinite with unit diagonal.  The channel
    is unital and trace preserving and fixes every diagonal matrix; the
    all-ones matrix gives the identity channel and the identity matrix gives
    full dephasing in the computational basis.  The Kraus operators are the
    diagonal matrices of the d x 1 Kraus operators that :func:`choi_to_kraus`
    reads from ``corr`` as the Choi matrix of a 1 -> d map, so a non-PSD
    ``corr`` is refused by that function's CP rule and message.
    """
    d = len(np.atleast_1d(corr))
    c = checked_matrix(corr, (d, d), "correlation matrix")
    if np.abs(np.diagonal(c) - 1.0).max() > CP_TOL:
        raise ValueError("correlation matrix must have unit diagonal")
    return Channel.from_kraus([np.diag(k[:, 0]) for k in choi_to_kraus(c, 1, d)])
