"""The benchmark's own linear algebra, written from the definitions.

Nothing here imports ``aapt``: the workloads draw their inputs from these
generators and check the package's outputs against these computations, so
a fault in the package cannot hide by agreeing with itself.

Conventions are the ones the package documents: composite index
``i_a * dim_b + i_b``, Choi matrix ``C = sum_ij |i><j| (x) E(|i><j|)`` on
input (x) output, and transfer matrices acting on column-stacked operators.
"""

from __future__ import annotations

import numpy as np


# Tolerances shared by the workloads that check witnesses and reconstructions.
WITNESS_OUTPUT_TOL = 1e-9
WITNESS_CHANNEL_GAP_MIN = 1e-3
CPTP_TOL = 1e-10
# floating-point allowance on top of the analytic reconstruction bound
ROUNDOFF = 1e-11


class CheckFailure(Exception):
    """An output of the package is wrong; the operation counts as failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- generators --------------------------------------------------------------


def ginibre(rows: int, cols: int, g: np.random.Generator) -> np.ndarray:
    return (g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))) / np.sqrt(2)


def wishart_density(n: int, g: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr."""
    m = ginibre(n, n, g)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def cq_matrix(p: np.ndarray, sigmas: list[np.ndarray]) -> np.ndarray:
    """sum_i p_i |i><i| (x) sigma_i as a block-diagonal matrix."""
    db = sigmas[0].shape[0]
    out = np.zeros((p.size * db, p.size * db), dtype=complex)
    for i, (w, s) in enumerate(zip(p, sigmas)):
        out[i * db : (i + 1) * db, i * db : (i + 1) * db] = w * s
    return out


def max_entangled_matrix(d: int) -> np.ndarray:
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1 / np.sqrt(d)
    return np.outer(phi, phi.conj())


def distinct_spectrum(d: int, g: np.random.Generator) -> np.ndarray:
    """Probability vector with pairwise distinct entries.

    The raw weights are at least 0.3 apart and sum to at most
    d + 0.15 d (d - 1), so after normalising the entries are at least
    0.3 / (d + 0.15 d (d - 1)) apart.
    """
    weights = np.sort(g.uniform(0.5, 1.0, d)) + 0.3 * np.arange(d)
    return weights / weights.sum()


def haar_isometry_kraus(d: int, env: int, g: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random channel: the blocks of a Haar isometry."""
    q, r = np.linalg.qr(ginibre(d * env, d * env, g))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    v = u[:, :d]
    return [v[e * d : (e + 1) * d, :].copy() for e in range(env)]


# -- channels, from the definitions -------------------------------------------


def choi_from_kraus(kraus: list[np.ndarray]) -> np.ndarray:
    """C = sum_ij |i><j| (x) E(|i><j|) with E(X) = sum_k K X K^dag."""
    d_out, d_in = kraus[0].shape
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            c[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out] = sum(k @ unit @ k.conj().T for k in kraus)
    return c


def transfer_from_kraus(kraus: list[np.ndarray]) -> np.ndarray:
    """Matrix T with T vec(X) = vec(E(X)), vec stacking columns."""
    d_out, d_in = kraus[0].shape
    t = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            t[:, j * d_in + i] = sum(k @ unit @ k.conj().T for k in kraus).reshape(-1, order="F")
    return t


def choi_from_transfer(t: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Choi matrix of the map whose column-stacked action is ``t``."""
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            image = t[:, j * d_in + i].reshape((d_out, d_out), order="F")
            c[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out] = image
    return c


def transfer_from_choi(c: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    t = np.zeros((d_out * d_out, d_in * d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            t[:, j * d_in + i] = c[i * d_out : (i + 1) * d_out, j * d_out : (j + 1) * d_out].reshape(-1, order="F")
    return t


def apply_choi_on_a(c: np.ndarray, rho: np.ndarray, d_in: int, d_out: int, db: int) -> np.ndarray:
    """(E (x) id)(rho) = sum_ij E(|i><j|) (x) rho_ij, with E(|i><j|) read from the Choi blocks."""
    c4 = c.reshape(d_in, d_out, d_in, d_out)
    r4 = rho.reshape(d_in, db, d_in, db)
    return np.einsum("iajc,ibjd->abcd", c4, r4).reshape(d_out * db, d_out * db)


def require_cptp(c: np.ndarray, d_in: int, d_out: int, tol: float, label: str) -> None:
    """The Choi matrix is Hermitian and PSD, and its trace over the output is 1 on the input."""
    require(float(np.linalg.norm(c - c.conj().T)) <= tol, f"{label}: Choi matrix not Hermitian")
    negative = -float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
    require(negative <= tol, f"{label}: not completely positive (eigenvalue {-negative:.3e})")
    c4 = c.reshape(d_in, d_out, d_in, d_out)
    tp = float(np.linalg.norm(np.trace(c4, axis1=1, axis2=3) - np.eye(d_in)))
    require(tp <= tol, f"{label}: not trace preserving ({tp:.3e})")


# -- states and probe maps -----------------------------------------------------


def require_density(m: np.ndarray, tol: float, label: str) -> None:
    require(m.ndim == 2 and m.shape[0] == m.shape[1], f"{label}: not a square matrix")
    require(bool(np.all(np.isfinite(m))), f"{label}: non-finite entries")
    require(float(np.linalg.norm(m - m.conj().T)) <= tol, f"{label}: not Hermitian")
    require(abs(np.trace(m).real - 1.0) <= tol, f"{label}: trace {np.trace(m).real!r} is not 1")
    require(float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]) >= -tol, f"{label}: not positive semidefinite")


def realignment(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    """R[(a, a'), (b, b')] = rho[a b, a' b'].

    R and the matrix of the probe's B -> A map, X -> Tr_B[(1 (x) X^T) rho],
    differ only by permutations of their rows and columns, so they share
    their rank and singular values.
    """
    return rho.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def probe_sigma(rho: np.ndarray, da: int, db: int) -> float:
    """The d_A^2-th singular value of the probe's B -> A map."""
    s = np.linalg.svd(realignment(rho, da, db), compute_uv=False)
    return float(s[da * da - 1]) if s.size >= da * da else 0.0


def reconstruction_bound(noise: float, n: int, sigma: float) -> float:
    """Largest Choi error (Frobenius) a reconstruction at output noise ``noise`` may show.

    The output is perturbed by a Hermitian kick of norm ``noise``, clamped
    to the PSD cone (a non-expansive projection, so still within ``noise``)
    and renormalised, whose trace changed by at most sqrt(n) * noise.  The
    realigned error reaches the transfer matrix through the pseudo-inverse,
    which scales it by at most 1 / sigma.
    """
    root = np.sqrt(n)
    return (1 + root) * noise / ((1 - root * noise) * sigma)


def require_projective_measurement(projectors: list[np.ndarray], d: int, tol: float, label: str) -> None:
    require(len(projectors) >= 2, f"{label}: {len(projectors)} projector(s), need at least two")
    total = np.zeros((d, d), dtype=complex)
    for i, p in enumerate(projectors):
        require(p.shape == (d, d), f"{label}: projector of shape {p.shape} on a {d}-dimensional side")
        require(float(np.linalg.norm(p - p.conj().T)) <= tol, f"{label}: projector {i} not Hermitian")
        require(float(np.linalg.norm(p @ p - p)) <= tol, f"{label}: projector {i} not idempotent")
        total += p
        for j, q in enumerate(projectors[i + 1 :], start=i + 1):
            require(float(np.linalg.norm(p @ q)) <= tol, f"{label}: projectors {i} and {j} not orthogonal")
    require(float(np.linalg.norm(total - np.eye(d))) <= tol, f"{label}: projectors do not sum to 1")


def pinch(rho: np.ndarray, projectors: list[np.ndarray], da: int, db: int, side: str) -> np.ndarray:
    """sum_P (P (x) 1) rho (P (x) 1), or with 1 (x) P when the measurement is on B."""
    out = np.zeros_like(rho, dtype=complex)
    for p in projectors:
        big = np.kron(p, np.eye(db)) if side == "A" else np.kron(np.eye(da), p)
        out += big @ rho @ big
    return out


# -- what each probe family fixes ------------------------------------------------


def expected_rank(family: str, da: int, db: int) -> int:
    """Rank of the probe's B -> A map after support restriction."""
    if family in ("random", "max-entangled"):
        return min(da, db) ** 2
    if family == "product":
        return 1
    if family == "cq":
        return da
    if family == "unitary-faithful":
        return 2
    raise ValueError(f"no rank known for the {family} family")


def expected_nullity(family: str, side: str, da: int, db: int) -> int:
    """Nullity of the commutator map of the measured side."""
    if family == "product":
        return da if side == "A" else db
    if family == "cq":
        return da if side == "A" else 1
    if family in ("random", "max-entangled") or (family == "unitary-faithful" and side == "A"):
        return 1
    raise ValueError(f"no nullity known for the {family} family on side {side}")


# -- witnesses and reconstructions ------------------------------------------------


def check_witness_pair(c0: np.ndarray, c1: np.ndarray, rho: np.ndarray, dims) -> None:
    """The Choi matrices K0 and K1 on side A are CPTP, agree on the probe and differ as channels."""
    da, db = dims
    for label, c in (("K0", c0), ("K1", c1)):
        require(c.shape == (da * da, da * da), f"{label}: Choi matrix of shape {c.shape} on a {da}-dimensional side")
        require_cptp(c, da, da, CPTP_TOL, label)
    gap = float(np.linalg.norm(apply_choi_on_a(c0, rho, da, da, db) - apply_choi_on_a(c1, rho, da, da, db)))
    require(gap <= WITNESS_OUTPUT_TOL, f"witness outputs on the probe differ by {gap:.3e}")
    require(float(np.linalg.norm(c0 - c1)) >= WITNESS_CHANNEL_GAP_MIN, "witness channels are the same channel")


def check_reconstructions(transfers, truth_choi: np.ndarray, rho: np.ndarray, dims, noise: float) -> None:
    """Every recovered transfer matrix lies within the noise bound of the truth."""
    da, db = dims
    sigma = probe_sigma(rho, da, db)
    bound = reconstruction_bound(noise, da * db, sigma) + ROUNDOFF / sigma
    for i, t in enumerate(transfers):
        error = float(np.linalg.norm(choi_from_transfer(t, da, da) - truth_choi))
        require(error <= bound, f"trial {i}: Choi error {error:.3e} exceeds the bound {bound:.3e}")
