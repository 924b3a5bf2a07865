"""Channel recovery from the output of a faithful probe.

Applying an unknown channel to one side of a correlated probe turns channel
tomography into state tomography: the output state's B -> A map is the
channel composed with the probe's B -> A map.  When the probe is faithful on
A its map has full row rank |A|^2, so a right pseudo-inverse recovers the
channel transfer matrix exactly,

    T = J_out @ pinv(J_in).

Both maps are bare arrays reshuffled from state matrices that their
``BipartiteState`` already checked, so nothing is re-validated on the way;
the recovered T is checked once, as it enters its ``Channel``.

One routine recovers a stack of outputs: one reshuffle and one product with
the inverse for all of them, then one stacked spectrum for the CP
deviations, and one report per output.  ``reconstruct_channel`` hands it a
stack of one, ``noise_stress`` the stack of its perturbed outputs, one per
seeded trial.  A perturbed output m + h, with ||h||_2 <= ||h||_F = noise, is
positive semidefinite by Weyl's inequality whenever lambda_min(m) - noise
exceeds the rounding allowance ``WEYL_ALLOWANCE * n * eps`` (a density
matrix has spectral norm at most 1), and is then only renormalized; only
otherwise are its eigenvalues clamped at 0 first.

No regularization and no projection back onto the channel set is performed;
CP and TP violations of the recovered map are reported as first-class
numbers instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _reshuffle, apply_on_A, apply_on_B
from .linalg import _svd_pinv, _trace_out, check_tol, checked_dims, checked_seed
from .states import BipartiteState, _oriented_matrix, orient

WEYL_ALLOWANCE = 4


class NotFaithfulProbeError(ValueError):
    """Raised when channel recovery is attempted through a rank-deficient probe."""


@dataclass(frozen=True)
class ReconstructionReport:
    """Recovered channel plus the physicality and conditioning diagnostics.

    ``cp_deviation`` is the negative part of the recovered Choi spectrum
    (clamped at 0), ``tp_deviation`` the distance of its output-trace from
    the identity, ``condition`` the singular value ratio of the probe's
    B -> A matrix over its required rank, and ``choi_error`` the Frobenius
    distance to the ground-truth Choi matrix when one was supplied.
    """

    channel: Channel
    condition: float
    cp_deviation: float
    tp_deviation: float
    choi_error: float | None = None


def reconstruct_channel(
    probe: BipartiteState,
    output: BipartiteState,
    side: str = "A",
    tol: float = 0.0,
    truth: Channel | None = None,
) -> ReconstructionReport:
    """Recover the channel that turned ``probe`` into ``output`` on one side.

    The probe must be faithful on all of that side, without support
    restriction: rank deficiency leaves the linear system underdetermined,
    and the call raises :class:`NotFaithfulProbeError` rather than silently
    regularizing.  The refusal says "not faithful on all of" the side,
    because ``certify_faithful`` may still call the probe faithful once its
    support is restricted; recovery on that support alone is not done.
    When ``output`` really is the image of the probe under a channel, the
    recovery is exact up to floating point.
    """
    probe_w = orient(probe, side)
    if probe.dims != output.dims:
        raise ValueError(f"probe dims {probe.dims} and output dims {output.dims} differ")
    inverse, condition = _invert_probe(probe_w, side, tol)
    truth_choi = None if truth is None else truth.choi()
    return _recover(orient(output, side).matrix[None], probe_w.dims, inverse, condition, truth_choi)[0]


def _invert_probe(probe_w: BipartiteState, side: str, tol: float) -> tuple[np.ndarray, float]:
    """Right pseudo-inverse of the oriented probe's B -> A map, and its condition number."""
    ev, s, inverse = _svd_pinv(_reshuffle(probe_w.matrix, *probe_w.dims, "transfer").T, tol)
    required = probe_w.dim_a**2
    if ev.rank < required:
        raise NotFaithfulProbeError(
            f"probe is not faithful on all of {side} (map rank {ev.rank} < {required}); "
            "reconstruction needs full rank without support restriction"
        )
    return inverse, float(s[0] / s[required - 1])


def _recover(
    outputs_w: np.ndarray, dims: tuple[int, int], inverse: np.ndarray, condition: float, truth_choi: np.ndarray | None
) -> list[ReconstructionReport]:
    """One report per oriented output matrix on ``dims`` in the stack ``outputs_w``.

    Each reports the channel that maps the probe's B -> A map to that of its
    output; the norms are taken per matrix.
    """
    da, db = dims
    transfers = _reshuffle(outputs_w, da, db, "transfer").swapaxes(1, 2) @ inverse
    chois = _reshuffle(transfers, da, da, "choi")
    hermitian = (chois + chois.conj().swapaxes(1, 2)) / 2
    lowest = np.linalg.eigvalsh(hermitian)[:, 0]
    tp_gaps = _trace_out(hermitian, (da, da), "B") - np.eye(da)
    return [
        ReconstructionReport(
            channel=Channel.from_transfer(t, da, da),
            condition=condition,
            cp_deviation=max(0.0, -float(low)),
            tp_deviation=float(np.linalg.norm(gap)),
            choi_error=None if truth_choi is None else float(np.linalg.norm(choi - truth_choi)),
        )
        for t, choi, low, gap in zip(transfers, chois, lowest, tp_gaps)
    ]


def _perturb(m: np.ndarray, noise: float, seeds: list[np.random.SeedSequence]) -> np.ndarray:
    """The stack of ``m`` plus one traceless Hermitian kick of Frobenius norm ``noise`` per seed, repaired.

    Each kick is drawn from its own seed, real part then imaginary part.
    The sums are clamped back to positive semidefinite only when Weyl's
    bound (see the module docstring) does not already show they are, then
    renormalized to unit trace, so the stack holds density matrices by
    construction and is not validated again.
    """
    n = m.shape[0]
    draws = [np.random.default_rng(seed) for seed in seeds]
    x = np.stack([g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)) for g in draws])
    h = (x + x.conj().swapaxes(1, 2)) / 2
    h -= (np.trace(h, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    h *= noise / np.array([np.linalg.norm(k) for k in h])[:, None, None]
    out = m + h
    if np.linalg.eigvalsh(m)[0] - noise <= WEYL_ALLOWANCE * n * np.finfo(float).eps:
        w, v = np.linalg.eigh(out)
        out = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(1, 2)
    return out / np.trace(out, axis1=1, axis2=2).real[:, None, None]


def noise_stress(
    probe: BipartiteState,
    truth: Channel,
    noise: float,
    trials: int,
    seed,
    side: str = "A",
    tol: float = 0.0,
) -> list[ReconstructionReport]:
    """Reconstruction accuracy under perturbed output states, one report per seeded trial.

    Each trial perturbs the true output by a random traceless Hermitian
    matrix of Frobenius norm ``noise`` and reconstructs; ``noise=0`` reduces
    to the exact setting.  Trials use seeds spawned per index from ``seed``,
    which follows :func:`aapt.linalg.checked_seed`, so the report list is
    deterministic.  The trials run as one stack: the probe is
    inverted, ``truth`` converted to its Choi matrix and the true output's
    smallest eigenvalue read once for all of them.  A perturbed output is
    re-projected to a valid state (eigenvalues clamped at 0, unit trace)
    only where Weyl's bound, lambda_min - noise above ``WEYL_ALLOWANCE * n
    * eps``, cannot show that it is one already; otherwise it is only
    renormalized.  A 1x1 state has no traceless perturbation, so it takes
    only ``noise=0``.
    """
    check_tol(noise, "noise")
    (trials,) = checked_dims((trials,), "trials")
    if noise > 0 and probe.matrix.shape[0] == 1:
        raise ValueError("noise must be 0 for a 1x1 state, which has no traceless perturbation")
    probe_w = orient(probe, side)
    base = apply_on_A(truth, probe) if side == "A" else apply_on_B(truth, probe)
    inverse, condition = _invert_probe(probe_w, side, tol)
    seeds = np.random.SeedSequence(checked_seed(seed)).spawn(trials)
    m = base.matrix
    outputs = np.broadcast_to(m, (trials, *m.shape)) if noise == 0 else _perturb(m, noise, seeds)
    return _recover(_oriented_matrix(outputs, base.dims, side), probe_w.dims, inverse, condition, truth.choi())
