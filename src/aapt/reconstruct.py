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

No regularization and no projection back onto the channel set is performed;
CP and TP violations of the recovered map are reported as first-class
numbers instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, apply_on_A, apply_on_B, choi_to_transfer
from .linalg import _svd_pinv, partial_trace
from .states import BipartiteState, orient


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

    The probe must be faithful on that side without support restriction
    (rank deficiency leaves the linear system underdetermined, and the call
    refuses rather than silently regularizing).  When ``output`` really is
    the image of the probe under a channel, the recovery is exact up to
    floating point.
    """
    probe_w = orient(probe, side)
    if probe.dims != output.dims:
        raise ValueError(f"probe dims {probe.dims} and output dims {output.dims} differ")
    inverse, condition = _invert_probe(probe_w, side, tol)
    return _recover(orient(output, side), inverse, condition, None if truth is None else truth.choi())


def _invert_probe(probe_w: BipartiteState, side: str, tol: float) -> tuple[np.ndarray, float]:
    """Right pseudo-inverse of the oriented probe's B -> A map, and its condition number."""
    ev, s, inverse = _svd_pinv(choi_to_transfer(probe_w.matrix, *probe_w.dims).T, tol)
    required = probe_w.dim_a**2
    if ev.rank < required:
        raise NotFaithfulProbeError(
            f"probe is not faithful on {side} (map rank {ev.rank} < {required}); reconstruction refused"
        )
    return inverse, float(s[0] / s[required - 1])


def _recover(
    output_w: BipartiteState, inverse: np.ndarray, condition: float, truth_choi: np.ndarray | None
) -> ReconstructionReport:
    """Report for the channel that maps the probe's B -> A map to the oriented output's."""
    d = output_w.dim_a
    channel = Channel.from_transfer(choi_to_transfer(output_w.matrix, *output_w.dims).T @ inverse, d, d)
    choi = channel.choi()
    hermitian = (choi + choi.conj().T) / 2
    return ReconstructionReport(
        channel=channel,
        condition=condition,
        cp_deviation=max(0.0, -float(np.linalg.eigvalsh(hermitian)[0])),
        tp_deviation=float(np.linalg.norm(partial_trace(hermitian, (d, d), "B") - np.eye(d))),
        choi_error=None if truth_choi is None else float(np.linalg.norm(choi - truth_choi)),
    )


def _perturb(state: BipartiteState, noise: float, g: np.random.Generator) -> BipartiteState:
    """Add a traceless Hermitian kick of Frobenius norm ``noise``, then repair.

    The perturbed matrix is projected back to positive semidefinite by
    eigenvalue clamping and renormalized to unit trace.
    """
    n = state.matrix.shape[0]
    x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    h = (x + x.conj().T) / 2
    h -= (np.trace(h) / n) * np.eye(n)
    h *= noise / np.linalg.norm(h)
    w, v = np.linalg.eigh(state.matrix + h)
    w = np.clip(w, 0.0, None)
    m = (v * w) @ v.conj().T
    m /= np.trace(m).real
    return BipartiteState(m, state.dim_a, state.dim_b)


def noise_stress(
    probe: BipartiteState,
    truth: Channel,
    noise: float,
    trials: int,
    seed,
    side: str = "A",
    tol: float = 0.0,
) -> list[ReconstructionReport]:
    """Reconstruction accuracy under perturbed output states.

    Each trial perturbs the true output by a random traceless Hermitian
    matrix of Frobenius norm ``noise`` (re-projected to a valid state) and
    reconstructs; ``noise=0`` reduces to the exact setting.  Trials use
    seeds spawned per index, so the report list is deterministic.  The probe
    is inverted, and ``truth`` converted to its Choi matrix, once for all
    trials.  A 1x1 state has no traceless perturbation, so it takes only
    ``noise=0``.
    """
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if noise > 0 and probe.matrix.shape[0] == 1:
        raise ValueError("noise must be 0 for a 1x1 state, which has no traceless perturbation")
    probe_w = orient(probe, side)
    base = apply_on_A(truth, probe) if side == "A" else apply_on_B(truth, probe)
    inverse, condition = _invert_probe(probe_w, side, tol)
    truth_choi = truth.choi()
    reports = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        perturbed = base if noise == 0 else _perturb(base, noise, np.random.default_rng(child))
        reports.append(_recover(orient(perturbed, side), inverse, condition, truth_choi))
    return reports
