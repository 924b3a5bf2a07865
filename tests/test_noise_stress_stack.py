"""``noise_stress`` runs its trials as one stack, and repairs PSD only where Weyl's bound cannot rule it out.

The reference is the per-trial loop it replaces: one kick, one ``eigh``
clamp and one recovery per trial.  Where the clamp runs, the stacked pass
must reproduce that loop bit for bit; where Weyl's rule skips it, the
outputs m + h are renormalized without an eigendecomposition and agree
with the loop to rounding.
"""

import numpy as np
import pytest

from aapt import (
    Channel,
    apply_on_A,
    apply_on_B,
    choi_to_transfer,
    max_entangled,
    noise_stress,
    partial_trace,
    random_cptp,
    random_cq_state,
    random_state,
    reconstruct,
    reconstruct_channel,
)
from aapt.reconstruct import WEYL_ALLOWANCE
from aapt.states import orient

EPS = np.finfo(float).eps

# (name, probe, the sides on which it is faithful without support restriction)
PROBES = [
    ("random_2x2", random_state(2, 2, seed=181), "AB"),
    ("random_3x3", random_state(3, 3, seed=182), "AB"),
    ("random_2x3", random_state(2, 3, seed=183), "A"),
    ("max_entangled_2", max_entangled(2), "AB"),
    ("max_entangled_3", max_entangled(3), "AB"),
    ("cq_4x2", random_cq_state(4, 2, seed=184), "B"),
]
CASES = [(name, probe, side) for name, probe, sides in PROBES for side in sides]
NOISES = [0.0, 1e-6, 1e-3, 0.3]


def _oriented(m, dims, side):
    da, db = dims
    return m if side == "A" else m.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


def _loop_perturb(m, noise, g):
    n = m.shape[0]
    x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    h = (x + x.conj().T) / 2
    h -= (np.trace(h) / n) * np.eye(n)
    h *= noise / np.linalg.norm(h)
    w, v = np.linalg.eigh(m + h)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return out / np.trace(out).real


def _loop_recover(output_w, dims, inverse, truth_choi):
    d = dims[0]
    channel = Channel.from_transfer(choi_to_transfer(output_w, *dims).T @ inverse, d, d)
    choi = channel.choi()
    hermitian = (choi + choi.conj().T) / 2
    return (
        channel.transfer(),
        max(0.0, -float(np.linalg.eigvalsh(hermitian)[0])),
        float(np.linalg.norm(partial_trace(hermitian, (d, d), "B") - np.eye(d))),
        float(np.linalg.norm(choi - truth_choi)),
    )


def _loop_noise_stress(probe, truth, noise, trials, seed, side):
    """The per-trial loop: transfer matrix, cp, tp and Choi error of each trial."""
    probe_w = orient(probe, side)
    base = apply_on_A(truth, probe) if side == "A" else apply_on_B(truth, probe)
    inverse, _ = reconstruct._invert_probe(probe_w, side, 0.0)
    out = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        m = base.matrix if noise == 0 else _loop_perturb(base.matrix, noise, np.random.default_rng(child))
        out.append(_loop_recover(_oriented(m, base.dims, side), probe_w.dims, inverse, truth.choi()))
    return out


def _truth(kind, d, seed):
    return random_cptp(d, 1 if kind == "unitary" else 2, seed=seed)


def _output(probe, truth, side):
    return apply_on_A(truth, probe) if side == "A" else apply_on_B(truth, probe)


def _weyl_route(output, noise):
    n = output.matrix.shape[0]
    return noise > 0 and np.linalg.eigvalsh(output.matrix)[0] - noise > WEYL_ALLOWANCE * n * EPS


def _side_dim(probe, side):
    return probe.dim_a if side == "A" else probe.dim_b


@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("kind", ["unitary", "env2"])
@pytest.mark.parametrize("name, probe, side", CASES, ids=[f"{n}-{s}" for n, _, s in CASES])
def test_stacked_pass_matches_the_per_trial_loop(name, probe, side, kind, noise, trials):
    truth = _truth(kind, _side_dim(probe, side), seed=190)
    reports = noise_stress(probe, truth, noise, trials, seed=191, side=side)
    expected = _loop_noise_stress(probe, truth, noise, trials, 191, side)
    assert len(reports) == trials
    exact = not _weyl_route(_output(probe, truth, side), noise)
    for report, (transfer, cp, tp, choi_error) in zip(reports, expected):
        got = (report.channel.transfer(), report.cp_deviation, report.tp_deviation, report.choi_error)
        if exact:
            assert np.array_equal(got[0], transfer)
            assert got[1:] == (cp, tp, choi_error)
        else:
            assert np.abs(got[0] - transfer).max() <= 1e-13
            assert max(abs(a - b) for a, b in zip(got[1:], (cp, tp, choi_error))) <= 1e-13


def test_the_oracle_set_takes_both_routes():
    routes = {
        _weyl_route(_output(probe, _truth(kind, _side_dim(probe, side), seed=190), side), noise)
        for _, probe, side in CASES
        for kind in ("unitary", "env2")
        for noise in NOISES[1:]
    }
    assert routes == {True, False}


@pytest.mark.parametrize("name, probe, side", CASES, ids=[f"{n}-{s}" for n, _, s in CASES])
def test_a_faithful_probe_drops_no_singular_value(monkeypatch, name, probe, side):
    """The B -> A matrix is d_A^2 x d_B^2 of rank d_A^2 = min(d_A^2, d_B^2): no rank cut can be ambiguous."""
    found = []
    real = reconstruct._svd_pinv
    monkeypatch.setattr(reconstruct, "_svd_pinv", lambda m, tol: found.append(real(m, tol)) or found[-1])
    reconstruct_channel(probe, probe, side)
    [(ev, s, _)] = found
    assert ev.largest_dropped == 0 and ev.rank == len(s) == _side_dim(probe, side) ** 2
    assert ev.gap_ratio == np.inf


def _counter(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


@pytest.fixture
def counts(monkeypatch):
    return {name: _counter(monkeypatch, name) for name in ("svd", "eigh", "eigvalsh")}


def test_a_full_rank_output_far_from_the_noise_takes_no_eigh(counts):
    probe, truth, noise = random_state(2, 2, seed=181), random_cptp(2, 2, seed=192), 1e-6
    assert np.linalg.eigvalsh(_output(probe, truth, "A").matrix)[0] > 1e3 * noise
    noise_stress(probe, truth, noise, trials=5, seed=193)
    assert len(counts["eigh"]) == 0


@pytest.mark.parametrize("trials", [1, 5])
def test_a_pure_output_takes_one_stacked_eigh(counts, trials):
    truth = random_cptp(2, 1, seed=194)
    noise_stress(max_entangled(2), truth, 1e-3, trials=trials, seed=195)
    assert len(counts["eigh"]) == 1


@pytest.mark.parametrize("probe, noise", [(random_state(3, 3, seed=182), 1e-6), (max_entangled(3), 1e-3)])
def test_calls_per_stress_do_not_grow_with_trials(monkeypatch, probe, noise):
    truth = random_cptp(3, 2, seed=196)
    seen = {}
    for trials in (1, 4):
        with monkeypatch.context() as m:
            calls = {name: _counter(m, name) for name in ("svd", "eigh", "eigvalsh")}
            noise_stress(probe, truth, noise, trials=trials, seed=197)
            seen[trials] = {name: len(c) for name, c in calls.items()}
    assert seen[1] == seen[4]
    assert seen[4]["svd"] == 1 and seen[4]["eigh"] <= 1 and seen[4]["eigvalsh"] <= 3


def test_a_rank_deficient_output_at_tiny_noise_is_clamped(counts):
    probe, truth, noise = max_entangled(2), random_cptp(2, 2, seed=198), 1e-14
    base = _output(probe, truth, "A").matrix
    assert not _weyl_route(_output(probe, truth, "A"), noise)
    outputs = reconstruct._perturb(base, noise, np.random.SeedSequence(199).spawn(6))
    assert len(counts["eigh"]) == 1
    n = base.shape[0]
    for out in outputs:
        assert abs(np.trace(out) - 1) <= n * EPS
        assert np.linalg.eigvalsh(out)[0] >= -n * EPS

