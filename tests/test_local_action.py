"""Every local action goes through one transfer-matrix kernel, checked against the dense Kraus sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aapt import (
    Channel,
    ProjectiveMeasurement,
    TransferMatrix,
    apply_on_A,
    apply_on_B,
    convert,
    max_entangled,
    noise_stress,
    pcq_residual,
    random_cptp,
    random_state,
    reconstruct_channel,
    state_to_map,
)
from aapt import channels

from helpers import random_complex

SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
KINDS = ("kraus", "choi", "transfer")


def dense_kraus_sum(ops, m, left, right):
    """sum_k (1_left (x) K_k (x) 1_right) m (...)^dag, each factor built densely."""
    out = np.zeros_like(m)
    for k in ops:
        big = np.kron(np.kron(np.eye(left), k), np.eye(right))
        out += big @ m @ big.conj().T
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims", SHAPES)
def test_apply_on_either_side_matches_the_dense_kraus_sum(dims, kind):
    da, db = dims
    state = random_state(da, db, seed=31 + 7 * da + db)
    on_a, on_b = random_cptp(da, 2, seed=da), random_cptp(db, 3, seed=10 + db)
    out_a = apply_on_A(convert(on_a, kind), state).matrix
    out_b = apply_on_B(convert(on_b, kind), state).matrix
    assert np.abs(out_a - dense_kraus_sum(on_a.kraus(), state.matrix, 1, db)).max() <= 1e-13
    assert np.abs(out_b - dense_kraus_sum(on_b.kraus(), state.matrix, da, 1)).max() <= 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_a_two_to_three_map_acts_on_single_operators(kind):
    ops = [random_complex((3, 2), seed) for seed in (41, 42)]
    m = random_complex((2, 2), 43)
    expected = sum(k @ m @ k.conj().T for k in ops)
    channel = convert(Channel.from_kraus(ops), kind)
    assert np.abs(channel.apply(m) - expected).max() <= 1e-13
    assert np.abs(TransferMatrix(2, 3, channel.transfer()).apply(m) - expected).max() <= 1e-13


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_pcq_residual_matches_the_dense_pinching(dims, side):
    state = random_state(*dims, seed=51)
    d = dims[0] if side == "A" else dims[1]
    projectors = tuple(np.diag(np.eye(d)[i]).astype(complex) for i in range(d))
    left, right = (1, dims[1]) if side == "A" else (dims[0], 1)
    pinched = dense_kraus_sum(projectors, state.matrix, left, right)
    expected = float(np.linalg.norm(pinched - state.matrix))
    assert expected > 1e-3
    assert abs(pcq_residual(state, ProjectiveMeasurement(projectors), side) - expected) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), da=st.integers(1, 3), db=st.integers(1, 3), env=st.integers(1, 3))
def test_acting_on_a_composes_with_the_b_to_a_map(seed, da, db, env):
    state = random_state(da, db, seed=seed)
    channel = random_cptp(da, env, seed=seed)
    j_out = state_to_map(apply_on_A(channel, state), "b_to_a").matrix
    j_in = state_to_map(state, "b_to_a").matrix
    assert np.allclose(j_out, channel.transfer() @ j_in, atol=1e-13)


@pytest.mark.parametrize("kind", ["choi", "transfer"])
def test_acting_runs_no_kraus_decomposition(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Kraus decomposition ran")

    monkeypatch.setattr(channels, "choi_to_kraus", refuse)
    state = random_state(2, 3, seed=61)
    apply_on_A(convert(random_cptp(2, 2, seed=62), kind), state)
    apply_on_B(convert(random_cptp(3, 2, seed=63), kind), state)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_reconstruction_decomposes_the_probe_once(svd_calls):
    probe = max_entangled(3)
    reconstruct_channel(probe, apply_on_A(random_cptp(3, 2, seed=71), probe))
    assert len(svd_calls) == 1


def test_noise_stress_decomposes_the_probe_once(svd_calls):
    noise_stress(max_entangled(2), random_cptp(2, 2, seed=72), noise=1e-3, trials=4, seed=73)
    assert len(svd_calls) == 1
