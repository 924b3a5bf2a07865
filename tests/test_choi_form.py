"""Every channel is held as its Choi matrix, and each witness-layer rule runs once.

A channel built from a Choi or transfer matrix reads both forms back bit for
bit, through ``convert`` chains too, since the two are entry permutations of
each other.  A Kraus-built channel forms its Choi matrix once, in the
constructor, whatever it is asked afterwards.  ``decompose`` checks trace
annihilation once; a witness builds its trace-annihilating map itself and
checks it never.  Mixing a channel with the identity adds Choi matrices and
forms no Kraus operators.
"""

import itertools

import numpy as np
import pytest

from aapt import channels, cli, witness
from aapt.channels import Channel, apply_on_A, choi_to_transfer, convert, random_cptp
from aapt.documents import save, transfer_document
from aapt.duality import TransferMatrix
from aapt.states import product_state

from helpers import random_complex

DIM_PAIRS = list(itertools.product(range(1, 5), repeat=2))


@pytest.mark.parametrize("dim_in, dim_out", DIM_PAIRS)
def test_a_choi_built_channel_round_trips_bit_exactly(dim_in, dim_out):
    n = dim_in * dim_out
    c = random_complex((n, n), seed=n)
    ch = Channel.from_choi(c, dim_in, dim_out)
    t = choi_to_transfer(c, dim_in, dim_out)
    assert np.array_equal(ch.choi(), c) and np.array_equal(ch.transfer(), t)
    as_transfer = convert(ch, "transfer")
    assert np.array_equal(as_transfer.choi(), c) and np.array_equal(as_transfer.transfer(), t)
    assert np.array_equal(convert(as_transfer, "choi").choi(), c)


@pytest.mark.parametrize("dim_in, dim_out", DIM_PAIRS)
def test_a_transfer_built_channel_round_trips_bit_exactly(dim_in, dim_out):
    t = random_complex((dim_out * dim_out, dim_in * dim_in), seed=dim_in + 7 * dim_out)
    ch = Channel.from_transfer(t, dim_in, dim_out)
    assert np.array_equal(ch.transfer(), t)
    as_choi = convert(ch, "choi")
    assert np.array_equal(as_choi.transfer(), t) and np.array_equal(as_choi.choi(), ch.choi())
    assert np.array_equal(convert(as_choi, "transfer").transfer(), t)


def test_a_kraus_built_channel_forms_its_choi_matrix_once(monkeypatch):
    ops = random_cptp(2, 3, seed=5).kraus()
    calls = []
    original = channels.kraus_to_choi

    def counting(ops):
        calls.append(1)
        return original(ops)

    monkeypatch.setattr(channels, "kraus_to_choi", counting)
    ch = Channel.from_kraus(ops)
    state = product_state(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
    for _ in range(3):
        ch.choi()
        ch.transfer()
        ch.apply(np.diag([1.0, 0.0]))
        apply_on_A(ch, state)
    assert len(calls) == 1


@pytest.fixture
def check_calls(monkeypatch):
    calls = []
    original = witness._check_trace_annihilating

    def counting(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(witness, "_check_trace_annihilating", counting)
    return calls


def test_a_witness_checks_no_trace_annihilation(check_calls):
    state = product_state(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
    assert witness.faithfulness_witness(state) is not None
    assert check_calls == []


def test_decompose_checks_trace_annihilation_once(check_calls, tmp_path):
    t = 0.3 * (random_cptp(2, 2, seed=22).transfer() - random_cptp(2, 3, seed=23).transfer())
    save(transfer_document(TransferMatrix(2, 2, t)), tmp_path / "d.json")
    out = [str(tmp_path / "k0.json"), str(tmp_path / "k1.json")]
    assert cli.main(["decompose", str(tmp_path / "d.json"), "--out", *out]) == 0
    assert len(check_calls) == 1


def test_mixing_a_choi_built_channel_forms_no_kraus_operators(monkeypatch):
    calls = []
    original = channels.choi_to_kraus

    def counting(c, dim_in, dim_out):
        calls.append(1)
        return original(c, dim_in, dim_out)

    monkeypatch.setattr(channels, "choi_to_kraus", counting)
    ch = Channel.from_choi(random_cptp(3, 2, seed=8).choi(), 3, 3)
    mixed = witness.mix_with_identity(ch, 0.25)
    want = 0.75 * ch.choi() + 0.25 * Channel.identity(3).choi()
    assert calls == []
    assert mixed.kind == "choi" and np.array_equal(mixed.choi(), want)
