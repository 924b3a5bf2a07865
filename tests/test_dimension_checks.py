"""Every dimension and count a caller hands in follows one rule, ``linalg.checked_dims``.

Each value must be a Python or numpy integer, not a ``bool``, and at
least 1.  Anything else (zero, a negative, a float even when it is whole, a
numpy float, ``True``, a string) is refused with a ValueError whose message
starts with the argument's name, rather than accepted, truncated or left to
numpy's own TypeError.  A numpy integer gives exactly the result of the
Python int of the same value.
"""

import re

import numpy as np
import pytest

from aapt import (
    BipartiteState,
    Channel,
    choi_to_kraus,
    choi_to_transfer,
    haar_unitary,
    hermitian_basis,
    map_to_state,
    max_entangled,
    noise_stress,
    partial_trace,
    partial_transpose,
    random_cptp,
    random_cq_state,
    random_density,
    random_state,
    random_unitary_mixture,
    state_to_map,
    transfer_to_choi,
)
from aapt import cli
from aapt.documents import MatrixDocument, channel_document, dumps, save, state_document
from aapt.duality import TransferMatrix
from aapt.reconstruct import ReconstructionReport

PROBE = random_state(2, 2, seed=3)
BAD = {"zero": 0, "negative": -1, "float": 2.0, "numpy_float": np.float64(2), "bool": True, "str": "2", "fraction": 2.7}

# name: (the label its refusal starts with, the call with the checked value in one slot; 2 is valid there)
ENTRY_POINTS = {
    "partial_trace": ("dims", lambda v: partial_trace(np.eye(4), (v, 2), "A")),
    "partial_transpose": ("dims", lambda v: partial_transpose(np.eye(4), (2, v), "B")),
    "haar_unitary": ("d", lambda v: haar_unitary(v, 1)),
    "hermitian_basis": ("d", hermitian_basis),
    "random_density": ("d and rank", lambda v: random_density(2, v, 1)),
    "BipartiteState": ("dim_a and dim_b", lambda v: BipartiteState(np.eye(4) / 4, v, 2)),
    "max_entangled": ("d", max_entangled),
    "random_state": ("dim_a and dim_b", lambda v: random_state(v, 2, seed=1)),
    "random_cq_state": ("dim_a and dim_b", lambda v: random_cq_state(2, v, seed=1)),
    "TransferMatrix": ("dim_in and dim_out", lambda v: TransferMatrix(v, 2, np.eye(4))),
    "map_to_state": ("dims", lambda v: map_to_state(state_to_map(PROBE), (v, 2))),
    "Channel": ("dim_in and dim_out", lambda v: Channel.from_choi(np.eye(4), 2, v)),
    "Channel.identity": ("d", Channel.identity),
    "transfer_to_choi": ("dim_in and dim_out", lambda v: transfer_to_choi(np.eye(4), v, 2)),
    "choi_to_transfer": ("dim_in and dim_out", lambda v: choi_to_transfer(np.eye(4), 2, v)),
    "choi_to_kraus": ("dim_in and dim_out", lambda v: choi_to_kraus(np.eye(4), v, 2)),
    "random_cptp": ("d and env", lambda v: random_cptp(2, v, 1)),
    "random_unitary_mixture": ("d and k", lambda v: random_unitary_mixture(2, v, 1)),
    "MatrixDocument": ("dims", lambda v: MatrixDocument("state", (v, 2), np.eye(4) / 4)),
    "noise_stress": ("trials", lambda v: noise_stress(PROBE, random_cptp(2, 2, 1), 1e-3, v, 1)),
}


def _payload(result):
    """What a result holds, as arrays or document text, so that two results can be compared exactly."""
    if isinstance(result, list):
        return [_payload(r) for r in result]
    if isinstance(result, MatrixDocument):
        return dumps(result)
    if isinstance(result, ReconstructionReport):
        result = result.channel
    if isinstance(result, Channel):
        return result.choi()
    return getattr(result, "matrix", result)


@pytest.mark.parametrize("value", BAD.values(), ids=BAD)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_dimension_by_name(name, value):
    label, call = ENTRY_POINTS[name]
    call(2)  # the valid value passes, so the failure below is the bad value's
    with pytest.raises(ValueError, match=rf"^{re.escape(label)} must be positive integers, got "):
        call(value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_numpy_integer_gives_the_result_of_the_python_int(name):
    _, call = ENTRY_POINTS[name]
    want, got = _payload(call(2)), _payload(call(np.int64(2)))
    assert len(got) == len(want)
    for g, w in zip(got, want) if isinstance(want, list) else [(got, want)]:
        assert np.array_equal(g, w)


def test_a_document_stores_its_dims_as_python_ints():
    doc = MatrixDocument("state", (np.int64(2), np.uint8(2)), np.eye(4) / 4)
    assert doc.dims == (2, 2) and all(type(d) is int for d in doc.dims)


def test_reconstruct_refuses_zero_trials_with_a_usage_exit(tmp_path, capsys):
    probe = save(state_document(PROBE), tmp_path / "probe.json")
    truth = save(channel_document(random_cptp(2, 2, 1)), tmp_path / "truth.json")
    assert cli.main(["reconstruct", str(probe), "--channel", str(truth), "--trials", "0"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: trials must be positive integers, got (0,)\n"
