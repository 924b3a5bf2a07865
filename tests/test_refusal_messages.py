"""Refusals that name their cause: non-number document data, and reconstruction through a support-restricted probe."""

import json

import pytest

from aapt import NotFaithfulProbeError, certify_faithful, random_state, reconstruct_channel
from aapt.documents import loads

from helpers import run_cli

NOT_NUMBERS = {
    "strings": [[["1", "0"]]],
    "booleans": [[[True, False]]],
    "null": [[[None, 0]]],
}


def _state_text(data) -> str:
    return json.dumps({"kind": "state", "dims": [1, 1], "data": data, "meta": {}})


@pytest.mark.parametrize("data", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_data_leaves_must_be_json_numbers(data, tmp_path):
    with pytest.raises(ValueError, match="data entries must be JSON numbers"):
        loads(_state_text(data))
    (tmp_path / "probe.json").write_text(_state_text(data))
    result = run_cli("certify", "probe.json", "--mode", "faithful", cwd=tmp_path)
    assert result.returncode == 2
    assert "data entries must be JSON numbers" in result.stderr


def test_integer_data_still_loads():
    doc = loads(_state_text([[[1, 0]]]))
    assert doc.data.dtype == complex
    assert doc.data.tolist() == [[1 + 0j]]


def test_reconstruction_refusal_names_the_support_restriction():
    probe = random_state(3, 2, rank=1, seed=3)
    cert = certify_faithful(probe, "A")
    assert cert.faithful and cert.dims == (2, 2)
    with pytest.raises(NotFaithfulProbeError) as info:
        reconstruct_channel(probe, probe, "A")
    assert "all of A" in str(info.value)
    assert "support restriction" in str(info.value)
