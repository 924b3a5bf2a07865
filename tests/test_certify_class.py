"""``certify --class`` names the channel class of a sensitivity verdict and nothing else.

Faithful mode decides faithfulness to all channels only, so a class given
there would be ignored; it is refused instead of answering another question.
"""

import pytest

from aapt.documents import load

from helpers import run_cli

PROP4 = ("gen", "prop4", "--d", "3", "--lambda", "0.5,0.3,0.2", "--out", "p4.json")


@pytest.fixture
def prop4(tmp_path):
    assert run_cli(*PROP4, cwd=tmp_path).returncode == 0
    return tmp_path


@pytest.mark.parametrize("cls", ["unitary", "unital"])
def test_a_class_in_faithful_mode_is_a_usage_error(prop4, cls):
    result = run_cli("certify", "p4.json", "--mode", "faithful", "--class", cls, "--out", "c.json", cwd=prop4)
    assert result.returncode == 2
    assert "--class applies to --mode sensitive only" in result.stderr
    assert not (prop4 / "c.json").exists()


def test_faithful_mode_without_a_class_still_decides(prop4):
    assert run_cli("certify", "p4.json", "--mode", "faithful", cwd=prop4).returncode == 1


@pytest.mark.parametrize(
    "args, cls", [((), "unital"), (("--class", "unitary"), "unitary"), (("--class", "unital"), "unital")]
)
def test_sensitive_mode_defaults_to_the_unital_class(prop4, args, cls):
    result = run_cli("certify", "p4.json", "--mode", "sensitive", *args, "--out", "s.json", cwd=prop4)
    assert result.returncode == 0
    assert load(prop4 / "s.json").meta["channel_class"] == cls
