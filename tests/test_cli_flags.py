"""Command-line flags a mode would ignore are refused, and ``gen`` reads one A dimension flag.

``reconstruct`` synthesizes outputs from ``--channel`` under ``--noise``,
``--trials`` and ``--seed``; with an explicit output state document none of
them, nor ``--channel`` itself, would be read, so each is a usage error.
A negative ``--seed`` is refused by name in ``gen`` and ``reconstruct``.
``gen`` takes the A dimension as ``--da`` or its alias ``--d`` in every family
that has one.
"""

import pytest

from aapt import cli, random_cptp
from aapt.documents import channel_document, load, save

from helpers import run_cli


@pytest.fixture
def files(tmp_path):
    assert cli.main(["gen", "max-entangled", "--d", "2", "--out", str(tmp_path / "probe.json")]) == 0
    save(channel_document(random_cptp(2, 2, seed=20), {"cptp": "true"}), tmp_path / "truth.json")
    return tmp_path


@pytest.mark.parametrize(
    "flag, value", [("--noise", "0.5"), ("--trials", "3"), ("--seed", "9"), ("--channel", "truth.json")]
)
def test_reconstruct_refuses_channel_mode_flags_beside_an_output_state(files, capsys, flag, value):
    probe = str(files / "probe.json")
    setting = str(files / value) if flag == "--channel" else value
    assert cli.main(["reconstruct", probe, probe, flag, setting, "--out", str(files / "rep.json")]) == 2
    assert flag in capsys.readouterr().err
    assert not (files / "rep.json").exists()


def test_reconstruct_refusal_through_the_entry_point(files):
    result = run_cli("reconstruct", "probe.json", "probe.json", "--noise", "0.5", "--trials", "3", cwd=files)
    assert result.returncode == 2
    assert "--noise" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "product", "--seed", "-1"], "gen --seed must be at least 0, got -1"),
        (["gen", "random", "--seed", "-1"], "gen --seed must be at least 0, got -1"),
        (["gen", "cq", "--p", "0.5,0.5", "--sigmas", "random", "--seed", "-1"], "gen --seed must be at least 0, got -1"),
        (["reconstruct", "probe.json", "--channel", "truth.json", "--seed", "-2"], "reconstruct --seed must be at least 0, got -2"),
    ],
    ids=["gen_product", "gen_random", "gen_cq", "reconstruct_channel"],
)
def test_a_negative_seed_is_refused_by_flag(files, capsys, argv, message):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert cli.main([*argv, "--out", str(files / "out.json")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (files / "out.json").exists()


def test_channel_mode_defaults_match_the_explicit_values(files):
    implicit = ["reconstruct", str(files / "probe.json"), "--channel", str(files / "truth.json")]
    assert cli.main([*implicit, "--out", str(files / "a.json")]) == 0
    assert cli.main([*implicit, "--noise", "0", "--trials", "1", "--seed", "0", "--out", str(files / "b.json")]) == 0
    assert (files / "a.json").read_bytes() == (files / "b.json").read_bytes()
    meta = load(files / "a.json").meta
    assert (meta["noise"], meta["seed"]) == ("0", "0") and "trial" not in meta


@pytest.mark.parametrize("family", ["max-entangled", "product", "random", "prop4"])
@pytest.mark.parametrize("flag", ["--d", "--da"])
def test_gen_reads_the_a_dimension_from_either_flag(tmp_path, family, flag):
    assert cli.main(["gen", family, flag, "3", "--out", str(tmp_path / "s.json")]) == 0
    assert load(tmp_path / "s.json").dims[0] == 3


def test_gen_product_with_d_writes_a_three_by_three_state(tmp_path):
    assert run_cli("gen", "product", "--d", "3", "--out", "prod.json", cwd=tmp_path).returncode == 0
    assert list(load(tmp_path / "prod.json").dims) == [3, 3]


@pytest.mark.parametrize("family", ["max-entangled", "prop4"])
def test_the_two_spellings_write_the_same_bytes(tmp_path, family):
    for flag in ("--d", "--da"):
        assert cli.main(["gen", family, flag, "3", "--out", str(tmp_path / f"{flag[2:]}.json")]) == 0
    assert (tmp_path / "d.json").read_bytes() == (tmp_path / "da.json").read_bytes()
    assert load(tmp_path / "d.json").meta["d"] == "3"
