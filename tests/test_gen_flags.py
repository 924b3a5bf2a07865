"""``gen`` refuses every option its family does not read.

Each family reads a fixed set of options (``cli.FAMILIES``); any other one
given on the command line, even at its default value, is a usage error
naming the option, where it was once ignored without a word.
"""

import pytest

from aapt import cli
from aapt.documents import load

# one valid value per option; --d is the alias of --da
VALUES = {
    "--da": "2",
    "--d": "2",
    "--db": "2",
    "--rank": "1",
    "--p": "1",
    "--lambda": "0.6,0.4",
    "--sigmas": "basis",
    "--seed": "0",
}
READS = {
    "max-entangled": {"--da", "--d"},
    "prop4": {"--da", "--d", "--lambda"},
    "product": {"--da", "--d", "--db", "--seed"},
    "random": {"--da", "--d", "--db", "--rank", "--seed"},
    "cq": {"--p", "--db", "--sigmas", "--seed"},
}
UNREAD = [(family, flag) for family, reads in READS.items() for flag in VALUES if flag not in reads]


def _base(family):
    return ["gen", family, *(["--p", "1"] if family == "cq" else [])]


@pytest.mark.parametrize("family, flag", UNREAD)
def test_gen_refuses_an_option_its_family_does_not_read(tmp_path, capsys, family, flag):
    out = tmp_path / "s.json"
    assert cli.main([*_base(family), flag, VALUES[flag], "--out", str(out)]) == cli.EXIT_USAGE
    name = "da" if flag == "--d" else flag[2:]
    assert capsys.readouterr().err == f"error: gen {family} does not read --{name}\n"
    assert not out.exists()


@pytest.mark.parametrize("family, flag", [(f, flag) for f, reads in READS.items() for flag in sorted(reads)])
def test_gen_accepts_every_option_its_family_reads(tmp_path, family, flag):
    extra = [] if (family, flag) == ("cq", "--p") else [flag, VALUES[flag]]
    assert cli.main([*_base(family), *extra, "--out", str(tmp_path / "s.json")]) == cli.EXIT_OK


@pytest.mark.parametrize("d, spectrum", [("3", "0.6,0.4"), ("2", "0.5,0.3,0.2")])
def test_prop4_refuses_a_dimension_that_does_not_match_its_spectrum(tmp_path, capsys, d, spectrum):
    assert cli.main(["gen", "prop4", "--d", d, "--lambda", spectrum, "--out", str(tmp_path / "s.json")]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["max-entangled", "prop4"])
def test_families_without_a_seed_still_record_seed_zero(tmp_path, family):
    assert cli.main(["gen", family, "--out", str(tmp_path / "s.json")]) == 0
    assert load(tmp_path / "s.json").meta["seed"] == "0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["random", "--da", "0"], "gen --da must be at least 1, got 0"),
        (["product", "--da", "2", "--db", "-1"], "gen --db must be at least 0, got -1"),
        (["cq", "--p", "0.5,0.5", "--db", "-1"], "gen --db must be at least 0, got -1"),
    ],
    ids=["random_da_0", "product_db_-1", "cq_db_-1"],
)
def test_gen_refuses_a_dimension_below_its_least_value_by_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "s.json"
    assert cli.main(["gen", *argv, "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("family, dims", [("product", (2, 2)), ("random", (2, 2)), ("cq", (1, 1))])
def test_gen_db_zero_still_means_the_family_default(tmp_path, family, dims):
    assert cli.main([*_base(family), "--db", "0", "--out", str(tmp_path / "s.json")]) == cli.EXIT_OK
    assert tuple(load(tmp_path / "s.json").dims) == dims
