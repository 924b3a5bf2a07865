"""Each public fact of the package is declared once: ``aapt.__all__``, the CLI's options and its side and class choices."""

import argparse
import inspect

import pytest

import aapt
from aapt import cli, sensitivity, states


def test_all_is_sorted_and_holds_only_the_package_classes_and_functions():
    assert aapt.__all__ == sorted(aapt.__all__)
    for name in aapt.__all__:
        obj = getattr(aapt, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name
        assert obj.__module__.startswith("aapt."), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from aapt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == aapt.__all__
    assert len(namespace) == 63


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _option(command: str, flag: str) -> argparse.Action:
    return next(a for a in _subparsers()[command]._actions if flag in a.option_strings)


OPTIONS = {
    "gen": {"--da", "--d", "--db", "--rank", "--p", "--lambda", "--sigmas", "--seed", "--out"},
    "certify": {"--side", "--tol", "--mode", "--class", "--out"},
    "witness": {"--side", "--tol", "--out"},
    "reconstruct": {"--side", "--tol", "--channel", "--noise", "--trials", "--seed", "--out"},
    "decompose": {"--out"},
}


def test_each_command_takes_exactly_its_options():
    read = {
        command: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for command, parser in _subparsers().items()
    }
    assert read == OPTIONS


@pytest.mark.parametrize("flag", ["--side", "--tol"])
def test_the_rank_cut_options_are_on_exactly_the_deciding_commands(flag):
    assert {command for command, flags in OPTIONS.items() if flag in flags} == {"certify", "witness", "reconstruct"}


@pytest.mark.parametrize("command", ["certify", "witness", "reconstruct"])
def test_side_choices_are_the_library_sides(command):
    assert _option(command, "--side").choices is states.SIDES


def test_class_choices_are_the_library_channel_classes():
    assert _option("certify", "--class").choices is sensitivity.CHANNEL_CLASSES
