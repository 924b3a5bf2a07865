"""Each public fact of the package is declared once: ``aapt.__all__`` and the CLI's side and class choices."""

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


def _option(command: str, flag: str) -> argparse.Action:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if flag in a.option_strings)


@pytest.mark.parametrize("command", ["certify", "witness", "reconstruct"])
def test_side_choices_are_the_library_sides(command):
    assert _option(command, "--side").choices is states.SIDES


def test_class_choices_are_the_library_channel_classes():
    assert _option("certify", "--class").choices is sensitivity.CHANNEL_CLASSES
