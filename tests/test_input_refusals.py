"""Entry points refuse input they cannot use by name, not with numpy's message or a wrong answer.

``pcq_residual`` names a measurement whose dimension is not the measured
side's, before any product is formed.  ``classify`` takes the package's one
tolerance rule: a NaN, negative or infinite tolerance is refused, since the
identity channel would otherwise be reported as neither CP, TP nor unital,
or every map accepted.  Every seeded function takes the package's one seed
rule, an integer (not a bool) of at least 0, and refuses anything else by
name; the random generators also take a ``numpy.random.Generator``.
"""

import re

import numpy as np
import pytest

from aapt import (
    Channel,
    ProjectiveMeasurement,
    classify,
    haar_unitary,
    noise_stress,
    pcq_residual,
    random_cptp,
    random_cq_state,
    random_density,
    random_state,
    random_unitary_mixture,
)


def diagonal_measurement(d: int) -> ProjectiveMeasurement:
    return ProjectiveMeasurement(tuple(np.diag(np.eye(d)[k]) for k in range(d)))


@pytest.mark.parametrize("side, wrong, right", [("A", 3, 2), ("B", 2, 3)])
def test_pcq_residual_names_a_measurement_of_the_wrong_dimension(side, wrong, right):
    state = random_state(2, 3, seed=1)
    message = rf"^measurement acts on dimension {wrong}, but side {side} has dimension {right}$"
    with pytest.raises(ValueError, match=message):
        pcq_residual(state, diagonal_measurement(wrong), side)
    assert pcq_residual(state, diagonal_measurement(right), side) >= 0.0


@pytest.mark.parametrize("tol", [float("nan"), -1e-3, float("inf")])
def test_classify_refuses_a_tolerance_it_cannot_compare_with(tol):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and nonnegative, got "):
        classify(Channel.identity(2), tol)
    report = classify(Channel.identity(2))
    assert report.is_cp and report.is_tp and report.is_unital


PROBE, TRUTH = random_state(2, 2, seed=1), random_cptp(2, 2, seed=2)
SEEDED = {
    "random_state": lambda seed: random_state(2, 2, None, seed),
    "random_cq_state": lambda seed: random_cq_state(2, 2, seed),
    "random_density": lambda seed: random_density(2, 2, seed),
    "haar_unitary": lambda seed: haar_unitary(2, seed),
    "random_cptp": lambda seed: random_cptp(2, 2, seed),
    "random_unitary_mixture": lambda seed: random_unitary_mixture(2, 2, seed),
    "noise_stress": lambda seed: noise_stress(PROBE, TRUTH, 0.0, 1, seed),
}
BAD_SEEDS = {"-1": -1, "1.5": 1.5, "True": True, "None": None}


@pytest.mark.parametrize("bad", BAD_SEEDS, ids=BAD_SEEDS)
@pytest.mark.parametrize("name", SEEDED)
def test_every_seeded_function_refuses_a_bad_seed_by_name(name, bad):
    with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {re.escape(bad)}$"):
        SEEDED[name](BAD_SEEDS[bad])


def _drawn(result) -> np.ndarray:
    """The numbers a seeded function returned, whatever holds them."""
    if isinstance(result, list):  # noise_stress: one report per trial
        result = result[0].channel
    return result.choi() if isinstance(result, Channel) else getattr(result, "matrix", result)


@pytest.mark.parametrize("name", SEEDED)
def test_every_seeded_function_takes_seed_zero_and_a_numpy_integer(name):
    assert np.array_equal(_drawn(SEEDED[name](np.int64(7))), _drawn(SEEDED[name](7)))
    assert np.isfinite(_drawn(SEEDED[name](0))).all()
