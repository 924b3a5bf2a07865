"""Entry points refuse input they cannot use by name, not with numpy's message or a wrong answer.

``pcq_residual`` names a measurement whose dimension is not the measured
side's, before any product is formed.  ``classify`` takes the package's one
tolerance rule: a NaN, negative or infinite tolerance is refused, since the
identity channel would otherwise be reported as neither CP, TP nor unital,
or every map accepted.
"""

import numpy as np
import pytest

from aapt import Channel, ProjectiveMeasurement, classify, pcq_residual, random_state


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
