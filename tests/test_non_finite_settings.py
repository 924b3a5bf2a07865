"""A NaN or infinite tolerance or noise level is refused as such, by the library and by the CLI."""

import math

import numpy as np
import pytest

from aapt import (
    certify_faithful,
    certify_sensitive,
    commutant_basis,
    faithfulness_witness,
    max_entangled,
    noise_stress,
    product_state,
    pseudo_inverse,
    random_cptp,
    random_density,
    rank_and_nullspace,
    rank_evidence,
    reconstruct_channel,
)
from aapt.documents import channel_document, save, state_document

from helpers import run_cli

NON_FINITE = [math.nan, math.inf, -math.inf]
TOL_MESSAGE = "tolerance must be finite and nonnegative"
NOISE_MESSAGE = "noise must be finite and nonnegative"

PROBE = max_entangled(2)
PRODUCT = product_state(random_density(2, 2, 1), random_density(2, 2, 2))

TOL_CALLS = {
    "rank_evidence": lambda tol: rank_evidence(np.eye(3), tol),
    "rank_and_nullspace": lambda tol: rank_and_nullspace(np.eye(3), tol),
    "pseudo_inverse": lambda tol: pseudo_inverse(np.eye(3), tol),
    "certify_faithful": lambda tol: certify_faithful(PROBE, "A", tol),
    "certify_sensitive": lambda tol: certify_sensitive(PROBE, "A", "unital", tol),
    "commutant_basis": lambda tol: commutant_basis(PRODUCT, "A", tol),
    "faithfulness_witness": lambda tol: faithfulness_witness(PRODUCT, "A", tol),
    "reconstruct_channel": lambda tol: reconstruct_channel(PROBE, PROBE, "A", tol),
}


@pytest.mark.parametrize("tol", NON_FINITE)
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_library_refuses_a_non_finite_tolerance(name, tol):
    with pytest.raises(ValueError, match=TOL_MESSAGE):
        TOL_CALLS[name](tol)


@pytest.mark.parametrize("noise", NON_FINITE)
def test_noise_stress_refuses_a_non_finite_noise(noise):
    with pytest.raises(ValueError, match=NOISE_MESSAGE):
        noise_stress(PROBE, random_cptp(2, 2, seed=3), noise, trials=2, seed=4)


@pytest.fixture
def files(tmp_path):
    save(state_document(PROBE), tmp_path / "probe.json")
    save(state_document(PRODUCT), tmp_path / "product.json")
    save(channel_document(random_cptp(2, 2, seed=5), {"cptp": "true"}), tmp_path / "truth.json")
    return tmp_path


def _assert_usage_error(result, message):
    assert result.returncode == 2, result.stderr
    assert message in result.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ("certify", "probe.json", "--mode", "faithful"),
        ("certify", "product.json", "--mode", "sensitive"),
        ("witness", "product.json", "--out", "k0.json", "k1.json"),
        ("reconstruct", "probe.json", "probe.json"),
    ],
    ids=["certify-faithful", "certify-sensitive", "witness", "reconstruct"],
)
def test_cli_refuses_a_non_finite_tol(files, args, value):
    _assert_usage_error(run_cli(*args, "--tol", value, cwd=files), TOL_MESSAGE)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_refuses_a_non_finite_noise(files, value):
    result = run_cli("reconstruct", "probe.json", "--channel", "truth.json", "--noise", value, cwd=files)
    _assert_usage_error(result, NOISE_MESSAGE)
