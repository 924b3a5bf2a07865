"""The witness is read from the certificate's own decision, so it moves with the probe's rank, not with rounding."""

import numpy as np
import pytest

import aapt
from aapt import (
    BipartiteState,
    cq_state,
    faithfulness_witness,
    product_state,
    random_cq_state,
    random_density,
    random_state,
    unitary_faithful_state,
)

PERTURBATION = 1e-15


def _probes():
    out = []
    for k, (da, db) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)]):
        g = np.random.default_rng(300 + k)
        out.append((f"product_{da}x{db}", product_state(random_density(da, da, g), random_density(db, db, g))))
        out.append((f"cq_{da}x{db}", random_cq_state(da, db, 400 + k)))
    out.append(("cq_basis_3", cq_state([0.5, 0.3, 0.2], [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)])))
    for k, (da, db) in enumerate([(3, 2), (4, 2), (4, 3), (2, 3), (2, 4), (3, 4)]):
        out.append((f"random_{da}x{db}", random_state(da, db, None, 500 + k)))
        out.append((f"random_{da}x{db}_rank2", random_state(da, db, 2, 600 + k)))
    for spectrum in ([0.7, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]):
        out.append((f"prop4_{len(spectrum)}", unitary_faithful_state(spectrum)))
    return out


def _non_faithful_cases():
    return [
        pytest.param(state, side, id=f"{name}-{side}")
        for name, state in _probes()
        for side in ("A", "B")
        if not aapt.certify_faithful(state, side).faithful
    ]


def _perturbed(state: BipartiteState, seed: int) -> BipartiteState:
    """The state plus a traceless Hermitian kick of Frobenius norm 1e-15."""
    n = state.matrix.shape[0]
    g = np.random.default_rng(seed)
    z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    h -= (np.trace(h) / n) * np.eye(n)
    return BipartiteState(state.matrix + PERTURBATION * h / np.linalg.norm(h), state.dim_a, state.dim_b)


def _witness_map(state, side):
    pair = faithfulness_witness(state, side)
    assert pair is not None
    return pair.alpha * (pair.k0.transfer() - pair.k1.transfer())


CASES = _non_faithful_cases()


def test_the_cases_cover_every_family_on_both_sides():
    ids = [case.id for case in CASES]
    for family in ("product", "cq", "random", "prop4"):
        for side in ("A", "B"):
            assert any(i.startswith(family) and i.endswith(f"-{side}") for i in ids), (family, side)


@pytest.mark.parametrize("state, side", CASES)
def test_witness_map_is_stable_under_a_rounding_level_perturbation(state, side):
    # D = alpha (K0 - K1) is fixed by the cokernel and the fixed weight; the
    # channels K0 and K1 themselves are compared in tests/test_eigen_split.py.
    want = _witness_map(state, side)
    for seed in (1, 2):
        got = _witness_map(_perturbed(state, seed), side)
        assert np.linalg.norm(got - want) <= 1e-12


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("side", ["A", "B"])
def test_the_witness_makes_one_decision(monkeypatch, side):
    restricted = _counting(monkeypatch, aapt.duality, "restrict_support")
    bases = [_counting(monkeypatch, module, "hermitian_basis") for module in (aapt.duality, aapt.linalg)]
    assert faithfulness_witness(unitary_faithful_state([0.5, 0.3, 0.2]), side) is not None
    assert restricted == ["restrict_support"]
    assert bases == [[], []]
