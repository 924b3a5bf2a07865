"""A caller's matrix is checked once, where it enters, and internal code passes bare arrays.

Every entry point that takes a matrix of known shape refuses NaN, inf, -inf
and a wrong shape with a ValueError that names what it was given, never with
numpy's own message.  The verdict and reconstruction paths read the
already-checked state matrix directly and build no ``TransferMatrix``.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import aapt
from aapt import (
    Channel,
    ProjectiveMeasurement,
    apply_on_A,
    apply_on_B,
    certify_faithful,
    certify_sensitive,
    choi_to_kraus,
    choi_to_transfer,
    cq_state,
    faithfulness_witness,
    noise_stress,
    product_state,
    random_cptp,
    random_density,
    random_state,
    reconstruct_channel,
    transfer_to_choi,
)
from aapt.duality import TransferMatrix
from aapt.states import BipartiteState

PACKAGE = Path(aapt.__file__).resolve().parent
NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
E0, E1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

# name: (label, a valid matrix for the slot, the call that takes it, the wrong-shape message)
ENTRY_POINTS = {
    "BipartiteState": ("state matrix", np.eye(4) / 4, lambda m: BipartiteState(m, 2, 2), None),
    "cq_state_first_sigma": ("sigma[0]", np.eye(2) / 2, lambda m: cq_state([1.0], [m]), None),
    "cq_state_later_sigma": ("sigma[1]", np.eye(2) / 2, lambda m: cq_state([0.5, 0.5], [E0, m]), None),
    "Channel.from_choi": ("choi matrix", np.eye(6), lambda m: Channel.from_choi(m, 2, 3), None),
    "Channel.from_transfer": ("transfer matrix", np.ones((9, 4)), lambda m: Channel.from_transfer(m, 2, 3), None),
    "TransferMatrix": ("transfer matrix", np.ones((9, 4)), lambda m: TransferMatrix(2, 3, m), None),
    "transfer_to_choi": ("transfer matrix", np.ones((9, 4)), lambda m: transfer_to_choi(m, 2, 3), None),
    "choi_to_transfer": ("choi matrix", np.eye(6), lambda m: choi_to_transfer(m, 2, 3), None),
    "choi_to_kraus": ("choi matrix", np.eye(6), lambda m: choi_to_kraus(m, 2, 3), None),
    "Channel.apply": ("operator", np.eye(2), lambda m: Channel.identity(2).apply(m), None),
    "TransferMatrix.apply": ("operator", np.eye(2), lambda m: TransferMatrix(2, 2, np.eye(4)).apply(m), None),
    "schur_channel": ("correlation matrix", np.eye(2), aapt.schur_channel, None),
    "commuting_unitary": ("h", np.eye(2), lambda m: aapt.commuting_unitary(m, 1.0), None),
    "ProjectiveMeasurement": (
        "projector", E1, lambda m: ProjectiveMeasurement((E0, m)), r"^all projectors must share one dimension$"
    ),
}


def _bad(good: np.ndarray, kind: str) -> np.ndarray:
    if kind == "shape":
        return np.hstack([good, good[:, :1]])
    m = good.astype(complex)
    m[0, 0] = NON_FINITE[kind]
    return m


@pytest.mark.parametrize("kind", [*NON_FINITE, "shape"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_names_what_it_refuses(name, kind):
    label, good, call, shape_message = ENTRY_POINTS[name]
    call(good)  # the valid matrix passes, so the failure below is the bad entry's
    if kind == "shape":
        rows, cols = good.shape
        wanted = rf"^{re.escape(label)} must have shape \({rows}, {cols}\), got \({rows}, {cols + 1}\)$"
        message = shape_message or wanted
    else:
        message = rf"^{re.escape(label)} ha(s|ve) non-finite entries \(NaN or inf\)$"
    with pytest.raises(ValueError, match=message):
        call(_bad(good, kind))


@pytest.mark.parametrize("name", [name for name, entry in ENTRY_POINTS.items() if entry[3] is None])
def test_an_array_that_is_not_a_matrix_is_refused_by_name(name):
    label, good, call, _ = ENTRY_POINTS[name]
    rows, cols = good.shape
    with pytest.raises(ValueError, match=rf"^{re.escape(label)} must have shape \({rows}, {cols}\), got \({cols},\)$"):
        call(good[0])


def test_a_flat_state_or_operator_names_the_matrix_it_should_be():
    with pytest.raises(ValueError, match=r"^state matrix must have shape \(4, 4\), got \(4,\)$"):
        BipartiteState(np.ones(4) / 4, 2, 2)
    with pytest.raises(ValueError, match=r"^operator must have shape \(2, 2\), got \(2,\)$"):
        Channel.identity(2).apply(np.ones(2))


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_projector_is_refused(bad):
    with pytest.raises(ValueError, match=r"^projector has non-finite entries \(NaN or inf\)$"):
        ProjectiveMeasurement((np.diag([bad, 0.0]), E1))


def test_a_flat_projector_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^projector must be a matrix, got an array of shape \(2,\)$"):
        ProjectiveMeasurement((np.diag([1.0, 0.0]), np.ones(2)))


# name: (label, a valid matrix for the slot, the public linalg call that takes it); each reads any 2-D shape
LINALG_DOORS = {
    "tensor_a": ("a", np.eye(2), lambda m: aapt.tensor(m, np.eye(3))),
    "tensor_b": ("b", np.eye(3), lambda m: aapt.tensor(np.eye(2), m)),
    "partial_trace": ("m", np.eye(4), lambda m: aapt.partial_trace(m, (2, 2), "A")),
    "partial_transpose": ("m", np.eye(4), lambda m: aapt.partial_transpose(m, (2, 2), "B")),
    "rank_evidence": ("m", np.ones((3, 2)), aapt.rank_evidence),
    "rank_and_nullspace": ("m", np.diag([2.0, 1.0]), aapt.rank_and_nullspace),
    "pseudo_inverse": ("m", np.ones((2, 3)), aapt.pseudo_inverse),
    "hs_inner": ("a", np.ones((2, 3)), lambda m: aapt.hs_inner(m, np.ones((2, 3)))),
}


@pytest.mark.parametrize("kind", [*NON_FINITE, "flat"])
@pytest.mark.parametrize("name", LINALG_DOORS)
def test_every_linalg_door_refuses_a_bad_matrix_by_name(name, kind):
    label, good, call = LINALG_DOORS[name]
    call(good)  # the valid matrix passes, so the failure below is the bad entry's
    if kind == "flat":
        bad, message = good[0], rf"^{label} must be a matrix, got an array of shape \({good.shape[1]},\)$"
    else:
        bad, message = _bad(good, kind), rf"^{label} has non-finite entries \(NaN or inf\)$"
    with pytest.raises(ValueError, match=message):
        call(bad)


def test_hs_inner_reads_b_at_the_shape_of_a():
    assert aapt.hs_inner(np.ones((2, 3)), np.ones((2, 3))) == 6
    with pytest.raises(ValueError, match=r"^b must have shape \(2, 3\), got \(3, 2\)$"):
        aapt.hs_inner(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"^b has non-finite entries \(NaN or inf\)$"):
        aapt.hs_inner(np.eye(2), np.diag([np.nan, 1.0]))


def test_only_linalg_words_a_non_finite_refusal():
    wording = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "non-finite entries" in node.value
    }
    assert wording == {"linalg.py"}


def test_choi_to_kraus_gives_no_operators_for_a_nan_choi_matrix():
    # eigh of this matrix runs, drops the NaN entry and finds three operators, unless the matrix is refused first
    c = np.eye(4, dtype=complex)
    c[0, 0] = np.nan
    ops = None
    with pytest.raises(ValueError, match=r"^choi matrix has non-finite entries \(NaN or inf\)$"):
        ops = choi_to_kraus(c, 2, 2)
    assert ops is None


def test_a_one_to_one_transfer_matrix_is_writable():
    channel = Channel.from_choi(np.array([[0.5]]), 1, 1)
    t = channel.transfer()
    t[0, 0] = 7.0
    assert channel.choi()[0, 0] == 0.5 and channel.transfer()[0, 0] == 0.5


@pytest.fixture
def built(monkeypatch):
    """The TransferMatrix instances constructed while the test runs."""
    calls = []
    original = TransferMatrix.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(TransferMatrix, "__post_init__", counting)
    return calls


PROBES = {
    "random": random_state(2, 3, seed=5),
    "product": product_state(random_density(2, 2, 6), random_density(3, 3, 7)),
    "cq": cq_state([0.3, 0.7], [random_density(2, 2, 8), random_density(2, 2, 9)]),
}


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES)
def test_verdicts_build_no_transfer_matrix(built, probe, side):
    certify_faithful(probe, side)
    certify_sensitive(probe, side)
    assert built == []


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES)
def test_verdicts_check_no_entry_again(monkeypatch, probe, side):
    # the state's matrix was checked when the state was built; its rank decisions read it bare
    calls = []
    real = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    certify_faithful(probe, side)
    certify_sensitive(probe, side)
    assert calls == []


@pytest.mark.parametrize("side", ["A", "B"])
def test_reconstruction_builds_no_transfer_matrix(built, side):
    probe = random_state(2, 2, seed=11)
    truth = random_cptp(2, 2, seed=12)
    output = apply_on_A(truth, probe) if side == "A" else apply_on_B(truth, probe)
    reconstruct_channel(probe, output, side, truth=truth)
    noise_stress(probe, truth, 1e-3, 2, seed=13, side=side)
    assert built == []


@pytest.fixture
def states_built(monkeypatch):
    """The BipartiteState instances validated while the test runs."""
    calls = []
    original = BipartiteState.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(BipartiteState, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("side", ["A", "B"])
def test_noise_stress_validates_only_the_true_output_whatever_the_trials(states_built, side):
    probe = random_state(2, 2, seed=11)
    truth = random_cptp(2, 2, seed=12)
    counts = []
    for trials in (1, 5):
        states_built.clear()
        noise_stress(probe, truth, 1e-3, trials, seed=13, side=side)
        counts.append(len(states_built))
    assert counts == [1, 1]


@pytest.mark.parametrize("side", ["A", "B"])
def test_a_witness_builds_no_transfer_matrix(built, side):
    # the witness splits the Choi matrix of its map directly, without wrapping it
    assert faithfulness_witness(PROBES["product"], side) is not None
    assert built == []


def _imports_from(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}


@pytest.mark.parametrize("module", ["sensitivity", "reconstruct"])
def test_verdict_layers_do_not_import_duality(module):
    assert "duality" not in _imports_from(PACKAGE / f"{module}.py")


def test_only_channels_imports_a_public_map_conversion():
    # the rest of the package holds checked arrays and reshuffles them with channels._reshuffle
    conversions = {"choi_to_kraus", "choi_to_transfer", "transfer_to_choi", "kraus_to_choi", "kraus_to_transfer"}
    importers = [
        f"{path.name}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("__init__.py", "channels.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in conversions
    ]
    assert importers == []


def test_nothing_in_the_package_calls_state_to_map():
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "state_to_map"
    ]
    assert readers == []
