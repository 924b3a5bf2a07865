"""Refusals that no other in-process test reaches: each raises its exception type with its exact message.

``tools/line_coverage.py`` lists the statements a test run never executes;
every row here is one refusal it listed, called in the way a user would
reach it.  Every enumerated argument is refused by ``linalg.checked_choice``,
so its wording is written in ``linalg`` alone.  The guards that no user input
reaches (rounding guards and self-checks of a correct construction) are
reached by calling the private function they guard, or by replacing the
construction they check.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from aapt import Channel, cli, documents, duality, linalg, sensitivity, states, witness
from aapt.duality import TransferMatrix
from aapt.witness import HermitianPreservingMap


def _document(meta=None, data=None) -> str:
    return json.dumps({"kind": "state", "dims": [1, 1], "data": data or [[[1, 0]]], "meta": meta or {}})


REFUSALS = {
    "states: a state that is not Hermitian": (
        lambda: states.BipartiteState(np.array([[0.5, 1.0], [0.0, 0.5]]), 2, 1),
        ValueError,
        "state matrix is not Hermitian",
    ),
    "states: marginal of an unknown subsystem": (
        lambda: states.max_entangled(2).marginal("C"),
        ValueError,
        "subsystem selector must be one of ('A', 'B'), got 'C'",
    ),
    "states: orient to an unknown side": (
        lambda: states.orient(states.max_entangled(2), "C"),
        ValueError,
        "side must be one of ('A', 'B'), got 'C'",
    ),
    "states: cq_state with no probabilities": (
        lambda: states.cq_state([], []),
        ValueError,
        "p must be a nonempty probability vector",
    ),
    "states: cq_state with one B state short": (
        lambda: states.cq_state([0.5, 0.5], [np.eye(2) / 2]),
        ValueError,
        "need exactly one B state per probability entry",
    ),
    "states: unitary_faithful_state of one value": (
        lambda: states.unitary_faithful_state([1.0]),
        ValueError,
        "spectrum must be a vector of length at least 2",
    ),
    "linalg: a side given as a one-element array": (
        lambda: duality.certify_faithful(states.random_state(2, 3, seed=1), np.array(["B"])),
        ValueError,
        "side must be one of ('A', 'B'), got array(['B'], dtype='<U1')",
    ),
    "linalg: a side given as an array of both sides": (
        lambda: duality.certify_faithful(states.random_state(2, 3, seed=1), np.array(["A", "B"])),
        ValueError,
        "side must be one of ('A', 'B'), got array(['A', 'B'], dtype='<U1')",
    ),
    "linalg: the non-scalar part of the weight in a span of the identity alone": (
        lambda: linalg.weight_in_span(np.eye(2, dtype=complex)[None] / np.sqrt(2), 2, traceless=True),
        ArithmeticError,
        "the fixed weight has no non-scalar component in the span",
    ),
    "linalg: unvec of a non-square length": (
        lambda: linalg.unvec(np.ones(3)),
        ValueError,
        "cannot unvec a length-3 vector into a square matrix",
    ),
    "linalg: unvec into a shape of another size": (
        lambda: linalg.unvec(np.ones(4), (3, 2)),
        ValueError,
        "cannot unvec a length-4 vector into shape (3, 2)",
    ),
    "linalg: partial_trace of an unknown subsystem": (
        lambda: linalg.partial_trace(np.eye(4), (2, 2), "C"),
        ValueError,
        "subsystem selector must be one of ('A', 'B'), got 'C'",
    ),
    "linalg: partial_transpose of an unknown subsystem": (
        lambda: linalg.partial_transpose(np.eye(4), (2, 2), "C"),
        ValueError,
        "subsystem selector must be one of ('A', 'B'), got 'C'",
    ),
    "channels: an unknown representation": (
        lambda: Channel("bogus", np.eye(4), 2, 2),
        ValueError,
        "representation must be one of ('kraus', 'choi', 'transfer'), got 'bogus'",
    ),
    "duality: state_to_map in an unknown direction": (
        lambda: duality.state_to_map(states.max_entangled(2), "sideways"),
        ValueError,
        "direction must be one of ('a_to_b', 'b_to_a'), got 'sideways'",
    ),
    "duality: map_to_state in an unknown direction": (
        lambda: duality.map_to_state(duality.state_to_map(states.max_entangled(2)), (2, 2), "sideways"),
        ValueError,
        "direction must be one of ('a_to_b', 'b_to_a'), got 'sideways'",
    ),
    "duality: map_to_state to dims the map does not act between": (
        lambda: duality.map_to_state(duality.state_to_map(states.random_state(2, 3, seed=1)), (3, 2)),
        ValueError,
        "transfer dims 2 -> 3 do not match state dims (3, 2)",
    ),
    "sensitivity: certify_sensitive for an unknown channel class": (
        lambda: sensitivity.certify_sensitive(states.max_entangled(2), "A", channel_class="bogus"),
        ValueError,
        "channel class must be one of ('unitary', 'unital'), got 'bogus'",
    ),
    "sensitivity: a measurement of no projectors": (
        lambda: sensitivity.ProjectiveMeasurement(()),
        ValueError,
        "a measurement needs at least one projector",
    ),
    "sensitivity: a non-scalar element of a trivial commutant": (
        lambda: sensitivity.nonscalar_commutant_element(sensitivity.commutant_basis(states.max_entangled(2)), 2),
        ValueError,
        "the commutant is trivial; only scalars commute",
    ),
    "sensitivity: the spectral split of a scalar matrix": (
        lambda: sensitivity._eigensplit(np.eye(3, dtype=complex)),
        ArithmeticError,
        "operator is numerically scalar; no nontrivial spectral projectors exist",
    ),
    "witness: a channel-difference split of a non-square map": (
        lambda: witness.decompose_channel_difference(HermitianPreservingMap(TransferMatrix(2, 3, np.zeros((9, 4))))),
        ValueError,
        "only square maps can be split into a channel difference",
    ),
    "witness: mixing with the identity at weight 1": (
        lambda: witness.mix_with_identity(Channel.identity(2), 1.0),
        ValueError,
        "mixing weight must lie in [0, 1)",
    ),
    "witness: mixing a non-square channel with the identity": (
        lambda: witness.mix_with_identity(Channel.from_kraus([np.ones((3, 2)) / np.sqrt(3)]), 0.5),
        ValueError,
        "only square channels can be mixed with the identity",
    ),
    "documents: a document of an unknown kind": (
        lambda: documents.MatrixDocument("bogus", (1, 1), np.ones((1, 1))),
        ValueError,
        "document kind must be one of ('state', 'channel', 'transfer', 'certificate', 'report'), got 'bogus'",
    ),
    "documents: a document with empty data": (
        lambda: documents.MatrixDocument("state", (1, 1), np.zeros(0)),
        ValueError,
        "data must be a nonempty array",
    ),
    "documents: loads of meta that is not strings": (
        lambda: documents.loads(_document(meta={"seed": 1})),
        ValueError,
        "meta must map strings to strings",
    ),
    "documents: a state document of one dimension": (
        lambda: documents.document_to_state(documents.MatrixDocument("state", (1,), np.ones((1, 1)))),
        ValueError,
        "state documents carry exactly two dimensions",
    ),
    "cli: a list that is not numbers": (
        lambda: cli._parse_floats("a,b", "--p"),
        ValueError,
        "--p must be a comma-separated list of numbers, got 'a,b'",
    ),
    "cli: a list of no numbers": (
        lambda: cli._parse_floats(" , ", "--p"),
        ValueError,
        "--p must contain at least one number",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_raises_its_type_and_exact_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_only_linalg_words_a_membership_refusal():
    package = Path(linalg.__file__).parent
    wording = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be one of" in node.value
    }
    assert wording == {"linalg.py"}


def test_a_numpy_string_is_a_string_choice():
    assert duality.certify_faithful(states.random_state(2, 3, seed=1), np.str_("B")).side == "B"


# (alpha, Choi of K0, Choi of K1) in place of the split of a d -> d witness map, and the self-check it fails
BROKEN_WITNESS_PAIRS = {
    "outputs apart": (
        lambda d: (1.0, Channel.identity(d).choi(), np.zeros((d * d, d * d))),
        "witness channels separate the probe outputs by 7.071e-01; construction failed",
    ),
    "channels equal": (
        lambda d: (1.0, np.eye(d * d) / d, np.eye(d * d) / d),
        "witness channels are numerically identical (Choi gap 0.000e+00)",
    ),
}


@pytest.mark.parametrize("pair, message", BROKEN_WITNESS_PAIRS.values(), ids=BROKEN_WITNESS_PAIRS)
def test_a_witness_pair_that_fails_its_self_check_is_refused(pair, message, monkeypatch):
    # A maximally mixed qubit A with a pure B: after support restriction the probe is 2 x 1, of Frobenius norm 1/sqrt(2)
    probe = states.product_state(np.eye(2) / 2, np.diag([1.0, 0.0]))
    monkeypatch.setattr(witness, "_witness_pair", lambda e_op: pair(e_op.shape[0]))
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        witness.faithfulness_witness(probe, "A")


RAGGED_DATA = [[[1, 0]], [[1, 0], [0, 0]]]
RAGGED_MESSAGE = "malformed data array: ragged nesting, or deeper than 64 levels"


def test_ragged_document_data_is_refused_as_malformed():
    with pytest.raises(ValueError, match=f"^{re.escape(RAGGED_MESSAGE)}$"):
        documents.loads(_document(data=RAGGED_DATA))


def _too_deep():
    node = [1, 0]
    for _ in range(64):
        node = [node]
    return node


@pytest.mark.parametrize(
    "data",
    [RAGGED_DATA, [[[1, 0], [0, 0]], [[1, 0]]], [[[1, 0], [0, 0]], [1, 0]], _too_deep()],
    ids=["short_row", "long_row", "shallow_row", "65_levels"],
)
def test_ragged_document_data_exits_2_from_the_cli_with_a_fixed_message(data, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probe.json").write_text(json.dumps({"kind": "state", "dims": [2, 1], "data": data, "meta": {}}))
    assert cli.main(["certify", "probe.json", "--mode", "faithful"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {RAGGED_MESSAGE}\n"


def test_channel_repr_names_its_representation_and_dimensions():
    assert repr(Channel.from_kraus([np.ones((3, 2)) / np.sqrt(3)])) == "Channel(kind='kraus', dim_in=2, dim_out=3)"


CLI_USAGE_ERRORS = {
    "reconstruct with neither an output nor --channel": (
        ["reconstruct", "probe.json"],
        "reconstruct needs an output state document or --channel",
    ),
    "certify --class in faithful mode": (
        ["certify", "probe.json", "--mode", "faithful", "--class", "unital"],
        "--class applies to --mode sensitive only",
    ),
}


@pytest.mark.parametrize("argv, message", CLI_USAGE_ERRORS.values(), ids=CLI_USAGE_ERRORS)
def test_cli_usage_errors_in_process_exit_2_with_their_message(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    documents.save(documents.state_document(states.max_entangled(2)), "probe.json")
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
