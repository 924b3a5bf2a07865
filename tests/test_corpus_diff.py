"""``tools/corpus_diff.py`` on two hand-written document trees."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus_diff.py"
spec = importlib.util.spec_from_file_location("corpus_diff", TOOL)
corpus_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus_diff)


def _doc(data, **meta):
    return {"kind": "certificate", "dims": [2, 2], "data": [[x, 0.0] for x in data], "meta": meta}


def _tree(root: Path, docs: dict, exit_codes: dict) -> Path:
    root.mkdir()
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / corpus_diff.EXIT_CODES).write_text(json.dumps(exit_codes))
    return root


OLD = {
    "r_2x2.sensitive.A.json": _doc([0.5, 1e-17], verdict="true", evidence="singular_gap", gap_ratio="5e16", tol="1e-11"),
    "r_3x3.sensitive.A.json": _doc([0.4, 2e-17], verdict="true", evidence="singular_gap", gap_ratio="2e16", tol="2e-11"),
    "r_4x4.sensitive.A.json": _doc([0.3, 3e-17], verdict="true", evidence="singular_gap", gap_ratio="1e16", tol="3e-11"),
    "p_2x2.sensitive.A.json": _doc([1.0, 0.0], verdict="false", evidence="pcq_projectors"),
    "p_2x2.faithful.A.json": _doc([0.1, 0.0], verdict="false", side="A"),
}
NEW = {
    "r_2x2.sensitive.A.json": _doc([0.25, 0.0], verdict="true", evidence="substack_bound", gap_ratio="inf", tol="4e-11"),
    "r_3x3.sensitive.A.json": _doc([0.2, 0.0], verdict="true", evidence="substack_bound", gap_ratio="inf", tol="5e-11"),
    "r_4x4.sensitive.A.json": OLD["r_4x4.sensitive.A.json"],
    "p_2x2.sensitive.A.json": _doc([1.0, 0.0], verdict="true", evidence="pcq_projectors"),
    "p_2x2.faithful.A.json": _doc([0.1, 0.0], verdict="false"),
}


def test_string_fields_list_their_transitions_with_counts(tmp_path):
    old = _tree(tmp_path / "old", OLD, {"a": 0})
    new = _tree(tmp_path / "new", NEW, {"a": 0})
    lines = corpus_diff.compare(old, new)
    assert lines[0] == "5 documents in both trees, 4 differ in bytes; 0 only in OLD, 0 only in NEW"
    rows = {tuple(line.split("\t")[:2]): line.split("\t")[2:] for line in lines[2:-1]}
    assert rows[("r_#x#.sensitive.A.json", "meta.evidence")] == ["2/3", "0", "-", "singular_gap→substack_bound 2"]
    assert rows[("r_#x#.sensitive.A.json", "meta.gap_ratio")] == ["2/3", "0", "inf"]
    assert rows[("r_#x#.sensitive.A.json", "data")] == ["2/3", "0", "0.25"]
    assert rows[("p_#x#.sensitive.A.json", "meta.verdict")] == ["1/1", "0", "-", "false→true 1"]
    assert rows[("p_#x#.faithful.A.json", "meta.side")] == ["1/1", "1", "-", "A→(none) 1"]
    assert ("r_#x#.sensitive.A.json", "meta.verdict") not in rows
    assert lines[-1] == "exit_codes.json: byte-identical"


def test_differing_exit_codes_are_reported(tmp_path):
    old = _tree(tmp_path / "old", {}, {"a": 0})
    new = _tree(tmp_path / "new", {}, {"a": 3})
    assert corpus_diff.compare(old, new) == [
        "0 documents in both trees, 0 differ in bytes; 0 only in OLD, 0 only in NEW",
        "exit_codes.json: DIFFERS",
    ]
