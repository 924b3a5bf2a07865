"""The document corpus keeps the verdicts, shapes and exit codes of the committed manifest.

``tools/doc_corpus.py`` runs every CLI verb on a fixed set of probes; its
manifest records, without floats, each command's exit code and each
document's kind, dims, data shape and discrete meta fields.  A change that
moves any of them on purpose rewrites ``tests/data/corpus_manifest.json``
with the command in that tool's docstring, and the diff shows each move.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "corpus_manifest.json"
spec = importlib.util.spec_from_file_location("doc_corpus", ROOT / "tools" / "doc_corpus.py")
doc_corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(doc_corpus)


@pytest.fixture(scope="module")
def committed():
    return json.loads(MANIFEST.read_text())


def test_the_corpus_matches_the_committed_manifest(tmp_path, committed):
    root = tmp_path / "corpus"
    doc_corpus.write_corpus(root)
    fresh = doc_corpus.manifest(root)
    changes = doc_corpus.manifest_changes(committed, fresh)
    assert not changes, "the corpus moved from the committed manifest:\n" + "\n".join(changes)
    assert doc_corpus.dump_manifest(fresh) == MANIFEST.read_text()


def _leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [leaf for item in node for leaf in _leaves(item)]
    return [node]


def _reads_as_float(leaf) -> bool:
    text = str(leaf)
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


def test_the_manifest_holds_no_floats(committed):
    assert [leaf for leaf in _leaves(committed) if _reads_as_float(leaf)] == []
    assert {key for entry in committed["documents"].values() for key in entry} == {
        "kind", "dims", "shape", *doc_corpus.MANIFEST_META
    }


def test_a_flipped_exit_code_names_its_command(committed):
    changed = copy.deepcopy(committed)
    command = next(name for name in sorted(changed["exit_codes"]) if name.startswith("witness"))
    code = changed["exit_codes"][command]
    changed["exit_codes"][command] = code + 1
    assert doc_corpus.manifest_changes(committed, changed) == [f"command {command!r}: exit code {code} -> {code + 1}"]


def test_a_changed_document_names_each_field(committed):
    changed = copy.deepcopy(committed)
    name = next(n for n, entry in sorted(changed["documents"].items()) if entry.get("mode") == "faithful")
    entry = changed["documents"][name]
    old_verdict = entry["verdict"]
    entry["verdict"] = "false" if old_verdict == "true" else "true"
    entry["shape"] = [3]
    del entry["rank"]
    lines = doc_corpus.manifest_changes(committed, changed)
    assert lines == [
        f"document {name}: rank {committed['documents'][name]['rank']} -> (none)",
        f"document {name}: shape [2] -> [3]",
        f"document {name}: verdict {old_verdict} -> {entry['verdict']}",
    ]


def test_a_missing_command_or_document_is_named(committed):
    changed = copy.deepcopy(committed)
    command = sorted(changed["exit_codes"])[0]
    document = sorted(changed["documents"])[0]
    del changed["exit_codes"][command], changed["documents"][document]
    lines = doc_corpus.manifest_changes(committed, changed)
    assert f"command {command!r}: exit code {committed['exit_codes'][command]} -> (none)" in lines
    assert all(line.startswith(f"document {document}: ") for line in lines[1:]) and len(lines) > 1
