"""Write a fixed corpus of CLI documents and their exit codes to OUTDIR.

    PYTHONPATH=src python tools/doc_corpus.py OUTDIR

Every call goes through ``aapt.cli.main`` in this process, using whichever
``aapt`` the interpreter imports.  The corpus is fixed (no options, fixed
seeds, all dimensions at most 4, d = 1 sides included):

* ``gen`` for every state family, plus a few invalid requests;
* ``certify`` in both modes, on both sides, under both channel classes;
* ``witness`` on both sides;
* ``reconstruct`` on both sides from a ground-truth channel with noise 0
  and 1e-3, and from an explicit output state;
* ``decompose`` on trace-annihilating and invalid transfer documents.

The ground-truth channels, output states and transfer matrices that feed
those commands are written by library calls and land in OUTDIR too.
``exit_codes.json`` maps each command line to its exit status.  Comparing
two trees is then one command: run this once per tree into separate
directories and ``diff -r`` them.

With ``--manifest FILE`` the corpus's manifest is also written to FILE
(never into OUTDIR, whose every other file is a document).  The manifest
holds no floats: the exit code of each command, and for each document its
``kind``, ``dims``, the shape of its ``data`` and its discrete ``meta``
fields (``MANIFEST_META``).  The committed copy that the test suite checks
the corpus against is rewritten by

    PYTHONPATH=src python tools/doc_corpus.py OUTDIR --manifest tests/data/corpus_manifest.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

import numpy as np

import aapt
from aapt import cli, documents

SEEDS = (0, 1)
CQ_WEIGHTS = ("1", "0.5,0.5", "0.2,0.3,0.5", "0.25,0.25,0.25,0.25")
NOISES = ("0", "1e-3")
EXIT_CODES = "exit_codes.json"
MISSING = "(none)"
MANIFEST_META = (
    "verdict", "rank", "required_rank", "nullity", "evidence", "restricted_dims", "mode", "side",
    "channel_class", "cptp", "role", "repr", "trial",
)


def _gen_requests() -> list[tuple[str, list[str]]]:
    out = [(f"me{d}", ["max-entangled", "--d", str(d)]) for d in range(1, 5)]
    out += [(f"prop4_{d}", ["prop4", "--d", str(d)]) for d in range(2, 5)]
    for da in range(1, 5):
        for db in range(1, 5):
            dims = ["--da", str(da), "--db", str(db)]
            for seed in SEEDS:
                out.append((f"product_{da}x{db}_s{seed}", ["product", *dims, "--seed", str(seed)]))
            for rank in sorted({1, 2, da * db}):
                if rank <= da * db:
                    out.append((f"random_{da}x{db}_r{rank}", ["random", *dims, "--rank", str(rank), "--seed", "3"]))
    for i, p in enumerate(CQ_WEIGHTS):
        for db in ("0", "1", "3"):
            for sigmas in ("basis", "random"):
                out.append((f"cq{i}_db{db}_{sigmas}", ["cq", "--p", p, "--db", db, "--sigmas", sigmas, "--seed", "2"]))
    return out


# Requests that must fail with a usage error; their exit codes are recorded.
BAD_GEN = (
    ["prop4", "--lambda", "0.5,0.5"],
    ["cq"],
    ["random", "--da", "2", "--db", "2", "--rank", "9"],
    ["max-entangled", "--d", "0"],
)


class Corpus:
    def __init__(self, root: Path):
        self.root = root
        self.exit_codes: dict[str, int] = {}

    def path(self, name: str) -> Path:
        return self.root / name

    def run(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        key = " ".join(a.replace(str(self.root) + "/", "") for a in argv)
        self.exit_codes[key] = code
        return code

    def save(self, name: str, doc: documents.MatrixDocument) -> Path:
        return documents.save(doc, self.path(name))


def _truth_channels(corpus: Corpus, d: int) -> list[tuple[str, aapt.Channel]]:
    channels = [
        (f"truth_d{d}_env1", aapt.random_cptp(d, 1, seed=10 + d)),
        (f"truth_d{d}_env2", aapt.random_cptp(d, 2, seed=20 + d)),
    ]
    for name, channel in channels:
        corpus.save(f"{name}.json", documents.channel_document(channel, {"cptp": "true"}))
    return channels


def _transfers(corpus: Corpus, d: int) -> list[str]:
    c0 = aapt.random_cptp(d, 2, seed=30 + d).transfer()
    c1 = aapt.random_cptp(d, 3, seed=40 + d).transfer()
    maps = {
        f"diff_d{d}": c0 - c1,
        f"diff_scaled_d{d}": 0.25 * (c0 - c1),
        f"channel_d{d}": c0,
        f"zero_d{d}": 0 * c0,
    }
    names = []
    for name, t in maps.items():
        corpus.save(f"{name}.json", documents.transfer_document(aapt.TransferMatrix(d, d, t)))
        names.append(name)
    return names


def _state_commands(corpus: Corpus, name: str, truths: dict[int, list]) -> None:
    state_path = corpus.path(f"{name}.json")
    state = documents.document_to_state(documents.load(state_path))
    for side in ("A", "B"):
        corpus.run("certify", str(state_path), "--mode", "faithful", "--side", side,
                   "--out", str(corpus.path(f"{name}.faithful.{side}.json")))
        for cls in ("unitary", "unital"):
            corpus.run("certify", str(state_path), "--mode", "sensitive", "--side", side, "--class", cls,
                       "--out", str(corpus.path(f"{name}.sensitive.{side}.{cls}.json")))
        pair = [str(corpus.path(f"{name}.witness.{side}.{role}.json")) for role in ("k0", "k1")]
        corpus.run("witness", str(state_path), "--side", side, "--out", *pair)
        d = state.dim_a if side == "A" else state.dim_b
        for truth_name, truth in truths[d]:
            truth_path = corpus.path(f"{truth_name}.json")
            for noise in NOISES:
                corpus.run("reconstruct", str(state_path), "--channel", str(truth_path), "--noise", noise,
                           "--trials", "2", "--seed", "5", "--side", side,
                           "--out", str(corpus.path(f"{name}.rec.{side}.{truth_name}.n{noise}.json")))
            output = (aapt.apply_on_A if side == "A" else aapt.apply_on_B)(truth, state)
            output_path = corpus.save(f"{name}.out.{side}.{truth_name}.json", documents.state_document(output))
            corpus.run("reconstruct", str(state_path), str(output_path), "--side", side,
                       "--out", str(corpus.path(f"{name}.rec.{side}.{truth_name}.explicit.json")))


def write_corpus(root: Path) -> dict[str, int]:
    """Run every command of the corpus into ``root``, record the exit codes there and return them."""
    root.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(root)
    truths = {d: _truth_channels(corpus, d) for d in range(1, 5)}
    for d in range(1, 5):
        for name in _transfers(corpus, d):
            corpus.run("decompose", str(corpus.path(f"{name}.json")),
                       "--out", str(corpus.path(f"{name}.k0.json")), str(corpus.path(f"{name}.k1.json")))
    for i, request in enumerate(BAD_GEN):
        corpus.run("gen", *request, "--out", str(corpus.path(f"bad_gen_{i}.json")))
    for name, request in _gen_requests():
        if corpus.run("gen", *request, "--out", str(corpus.path(f"{name}.json"))) == cli.EXIT_OK:
            _state_commands(corpus, name, truths)
    corpus.path(EXIT_CODES).write_text(json.dumps(corpus.exit_codes, indent=1, sort_keys=True) + "\n")
    return corpus.exit_codes


def manifest(root: Path) -> dict:
    """The float-free record of a corpus tree: exit codes, and each document's kind, dims, data shape and discrete meta."""
    docs = {}
    for path in sorted(root.iterdir()):
        if path.name == EXIT_CODES:
            continue
        doc = json.loads(path.read_text())
        entry = {"kind": doc["kind"], "dims": doc["dims"], "shape": list(np.shape(doc["data"])[:-1])}
        entry.update((key, doc["meta"][key]) for key in MANIFEST_META if key in doc["meta"])
        docs[path.name] = entry
    return {"documents": docs, "exit_codes": json.loads((root / EXIT_CODES).read_text())}


def dump_manifest(m: dict) -> str:
    """The manifest as JSON with one line per document and per command, so a diff shows each change on its own."""
    sections = [
        f"{json.dumps(section)}: {{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(m[section][name], sort_keys=True)}" for name in sorted(m[section])
        ) + "\n}"
        for section in ("documents", "exit_codes")
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


def manifest_changes(old: dict, new: dict) -> list[str]:
    """One line per command exit code and per document field that differs between two manifests."""
    lines = []
    for name in sorted(old["exit_codes"].keys() | new["exit_codes"].keys()):
        a, b = old["exit_codes"].get(name, MISSING), new["exit_codes"].get(name, MISSING)
        if a != b:
            lines.append(f"command {name!r}: exit code {a} -> {b}")
    for name in sorted(old["documents"].keys() | new["documents"].keys()):
        a, b = old["documents"].get(name, {}), new["documents"].get(name, {})
        lines += [
            f"document {name}: {key} {a.get(key, MISSING)} -> {b.get(key, MISSING)}"
            for key in sorted(a.keys() | b.keys())
            if a.get(key) != b.get(key)
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the fixed corpus of CLI documents and exit codes.")
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--manifest", type=Path, help="also write the corpus's manifest to this file")
    args = parser.parse_args(argv)
    root = args.outdir.resolve()
    exit_codes = write_corpus(root)
    if args.manifest is not None:
        args.manifest.write_text(dump_manifest(manifest(root)))
    written = sum(1 for p in root.iterdir() if p.name != EXIT_CODES)
    print(f"{written} documents and {len(exit_codes)} exit codes in {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
