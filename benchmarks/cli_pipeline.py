"""Workload ``cli-pipeline``: one in-process ``aapt.cli.main(argv)`` call per operation.

A pass follows the pipeline: ``gen`` for every probe, then ``certify
--mode faithful`` and ``--mode sensitive`` for every probe, ``witness`` for
the probes that are not faithful, ``reconstruct --channel ... --trials``
for the faithful ones, and ``decompose`` on transfer documents the
benchmark writes itself.  Dimensions stay at d <= 4, where argument parsing
and the JSON writer and reader take most of each command.

Every written document is re-read with the standard-library ``json`` and
checked against the benchmark's own computations, and every rewrite of a
path must reproduce the bytes of its first write.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import aapt.cli
from reference import (
    check_reconstructions,
    check_witness_pair,
    choi_from_kraus,
    distinct_spectrum,
    expected_nullity,
    expected_rank,
    haar_isometry_kraus,
    pinch,
    require,
    require_cptp,
    require_density,
    require_projective_measurement,
    transfer_from_choi,
    transfer_from_kraus,
)
from workload import Op, Workload

NOISE = 1e-6
TRIALS = 3
DECOMPOSE_DIMS = (3, 4)
DOC_TOL = 1e-10
DECOMPOSE_TOL = 1e-10


@dataclass(frozen=True)
class Probe:
    """One generated probe: its ``gen`` arguments and its family, which fixes its rank and nullity on side A."""

    name: str
    gen_args: list[str]
    family: str
    da: int
    db: int

    @property
    def rank(self) -> int:
        return expected_rank(self.family, self.da, self.db)

    @property
    def nullity(self) -> int:
        return expected_nullity(self.family, "A", self.da, self.db)

    @property
    def faithful(self) -> bool:
        return self.rank == self.da * self.da


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _probes(g: np.random.Generator) -> list[Probe]:
    seed = lambda: str(int(g.integers(2**31)))  # noqa: E731
    return [
        Probe("me3", ["max-entangled", "--d", "3"], "max-entangled", 3, 3),
        Probe("prod34", ["product", "--da", "3", "--db", "4", "--seed", seed()], "product", 3, 4),
        Probe("prod42", ["product", "--da", "4", "--db", "2", "--seed", seed()], "product", 4, 2),
        Probe("cq33", ["cq", "--p", _floats(distinct_spectrum(3, g)), "--db", "3", "--sigmas", "random", "--seed", seed()], "cq", 3, 3),
        Probe("prop4", ["prop4", "--d", "4", "--lambda", _floats(distinct_spectrum(4, g))], "unitary-faithful", 4, 2),
        Probe("rand24", ["random", "--da", "2", "--db", "4", "--seed", seed()], "random", 2, 4),
        Probe("rand33", ["random", "--da", "3", "--db", "3", "--seed", seed()], "random", 3, 3),
        Probe("rand42", ["random", "--da", "4", "--db", "2", "--seed", seed()], "random", 4, 2),
    ]


# -- documents, read and written without aapt ---------------------------------


def read_document(path: Path) -> tuple[str, list[int], np.ndarray, dict]:
    raw = json.loads(path.read_text(encoding="utf-8"))
    require(set(raw) == {"kind", "dims", "data", "meta"}, f"{path.name}: keys {sorted(raw)}")
    pairs = np.asarray(raw["data"], dtype=float)
    require(pairs.shape[-1] == 2, f"{path.name}: data entries are not [re, im] pairs")
    return raw["kind"], raw["dims"], pairs[..., 0] + 1j * pairs[..., 1], raw["meta"]


def write_document(path: Path, kind: str, dims: list[int], data: np.ndarray, meta: dict) -> None:
    pairs = np.stack([data.real, data.imag], axis=-1).tolist()
    path.write_text(json.dumps({"kind": kind, "dims": dims, "data": pairs, "meta": meta}), encoding="utf-8")


def check_state_document(path: Path, probe: Probe) -> np.ndarray:
    kind, dims, rho, _ = read_document(path)
    require(kind == "state" and dims == [probe.da, probe.db], f"{path.name}: {kind} document with dims {dims}")
    require_density(rho, DOC_TOL, path.name)
    return rho


def check_faithful_certificate(path: Path, probe: Probe) -> None:
    kind, _, _, meta = read_document(path)
    require(kind == "certificate" and meta.get("mode") == "faithful", f"{path.name}: not a faithfulness certificate")
    require(meta.get("rank") == str(probe.rank), f"{path.name}: rank {meta.get('rank')}, the family fixes {probe.rank}")
    require(meta.get("required_rank") == str(probe.da**2), f"{path.name}: required rank {meta.get('required_rank')}")
    want = "true" if probe.faithful else "false"
    require(meta.get("verdict") == want, f"{path.name}: verdict {meta.get('verdict')}, expected {want}")


def check_sensitivity_certificate(path: Path, probe: Probe, rho: np.ndarray) -> None:
    kind, _, data, meta = read_document(path)
    require(kind == "certificate" and meta.get("mode") == "sensitive", f"{path.name}: not a sensitivity certificate")
    require(meta.get("nullity") == str(probe.nullity), f"{path.name}: nullity {meta.get('nullity')}, the family fixes {probe.nullity}")
    want = "true" if probe.nullity == 1 else "false"
    require(meta.get("verdict") == want, f"{path.name}: verdict {meta.get('verdict')}, expected {want}")
    if probe.nullity > 1:
        require(meta.get("evidence") == "pcq_projectors" and data.ndim == 3, f"{path.name}: no PC-Q projectors")
        projectors = list(data)
        require_projective_measurement(projectors, probe.da, DOC_TOL, path.name)
        residual = float(np.linalg.norm(pinch(rho, projectors, probe.da, probe.db, "A") - rho))
        require(residual <= DOC_TOL, f"{path.name}: PC-Q pinching moves the state by {residual:.3e}")


def read_channel_documents(paths: list[Path], kind: str, d: int) -> list[np.ndarray]:
    matrices = []
    for path in paths:
        found, dims, m, _ = read_document(path)
        require(found == kind and dims == [d, d], f"{path.name}: {found} document with dims {dims}")
        matrices.append(m)
    return matrices


def check_witness_documents(paths: list[Path], probe: Probe, rho: np.ndarray) -> None:
    c0, c1 = read_channel_documents(paths, "channel", probe.da)
    check_witness_pair(c0, c1, rho, (probe.da, probe.db))


def check_report_documents(paths: list[Path], probe: Probe, rho: np.ndarray, truth_choi: np.ndarray) -> None:
    transfers = read_channel_documents(paths, "report", probe.da)
    check_reconstructions(transfers, truth_choi, rho, (probe.da, probe.db), NOISE)


def check_decomposition(paths: list[Path], d: int, target: np.ndarray) -> None:
    transfers = []
    alpha = None
    for path in paths:
        kind, dims, c, meta = read_document(path)
        require(kind == "channel" and dims == [d, d], f"{path.name}: {kind} document with dims {dims}")
        require_cptp(c, d, d, DOC_TOL, path.name)
        transfers.append(transfer_from_choi(c, d, d))
        alpha = float(meta.get("alpha", "nan"))
    residual = float(np.linalg.norm(alpha * (transfers[0] - transfers[1]) - target))
    require(residual <= DECOMPOSE_TOL, f"alpha (K0 - K1) misses the transfer matrix by {residual:.3e}")


# -- the workload ------------------------------------------------------------------


class Pipeline:
    """Files of one pipeline in a scratch directory, and the first bytes written to each.

    Every output is deleted after each pass, so a command that stops
    writing cannot pass on the file an earlier pass left behind.  Each
    command's inputs are written earlier in the same pass, or by the
    benchmark once.
    """

    def __init__(self, root: Path):
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=root))
        self.outputs: list[Path] = []
        self.first_bytes: dict[Path, bytes] = {}
        self.states: dict[str, np.ndarray] = {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def require_same_bytes(self, paths: list[Path]) -> None:
        for path in paths:
            data = path.read_bytes()
            first = self.first_bytes.setdefault(path, data)
            require(data == first, f"{path.name}: rewriting on the same inputs changed the bytes")

    def clear_outputs(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return aapt.cli.main(argv)


def _op(pipe: Pipeline, argv: list[str], want_exit: int, outputs: list[Path], check_outputs) -> Op:
    pipe.outputs.extend(outputs)

    def call(pass_index: int) -> int:
        return run_cli(argv)

    def check(code, pass_index: int) -> None:
        require(code == want_exit, f"exit {code}, expected {want_exit}")
        for path in outputs:
            require(path.exists(), f"{path.name} was not written")
        check_outputs()
        pipe.require_same_bytes(outputs)

    label = " ".join(Path(a).name if a.startswith("/") else a for a in argv)
    return Op(label, call, check)


def build(seed: int, workdir: Path) -> Workload:
    g = np.random.default_rng(seed)
    pipe = Pipeline(workdir)
    probes = _probes(g)
    ops = []

    for probe in probes:
        out = pipe.path(f"{probe.name}.json")

        def gen_check(probe=probe, out=out):
            pipe.states[probe.name] = check_state_document(out, probe)

        ops.append(_op(pipe, ["gen", *probe.gen_args, "--out", str(out)], 0, [out], gen_check))
    for probe in probes:
        state = str(pipe.path(f"{probe.name}.json"))
        out = pipe.path(f"{probe.name}.faithful.json")
        argv = ["certify", state, "--mode", "faithful", "--out", str(out)]
        ops.append(_op(pipe, argv, 0 if probe.faithful else 1, [out], lambda p=probe, o=out: check_faithful_certificate(o, p)))
        out = pipe.path(f"{probe.name}.sensitive.json")
        argv = ["certify", state, "--mode", "sensitive", "--out", str(out)]
        check = lambda p=probe, o=out: check_sensitivity_certificate(o, p, pipe.states[p.name])  # noqa: E731
        ops.append(_op(pipe, argv, 0 if probe.nullity == 1 else 1, [out], check))
    for probe in probes:
        if probe.faithful:
            continue
        outs = [pipe.path(f"{probe.name}.k0.json"), pipe.path(f"{probe.name}.k1.json")]
        argv = ["witness", str(pipe.path(f"{probe.name}.json")), "--out", *map(str, outs)]
        check = lambda p=probe, o=outs: check_witness_documents(o, p, pipe.states[p.name])  # noqa: E731
        ops.append(_op(pipe, argv, 0, outs, check))
    for index, probe in enumerate(probes):
        if not probe.faithful:
            continue
        truth_choi = choi_from_kraus(haar_isometry_kraus(probe.da, 1 + index % 3, g))
        truth = pipe.path(f"{probe.name}.truth.json")
        write_document(truth, "channel", [probe.da, probe.da], truth_choi, {"cptp": "true", "repr": "choi"})
        report = pipe.path(f"{probe.name}.report.json")
        outs = [report.with_name(f"{report.stem}.{i:03d}{report.suffix}") for i in range(TRIALS)]
        argv = [
            "reconstruct", str(pipe.path(f"{probe.name}.json")), "--channel", str(truth),
            "--noise", repr(NOISE), "--trials", str(TRIALS), "--seed", str(int(g.integers(2**31))), "--out", str(report),
        ]
        check = lambda p=probe, o=outs, c=truth_choi: check_report_documents(o, p, pipe.states[p.name], c)  # noqa: E731
        ops.append(_op(pipe, argv, 0, outs, check))
    for d in DECOMPOSE_DIMS:
        target = transfer_from_kraus(haar_isometry_kraus(d, 2, g)) - transfer_from_kraus(haar_isometry_kraus(d, 3, g))
        source = pipe.path(f"diff{d}.json")
        write_document(source, "transfer", [d, d], target, {})
        outs = [pipe.path(f"diff{d}.k0.json"), pipe.path(f"diff{d}.k1.json")]
        argv = ["decompose", str(source), "--out", *map(str, outs)]
        ops.append(_op(pipe, argv, 0, outs, lambda o=outs, d=d, t=target: check_decomposition(o, d, t)))
    return Workload(ops, tail_percent=95, warmup_ops=len(ops),
                    after_pass=pipe.clear_outputs, cleanup=pipe.remove)
