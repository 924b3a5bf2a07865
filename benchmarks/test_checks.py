"""The workload checkers count wrong results as failed operations.

Run from the root of a checkout:

    python3 -m pytest benchmarks/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import aapt  # noqa: E402
import cli_pipeline  # noqa: E402
import faithful_evidence  # noqa: E402
import sensitivity_scan  # noqa: E402
import tracing  # noqa: E402
from reference import haar_isometry_kraus  # noqa: E402

SEED = 3


def first_op(workload, prefix: str):
    return next(op for op in workload.ops if op.label.startswith(prefix))


def recorded_as_failed(op, result, pass_index: int = 0) -> bool:
    tally = run.Tally()
    ok = tally.record(op, result, pass_index)
    assert tally.attempted == 1
    return not ok and tally.failed == 1 and tally.wrong == 1


# -- sensitivity-scan ----------------------------------------------------------


@pytest.fixture(scope="module")
def scan():
    return sensitivity_scan.build(SEED)


def test_sensitivity_checker_accepts_the_real_certificate(scan):
    op = first_op(scan, "certify_sensitive 6x6 cq A")
    assert not recorded_as_failed(op, op.call(0))


def test_sensitivity_checker_counts_a_flipped_verdict(scan):
    op = first_op(scan, "certify_sensitive 6x6 cq A")
    cert = op.call(0)
    assert recorded_as_failed(op, dataclasses.replace(cert, sensitive=not cert.sensitive))


def test_sensitivity_checker_counts_a_nullity_off_by_one(scan):
    op = first_op(scan, "certify_sensitive 6x6 product B")
    cert = op.call(0)
    assert recorded_as_failed(op, dataclasses.replace(cert, nullity=cert.nullity + 1))


def test_sensitivity_checker_counts_a_measurement_that_perturbs_the_state(scan):
    op = first_op(scan, "certify_sensitive 4x9 cq A")
    cert = op.call(0)
    # a valid projective measurement in a basis the state is not block diagonal in
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    rotated = aapt.ProjectiveMeasurement(tuple(np.outer(q[:, i], q[:, i]) for i in range(4)))
    assert recorded_as_failed(op, dataclasses.replace(cert, pcq_measurement=rotated))


# -- faithful-evidence ---------------------------------------------------------


@pytest.fixture(scope="module")
def evidence():
    return faithful_evidence.build(SEED)


def test_evidence_checker_accepts_real_results(evidence):
    for prefix in ("witness 3x4 product", "noise_stress 4x4 random"):
        op = first_op(evidence, prefix)
        assert not recorded_as_failed(op, op.call(0))


def test_evidence_checker_counts_a_flipped_verdict(evidence):
    op = first_op(evidence, "witness 4x3 cq")
    cert, pair = op.call(0)
    assert recorded_as_failed(op, (dataclasses.replace(cert, faithful=not cert.faithful), pair))


def test_evidence_checker_counts_a_rank_off_by_one(evidence):
    op = first_op(evidence, "noise_stress 3x3 max-entangled")
    cert, reports = op.call(0)
    assert recorded_as_failed(op, (dataclasses.replace(cert, rank=cert.rank - 1), reports))


def test_evidence_checker_counts_a_witness_output_shifted_by_1e6(evidence):
    op = first_op(evidence, "witness 3x4 product")
    cert, pair = op.call(0)
    # still a CPTP channel, but its output on the probe moves by about 1e-6
    eps = 1e-6
    u = haar_isometry_kraus(3, 1, np.random.default_rng(1))[0]
    shifted = [np.sqrt(1 - eps) * k for k in pair.k0.kraus()] + [np.sqrt(eps) * u]
    moved = dataclasses.replace(pair, k0=aapt.Channel.from_kraus(shifted))
    assert recorded_as_failed(op, (cert, moved))


def test_evidence_checker_counts_a_reconstruction_outside_the_noise_bound(evidence):
    op = first_op(evidence, "noise_stress 4x4 random")
    cert, reports = op.call(0)
    t = reports[0].channel.transfer()
    t[0, 0] += 0.1
    wrong = dataclasses.replace(reports[0], channel=aapt.Channel.from_transfer(t, 4, 4))
    assert recorded_as_failed(op, (cert, [wrong, *reports[1:]]))


# -- cli-pipeline --------------------------------------------------------------


@pytest.fixture()
def pipeline(tmp_path):
    workload = cli_pipeline.build(SEED, tmp_path)
    tally = run.Tally()
    for op in workload.ops:
        tally.record(op, op.call(0), 0)
    assert tally.failed == 0, tally.messages
    yield workload, next(tmp_path.glob("cli-*"))
    workload.cleanup()


def _rewrite(path: Path, edit) -> None:
    raw = json.loads(path.read_text(encoding="utf-8"))
    edit(raw)
    path.write_text(json.dumps(raw), encoding="utf-8")


def _cli_op(workload, command: str, name: str):
    return next(op for op in workload.ops if op.label.startswith(command) and name in op.label)


def test_cli_checker_counts_a_wrong_rank_in_the_meta(pipeline):
    workload, workdir = pipeline
    op = _cli_op(workload, "certify", "rand33.json --mode faithful")
    out = workdir / "rand33.faithful.json"

    def wrong_rank(raw):
        raw["meta"]["rank"] = str(int(raw["meta"]["rank"]) - 1)

    _rewrite(out, wrong_rank)
    assert recorded_as_failed(op, 0)


def test_cli_checker_counts_a_flipped_exit_code(pipeline):
    workload, _ = pipeline
    op = _cli_op(workload, "certify", "prod34.json --mode sensitive")
    assert recorded_as_failed(op, 0)


def test_cli_checker_counts_a_witness_output_shifted_by_1e6(pipeline):
    workload, workdir = pipeline
    op = _cli_op(workload, "witness", "cq33.json")
    out = workdir / "cq33.k0.json"

    def shift(raw):
        raw["data"][0][0][0] += 1e-6

    _rewrite(out, shift)
    assert recorded_as_failed(op, 0)


def test_cli_checker_counts_changed_bytes_on_a_rerun(pipeline):
    workload, workdir = pipeline
    op = _cli_op(workload, "gen", "max-entangled")
    out = workdir / "me3.json"
    out.write_text(out.read_text(encoding="utf-8").replace("\n", "\n ", 1), encoding="utf-8")
    assert recorded_as_failed(op, 0)


# -- tracing -------------------------------------------------------------------


def test_tracer_reports_a_renamed_name_as_absent_and_keeps_running(monkeypatch):
    spans = [("states.renamed_away", "states", "renamed_away"), ("states.swap_sides", "states", "swap_sides")]
    monkeypatch.setattr(tracing, "SPANS", spans)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = aapt.max_entangled(2)
        tracer.begin(0)
        aapt.swap_sides(state)
        tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.absent == ["states.renamed_away"]
    metrics = tracer.metrics(1)
    assert metrics["states.renamed_away.calls"]["value"] == 0
    assert metrics["states.swap_sides.calls"]["value"] == 1
    assert aapt.swap_sides is aapt.states.swap_sides and not hasattr(aapt.swap_sides, "__wrapped__")


def test_self_time_excludes_child_spans(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", [("outer", "", ""), ("inner", "", "")])
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.records = [(0, 0.0, 1.0, -1, 0), (1, 0.2, 0.5, 0, 0), (1, 0.6, 0.7, 0, 0)]
    metrics = tracer.metrics(1)
    assert metrics["outer.self_ms"]["value"] == pytest.approx(600.0)
    assert metrics["inner.self_ms"]["value"] == pytest.approx(400.0)


# -- the runner without the package ----------------------------------------------


def test_run_exits_without_a_result_when_the_package_is_missing(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {name: m["unit"] for name, m in tracing.Tracer().metrics(1).items()}
    assert per_layer == traced
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed = {name: m["unit"] for name, m in run.end_to_end([0.001, 0.002], 0.5, 90).items()}
    assert end_to_end == printed
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_cli_checker_counts_a_command_that_wrote_nothing(pipeline):
    workload, workdir = pipeline
    op = _cli_op(workload, "decompose", "diff3.json")
    workload.after_pass()
    assert recorded_as_failed(op, 0)
