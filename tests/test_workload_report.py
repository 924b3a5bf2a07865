"""``tools/workload_report.py`` runs on the workloads as built, one line per operation, and restores what it wraps."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "workload_report.py"
spec = importlib.util.spec_from_file_location("workload_report", TOOL)
workload_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workload_report)

SPECTRAL_LINE = re.compile(r"^(none|(eigh|eigvalsh|svd|qr)\(\d+(, \d+)*\) x\d+(, (eigh|eigvalsh|svd|qr)\(\d+(, \d+)*\) x\d+)*)$")
SENSITIVITY_LINE = re.compile(
    r"^nullity \d+, slice_bound (True|False), largest slice cluster \d+: "
    r"tracemalloc peak \d+\.\d KB, ru_minflt \d+\.\d per call$"
)
DEAD_LINE = re.compile(r"^  (\d+) spans with 0 calls: (.*)$")


@pytest.fixture(scope="module")
def report() -> dict[str, list[str]]:
    """The tool's output, as the indented lines under each workload's heading (and the last line under ``""``)."""
    proc = subprocess.run([sys.executable, str(TOOL)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    sections: dict[str, list[str]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("  "):
            sections[name].append(line)
        else:
            name = line.split(",")[0] if "build(" in line else ""
            sections[name] = [line] if name == "" else []
    return sections


def _benchmark(module: str):
    """A module of ``benchmarks/``, imported as the benchmark imports it."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


@pytest.mark.parametrize(
    "workload, module, form",
    [("faithful-evidence", "faithful_evidence", SPECTRAL_LINE), ("sensitivity-scan", "sensitivity_scan", SENSITIVITY_LINE)],
    ids=["faithful-evidence", "sensitivity-scan"],
)
def test_one_line_per_operation_labelled_as_the_workload_labels_it(report, workload, module, form):
    lines = [line[2:].split(": ", 1) for line in report[workload][:-1]]
    assert [label for label, _ in lines] == [op.label for op in _benchmark(module).build(workload_report.SEED).ops]
    for label, facts in lines:
        assert form.match(facts), (label, facts)


def test_every_workload_and_all_of_them_list_their_spans_with_no_call(report):
    spans = {span for span, _, _ in _benchmark("tracing").SPANS}
    dead = {}
    for workload in ("sensitivity-scan", "faithful-evidence", "cli-pipeline"):
        count, names = DEAD_LINE.match(report[workload][-1]).groups()
        dead[workload] = set(names.split(", ")) if names else set()
        assert len(dead[workload]) == int(count) and dead[workload] <= spans
    everywhere = sorted(set.intersection(*dead.values()))
    assert report[""] == [f"0 calls on every workload ({len(everywhere)}): {', '.join(everywhere)}"]


def _double(x):
    return 2 * x


def test_recorded_notes_each_call_and_restores_every_name_when_the_body_raises():
    owner = SimpleNamespace(f=_double, g=abs)
    with pytest.raises(RuntimeError, match="^inside$"):
        with workload_report.recorded(owner, ("f", "g"), lambda name, args: (name, args)) as log:
            assert owner.f(3) == 6 and owner.g(-2) == 2
            raise RuntimeError("inside")
    assert log == [("f", (3,)), ("g", (-2,))]
    assert owner.f is _double and owner.g is abs


def test_recorded_wraps_nothing_when_a_name_is_gone():
    owner = SimpleNamespace(f=_double)
    with pytest.raises(AttributeError):
        with workload_report.recorded(owner, ("f", "renamed"), lambda name, args: name):
            pass
    assert owner.f is _double
