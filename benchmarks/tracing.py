"""Spans around the public names of each ``aapt`` module, installed from outside.

The tracer replaces every binding of a traced name that a caller can look
up: the defining module's attribute, each ``aapt`` module that imported it
(``aapt.cli.certify_sensitive`` as well as ``aapt.sensitivity.certify_sensitive``)
and the package namespace.  Classes are traced through ``__post_init__``
(their validation) or a named method.  A name that no longer exists is
reported as absent instead of failing the run.

Spans are recorded only while an operation is being timed, kept in memory,
and written out once at the end of the run.  The peak allocations of
``PEAK_SPANS`` are taken with ``tracemalloc`` in one extra pass after the
timed ones, with span timing off, so tracemalloc's cost never reaches a
recorded time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

# (span name, module, attribute path inside the module)
SPANS = [
    ("linalg.rank_evidence", "linalg", "rank_evidence"),
    ("linalg.pseudo_inverse", "linalg", "pseudo_inverse"),
    ("linalg.hermitian_basis", "linalg", "hermitian_basis"),
    ("states.BipartiteState", "states", "BipartiteState.__post_init__"),
    ("states.swap_sides", "states", "swap_sides"),
    ("channels.apply_on_A", "channels", "apply_on_A"),
    ("channels.apply_on_B", "channels", "apply_on_B"),
    ("channels.Channel.kraus", "channels", "Channel.kraus"),
    ("channels.Channel.choi", "channels", "Channel.choi"),
    ("channels.classify", "channels", "classify"),
    ("duality.certify_faithful", "duality", "certify_faithful"),
    ("duality.restrict_support", "duality", "restrict_support"),
    ("duality.state_to_map", "duality", "state_to_map"),
    ("sensitivity.certify_sensitive", "sensitivity", "certify_sensitive"),
    ("sensitivity.commutant_basis", "sensitivity", "commutant_basis"),
    ("sensitivity.pcq_residual", "sensitivity", "pcq_residual"),
    ("sensitivity.ProjectiveMeasurement", "sensitivity", "ProjectiveMeasurement.__post_init__"),
    ("witness.faithfulness_witness", "witness", "faithfulness_witness"),
    ("witness.decompose_channel_difference", "witness", "decompose_channel_difference"),
    ("reconstruct.noise_stress", "reconstruct", "noise_stress"),
    ("reconstruct.reconstruct_channel", "reconstruct", "reconstruct_channel"),
    ("documents.dumps", "documents", "dumps"),
    ("documents.loads", "documents", "loads"),
    ("cli.main", "cli", "main"),
]

# Spans that also record the peak traced allocation made inside them.
PEAK_SPANS = ("sensitivity.commutant_basis", "witness.faithfulness_witness", "reconstruct.reconstruct_channel")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        # span records: (name index, start, end, parent record index or -1, operation id)
        self.records: list[tuple[int, float, float, int, int]] = []
        self.peaks: dict[str, float] = {}
        self._replaced: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._op = -1
        # Allocation peaks come from a separate pass, so tracemalloc never runs
        # while spans are timed.
        self.measure_memory = False

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name == "aapt" or name.startswith("aapt.")}
        for span, module_name, path in SPANS:
            module = modules.get(f"aapt.{module_name}")
            owner, attr = module, path
            if module is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            if owner is module:
                targets = [(mod, key) for mod in modules.values() for key, value in vars(mod).items() if value is original]
            else:
                targets = [(owner, attr)]
            for target, key in targets:
                self._replaced.append((target, key, original))
                setattr(target, key, wrapper)
        if self.absent:
            print(f"trace: absent names {', '.join(self.absent)}", file=sys.stderr)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._replaced):
            setattr(target, key, original)
        self._replaced.clear()

    def _wrap(self, span: str, fn):
        index = len(self.names)
        self.names.append(span)
        peak = span in PEAK_SPANS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if peak and tracer.measure_memory:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    grown = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[span] = max(tracer.peaks.get(span, 0.0), grown)
            if tracer._op < 0:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = len(tracer.records)
            tracer.records.append((index, 0.0, 0.0, parent, tracer._op))
            tracer._stack.append(record)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.records[record] = (index, start, end, parent, tracer._op)

        return wrapper

    # -- recording -------------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self._op = op_id

    def end(self) -> None:
        self._op = -1
        self._stack.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, operations: int) -> dict[str, dict]:
        """Per-operation calls and self time of every span, plus the peak spans' allocation."""
        child_time = [0.0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (index, start, end, _, _) in enumerate(self.records):
            name = self.names[index]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        out = {}
        for span, _, _ in SPANS:
            out[f"{span}.calls"] = {"value": calls.get(span, 0) / operations, "unit": "count"}
            out[f"{span}.self_ms"] = {"value": self_s.get(span, 0.0) * 1e3 / operations, "unit": "ms"}
            if span in PEAK_SPANS:
                out[f"{span}.peak_mb"] = {"value": self.peaks.get(span, 0.0), "unit": "MB"}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for index, start, end, parent, op in self.records:
                fh.write(f"[{index},{start!r},{end!r},{parent},{op}]\n")
