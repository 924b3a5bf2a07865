"""Flat-file JSON documents for states, channels, maps, certificates, reports.

One schema covers every artifact kind:

    {"kind": <state|channel|transfer|certificate|report>,
     "dims": [int, ...],
     "data": nested arrays of [re, im] pairs (row-major),
     "meta": {string: string}}

Numbers are written with 17 significant decimal digits, which round-trips
IEEE doubles exactly, and the writer emits keys and rows in a fixed order,
so identical objects always serialize to identical bytes.  Channel documents
carry the Choi matrix; transfer and report documents carry the transfer
matrix of the map they describe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import Channel, classify
from .duality import FaithfulnessCertificate, TransferMatrix
from .linalg import RankEvidence, read_only
from .reconstruct import ReconstructionReport
from .sensitivity import SensitivityCertificate
from .states import BipartiteState

KINDS = ("state", "channel", "transfer", "certificate", "report")
CPTP_TOL = 1e-8


@dataclass(frozen=True)
class MatrixDocument:
    """A typed numeric payload plus free-form string metadata."""

    kind: str
    dims: tuple[int, ...]
    data: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"document kind must be one of {KINDS}, got {self.kind!r}")
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive integers, got {self.dims}")
        data = np.asarray(self.data, dtype=complex)
        if data.ndim < 1 or data.size == 0:
            raise ValueError("data must be a nonempty array")
        if not np.all(np.isfinite(data)):
            raise ValueError("data must be finite")
        meta = {str(k): str(v) for k, v in self.meta.items()}
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", read_only(data))
        object.__setattr__(self, "meta", meta)


def format_number(x: float) -> str:
    """Decimal form with 17 significant digits (lossless for doubles)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("documents store finite numbers only")
    return format(x, ".17g")


def _cut_meta(ev: RankEvidence) -> dict[str, str]:
    ratio = ev.gap_ratio
    return {"tol": format_number(ev.tol), "gap_ratio": str(ratio) if math.isinf(ratio) else format_number(ratio)}


def _cut_data(ev: RankEvidence) -> np.ndarray:
    return np.array([ev.smallest_kept, ev.largest_dropped], dtype=complex)


def _encode_data(arr: np.ndarray) -> str:
    if arr.ndim == 1:
        pairs = ",".join(f"[{format_number(z.real)},{format_number(z.imag)}]" for z in arr)
        return f"[{pairs}]"
    inner = ",\n".join(_encode_data(sub) for sub in arr)
    return f"[\n{inner}\n]"


def dumps(doc: MatrixDocument) -> str:
    dims = ", ".join(str(d) for d in doc.dims)
    meta = ", ".join(f"{json.dumps(k)}: {json.dumps(doc.meta[k])}" for k in sorted(doc.meta))
    return (
        "{\n"
        f'"kind": {json.dumps(doc.kind)},\n'
        f'"dims": [{dims}],\n'
        f'"data": {_encode_data(doc.data)},\n'
        f'"meta": {{{meta}}}\n'
        "}\n"
    )


def _decode_data(node) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed data array: {exc}") from None
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValueError("data entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def loads(text: str) -> MatrixDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a valid document: {exc}") from None
    if not isinstance(raw, dict) or set(raw) != {"kind", "dims", "data", "meta"}:
        raise ValueError("a document needs exactly the keys kind, dims, data, meta")
    dims = raw["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise ValueError("dims must be a list of integers")
    meta = raw["meta"]
    if not isinstance(meta, dict) or not all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items()):
        raise ValueError("meta must map strings to strings")
    return MatrixDocument(kind=raw["kind"], dims=tuple(dims), data=_decode_data(raw["data"]), meta=meta)


def save(doc: MatrixDocument, path) -> Path:
    path = Path(path)
    path.write_text(dumps(doc), encoding="utf-8")
    return path


def load(path) -> MatrixDocument:
    return loads(Path(path).read_text(encoding="utf-8"))


# -- kind-specific packing -----------------------------------------------


def state_document(state: BipartiteState, meta: dict[str, str] | None = None) -> MatrixDocument:
    return MatrixDocument("state", state.dims, state.matrix, dict(meta or {}))


def document_to_state(doc: MatrixDocument) -> BipartiteState:
    if doc.kind != "state":
        raise ValueError(f"expected a state document, got kind {doc.kind!r}")
    if len(doc.dims) != 2:
        raise ValueError("state documents carry exactly two dimensions")
    return BipartiteState(doc.data, doc.dims[0], doc.dims[1])


def channel_document(channel: Channel, meta: dict[str, str] | None = None) -> MatrixDocument:
    merged = {"repr": "choi", **(meta or {})}
    return MatrixDocument("channel", (channel.dim_in, channel.dim_out), channel.choi(), merged)


def document_to_channel(doc: MatrixDocument) -> Channel:
    """Rebuild a channel from its Choi payload.

    Documents flagged ``cptp=true`` in their metadata are re-validated on
    load and rejected when the Choi matrix fails the CP or TP residuals
    at 1e-8.
    """
    if doc.kind != "channel":
        raise ValueError(f"expected a channel document, got kind {doc.kind!r}")
    if len(doc.dims) != 2:
        raise ValueError("channel documents carry exactly the input and output dimensions")
    channel = Channel.from_choi(doc.data, doc.dims[0], doc.dims[1])
    if doc.meta.get("cptp") == "true":
        report = classify(channel, CPTP_TOL)
        if not (report.is_cp and report.is_tp):
            raise ValueError(
                "document claims a CPTP channel but validation failed "
                f"(min Choi eigenvalue {report.min_choi_eigenvalue:.3e}, TP residual {report.tp_residual:.3e})"
            )
    return channel


def transfer_document(t: TransferMatrix) -> MatrixDocument:
    return MatrixDocument("transfer", (t.dim_in, t.dim_out), t.matrix)


def document_to_transfer(doc: MatrixDocument) -> TransferMatrix:
    if doc.kind != "transfer":
        raise ValueError(f"expected a transfer document, got kind {doc.kind!r}")
    if len(doc.dims) != 2:
        raise ValueError("transfer documents carry exactly the input and output dimensions")
    return TransferMatrix(doc.dims[0], doc.dims[1], doc.data)


def faithfulness_document(cert: FaithfulnessCertificate) -> MatrixDocument:
    meta = {
        "mode": "faithful",
        "verdict": "true" if cert.faithful else "false",
        "side": cert.side,
        "rank": str(cert.rank),
        "required_rank": str(cert.required_rank),
        **_cut_meta(cert.evidence),
        "restricted_dims": f"{cert.dims[0]}x{cert.dims[1]}",
        "evidence": "singular_gap",
    }
    return MatrixDocument("certificate", cert.input_dims, _cut_data(cert.evidence), meta)


def sensitivity_document(cert: SensitivityCertificate, dims: tuple[int, int]) -> MatrixDocument:
    meta = {
        "mode": "sensitive",
        "verdict": "true" if cert.sensitive else "false",
        "side": cert.side,
        "channel_class": cert.channel_class,
        "nullity": str(cert.nullity),
        **_cut_meta(cert.evidence),
    }
    if cert.pcq_measurement is not None:
        meta["evidence"] = "pcq_projectors"
        data = np.stack(cert.pcq_measurement.projectors)
    else:
        meta["evidence"] = "slice_bound" if cert.slice_bound else "singular_gap"
        data = _cut_data(cert.evidence)
    return MatrixDocument("certificate", dims, data, meta)


def report_document(report: ReconstructionReport, meta: dict[str, str] | None = None) -> MatrixDocument:
    merged = {
        "condition": format_number(report.condition),
        "cp_deviation": format_number(report.cp_deviation),
        "tp_deviation": format_number(report.tp_deviation),
        **(meta or {}),
    }
    if report.choi_error is not None:
        merged["choi_error"] = format_number(report.choi_error)
    channel = report.channel
    return MatrixDocument("report", (channel.dim_in, channel.dim_out), channel.transfer(), merged)
