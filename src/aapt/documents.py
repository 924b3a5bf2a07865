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
from .linalg import checked_choice, checked_dims, read_only
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
        checked_choice(self.kind, KINDS, "document kind")
        dims = checked_dims(self.dims, "dims")
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


def _data_template(shape: tuple[int, ...]) -> str:
    """The layout of a data array of ``shape``: one ``[%.17g,%.17g]`` per entry, a line per row and block."""
    if len(shape) == 1:
        return "[" + ",".join(["[%.17g,%.17g]"] * shape[0]) + "]"
    inner = ",\n".join([_data_template(shape[1:])] * shape[0])
    return f"[\n{inner}\n]"


def _encode_data(arr: np.ndarray) -> str:
    # one %-format over every real and imaginary part; '%.17g' % x is format_number(x) for finite x,
    # and MatrixDocument refuses non-finite data
    return _data_template(arr.shape) % tuple(np.stack([arr.real, arr.imag], axis=-1).ravel().tolist())


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
    """The complex array that the JSON ``data`` node holds as nested ``[re, im]`` pairs.

    The leaves must be JSON numbers: a string (``"1"``), a boolean or a
    ``null`` is refused, rather than parsed or cast to a number.  The check
    reads the dtype that numpy infers for the whole node, so a boolean that
    sits among numbers (``[1, true]``) is folded into an integer and
    passes (a walk over every leaf would catch it, at about three times
    the cost of the decode), and an integer outside the int64 range, which
    numpy holds as an object, is refused with the non-numbers.  The JSON
    values numpy cannot hold as an array at all, ragged nesting and nesting
    past numpy's 64 dimensions, are refused with one fixed message rather
    than numpy's own, whose wording varies by version.
    """
    try:
        arr = np.asarray(node)
    except ValueError:
        raise ValueError("malformed data array: ragged nesting, or deeper than 64 levels") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError("data entries must be JSON numbers")
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
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):  # not bool (JSON true/false), an int subclass
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


def _check_kind_and_dims(doc: MatrixDocument, kind: str) -> None:
    """Refuse ``doc`` unless it is a ``kind`` document with exactly two dims."""
    if doc.kind != kind:
        raise ValueError(f"expected a {kind} document, got kind {doc.kind!r}")
    if len(doc.dims) != 2:
        two = "two dimensions" if kind == "state" else "the input and output dimensions"
        raise ValueError(f"{kind} documents carry exactly {two}")


def document_to_state(doc: MatrixDocument) -> BipartiteState:
    _check_kind_and_dims(doc, "state")
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
    _check_kind_and_dims(doc, "channel")
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
    _check_kind_and_dims(doc, "transfer")
    return TransferMatrix(doc.dims[0], doc.dims[1], doc.data)


def _certificate_document(mode: str, verdict: bool, cert, dims, data, meta: dict[str, str]) -> MatrixDocument:
    """The certificate document of ``cert``: its verdict, side and rank cut, then ``meta``; ``data`` is the cut if None."""
    ev = cert.evidence
    if data is None:
        data = np.array([ev.smallest_kept, ev.largest_dropped], dtype=complex)
    meta = {
        "mode": mode,
        "verdict": "true" if verdict else "false",
        "side": cert.side,
        "tol": format_number(ev.tol),
        "gap_ratio": str(ev.gap_ratio) if math.isinf(ev.gap_ratio) else format_number(ev.gap_ratio),
        **meta,
    }
    return MatrixDocument("certificate", dims, data, meta)


def faithfulness_document(cert: FaithfulnessCertificate) -> MatrixDocument:
    meta = {
        "rank": str(cert.rank),
        "required_rank": str(cert.required_rank),
        "restricted_dims": f"{cert.dims[0]}x{cert.dims[1]}",
        "evidence": "singular_gap",
    }
    return _certificate_document("faithful", cert.faithful, cert, cert.input_dims, None, meta)


def sensitivity_document(cert: SensitivityCertificate, dims: tuple[int, int]) -> MatrixDocument:
    pcq = cert.pcq_measurement
    evidence = "pcq_projectors" if pcq is not None else "slice_bound" if cert.slice_bound else "singular_gap"
    data = None if pcq is None else np.stack(pcq.projectors)
    meta = {"channel_class": cert.channel_class, "nullity": str(cert.nullity), "evidence": evidence}
    return _certificate_document("sensitive", cert.sensitive, cert, dims, data, meta)


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
