"""List what changed between two document trees written by ``tools/doc_corpus.py``.

    python tools/corpus_diff.py OLD NEW

Documents are grouped into classes by file name, with every run of digits
replaced by ``#`` (``random_3x4_r2.sensitive.A.unital.json`` belongs to
``random_#x#_r#.sensitive.A.unital.json``).  For each class and each field
(``kind``, ``dims``, ``data`` and every ``meta`` key) one line gives how many
documents of the class changed that field, how many of those changes were a
change of array shape (for ``data``: a different number of projectors, say),
and the largest absolute change among the rest (a ``meta`` key present in
one tree only counts as a shape change).  Numbers in ``meta`` are
compared as floats, so ``inf`` against a finite value reads as an infinite
change.  Other ``meta`` values end the line with each old→new transition
and its count, such as ``singular_gap→slice_bound 12`` (``(none)`` for a
missing key), so a changed ``verdict`` cannot hide among the numbers.  The
last line says whether ``exit_codes.json`` is byte-identical.
Nothing here imports ``aapt``; the exit status is 0 whether or not the trees
differ.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

EXIT_CODES = "exit_codes.json"
MISSING = "(none)"


def document_class(name: str) -> str:
    return re.sub(r"\d+", "#", name)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _data(node) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def field_changes(old: dict, new: dict) -> dict[str, tuple[bool, float, str | None]]:
    """Changed fields of one document: name -> (shape changed, largest absolute change or nan, transition).

    The transition is ``"old→new"`` for a ``meta`` value that is not a
    number on both sides, and None otherwise.
    """
    out: dict[str, tuple[bool, float, str | None]] = {}
    for key in ("kind", "dims"):
        if old[key] != new[key]:
            out[key] = (False, math.nan, None)
    a, b = _data(old["data"]), _data(new["data"])
    if a.shape != b.shape:
        out["data"] = (True, math.nan, None)
    elif not np.array_equal(a, b):
        out["data"] = (False, float(np.max(np.abs(a - b))), None)
    for key in sorted(set(old["meta"]) | set(new["meta"])):
        x, y = old["meta"].get(key), new["meta"].get(key)
        if x == y:
            continue
        fx, fy = _number(x or ""), _number(y or "")
        if fx is None or fy is None:
            out[f"meta.{key}"] = (x is None or y is None, math.nan, f"{x or MISSING}→{y or MISSING}")
        else:
            out[f"meta.{key}"] = (False, math.inf if math.isinf(fx) != math.isinf(fy) else abs(fx - fy), None)
    return out


def _fmt(x: float) -> str:
    return "-" if math.isnan(x) else f"{x:.2g}"


def compare(old_root: Path, new_root: Path) -> list[str]:
    old_names = {p.name for p in old_root.iterdir() if p.name != EXIT_CODES}
    new_names = {p.name for p in new_root.iterdir() if p.name != EXIT_CODES}
    totals: dict[str, int] = defaultdict(int)
    # (class, field) -> [documents changed, shape changes, largest change, transition counts]
    changes: dict[tuple[str, str], list] = {}
    changed_docs = 0
    for name in sorted(old_names & new_names):
        cls = document_class(name)
        totals[cls] += 1
        old_bytes, new_bytes = (old_root / name).read_bytes(), (new_root / name).read_bytes()
        if old_bytes == new_bytes:
            continue
        changed_docs += 1
        for field, (reshaped, delta, transition) in field_changes(json.loads(old_bytes), json.loads(new_bytes)).items():
            entry = changes.setdefault((cls, field), [0, 0, math.nan, Counter()])
            entry[0] += 1
            entry[1] += reshaped
            if not math.isnan(delta):
                entry[2] = delta if math.isnan(entry[2]) else max(entry[2], delta)
            if transition is not None:
                entry[3][transition] += 1
    lines = [
        f"{len(old_names & new_names)} documents in both trees, {changed_docs} differ in bytes; "
        f"{len(old_names - new_names)} only in OLD, {len(new_names - old_names)} only in NEW"
    ]
    lines += [f"  only in OLD: {n}" for n in sorted(old_names - new_names)]
    lines += [f"  only in NEW: {n}" for n in sorted(new_names - old_names)]
    if changes:
        lines.append("class\tfield\tchanged/total\tshape changes\tmax |change|\ttransitions")
    for (cls, field), (count, reshaped, delta, transitions) in sorted(changes.items()):
        moves = ", ".join(f"{t} {n}" for t, n in sorted(transitions.items()))
        lines.append(f"{cls}\t{field}\t{count}/{totals[cls]}\t{reshaped}\t{_fmt(delta)}\t{moves}".rstrip("\t"))
    same = (old_root / EXIT_CODES).read_bytes() == (new_root / EXIT_CODES).read_bytes()
    lines.append(f"{EXIT_CODES}: {'byte-identical' if same else 'DIFFERS'}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: corpus_diff.py OLD NEW", file=sys.stderr)
        return 2
    print("\n".join(compare(Path(args[0]), Path(args[1]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
