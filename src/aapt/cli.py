"""Command-line front end.

Subcommands: ``gen`` (probe state families), ``certify`` (faithful or
sensitive verdicts), ``witness`` (indistinguishable channel pairs),
``reconstruct`` (channel recovery reports), ``decompose`` (channel-difference
split of a serialized map).  Every command reads and writes the JSON
document format from :mod:`aapt.documents`; stdout carries only documents or
paths to them, diagnostics go to stderr.

Exit status encodes the outcome for scripting:

    0  verdict true / success
    1  verdict false (not faithful, not sensitive, no witness needed)
    2  usage or document format error
    3  numerical failure (ambiguous rank gap, verification failure)
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import documents
from .duality import certify_faithful
from .linalg import AMBIGUOUS_GAP_RATIO, random_density
from .reconstruct import NotFaithfulProbeError, noise_stress, reconstruct_channel
from .sensitivity import CHANNEL_CLASSES, certify_sensitive
from .states import SIDES, cq_state, max_entangled, product_state, random_state, unitary_faithful_state
from .witness import HermitianPreservingMap, decompose_channel_difference, faithfulness_witness

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the gen options each family reads, by argparse dest; gen refuses every other one
FAMILIES = {
    "max-entangled": ("da",),
    "product": ("da", "db", "seed"),
    "cq": ("p", "db", "sigmas", "seed"),
    "prop4": ("da", "spectrum"),
    "random": ("da", "db", "rank", "seed"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="aapt",
        description="Certify, witness, and reconstruct with bipartite probes for ancilla-assisted process tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rank_cut = argparse.ArgumentParser(add_help=False)  # the options of every command that cuts a rank on one side
    rank_cut.add_argument("--side", choices=SIDES, default="A")
    rank_cut.add_argument("--tol", type=float, default=0.0)

    gen = sub.add_parser("gen", help="generate a probe state document")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--da", "--d", dest="da", type=int, help="A dimension (every family but cq; default 2)")
    gen.add_argument("--db", type=int, help="B dimension (0 = family default)")
    gen.add_argument("--rank", type=int, help="rank of the random state (0 = full)")
    gen.add_argument("--p", type=str, help="comma-separated probabilities for cq")
    gen.add_argument("--lambda", dest="spectrum", type=str, help="comma-separated spectrum for prop4")
    gen.add_argument("--sigmas", choices=("basis", "random"), help="B blocks for cq (default basis)")
    gen.add_argument("--seed", type=int, help="product, random and cq only (default 0)")
    gen.add_argument("--out", type=Path)

    cert = sub.add_parser("certify", parents=[rank_cut], help="emit a faithfulness or sensitivity certificate")
    cert.set_defaults(run=_cmd_certify)
    cert.add_argument("state", type=Path)
    cert.add_argument("--mode", choices=("faithful", "sensitive"), required=True)
    cert.add_argument(
        "--class", dest="channel_class", choices=CHANNEL_CLASSES, help="sensitive mode only; default unital"
    )
    cert.add_argument("--out", type=Path)

    wit = sub.add_parser(
        "witness", parents=[rank_cut], help="emit an indistinguishable channel pair for a non-faithful state"
    )
    wit.set_defaults(run=_cmd_witness)
    wit.add_argument("state", type=Path)
    wit.add_argument("--out", type=Path, nargs=2, metavar=("K0", "K1"), required=True)

    rec = sub.add_parser("reconstruct", parents=[rank_cut], help="recover a channel from a faithful probe")
    rec.set_defaults(run=_cmd_reconstruct)
    rec.add_argument("probe", type=Path)
    rec.add_argument("output", type=Path, nargs="?")
    rec.add_argument("--channel", type=Path, help="ground-truth channel document; outputs are synthesized")
    rec.add_argument("--noise", type=float, help="--channel mode only; default 0")
    rec.add_argument("--trials", type=int, help="--channel mode only; default 1")
    rec.add_argument("--seed", type=int, help="--channel mode only; default 0")
    rec.add_argument("--out", type=Path)

    dec = sub.add_parser("decompose", help="split a trace-annihilating map into a channel difference")
    dec.set_defaults(run=_cmd_decompose)
    dec.add_argument("transfer", type=Path)
    dec.add_argument("--out", type=Path, nargs=2, metavar=("K0", "K1"), required=True)
    return parser


def _emit(doc: documents.MatrixDocument, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(documents.dumps(doc))
    else:
        documents.save(doc, out)
        print(out)


def _save_pair(paths: list[Path], alpha: float, k0, k1, extra: dict[str, str]) -> int:
    """Write the CPTP pair K0, K1 of a channel difference with its weight ``alpha``."""
    shared = {"cptp": "true", "alpha": documents.format_number(alpha), **extra}
    for path, channel, role in ((paths[0], k0, "k0"), (paths[1], k1, "k1")):
        _emit(documents.channel_document(channel, {**shared, "role": role}), path)
    return EXIT_OK


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must contain at least one number")
    return values


def _default_prop4_spectrum(d: int) -> list[float]:
    weights = [float(d - i) for i in range(d)]
    total = sum(weights)
    return [w / total for w in weights]


def _cmd_gen(args) -> int:
    for dest in ("da", "db", "rank", "p", "spectrum", "sigmas", "seed"):
        if getattr(args, dest) is not None and dest not in FAMILIES[args.family]:
            flag = "lambda" if dest == "spectrum" else dest
            raise ValueError(f"gen {args.family} does not read --{flag}")
    da = 2 if args.da is None else args.da
    for flag, value, least in (("da", da, 1), ("db", args.db or 0, 0)):
        if value < least:
            raise ValueError(f"gen --{flag} must be at least {least}, got {value}")
    db = args.db or da  # cq reads its own default below
    seed = args.seed or 0
    meta = {"family": args.family, "seed": str(seed)}
    if args.family == "max-entangled":
        state = max_entangled(da)
        meta["d"] = str(da)
    elif args.family == "product":
        g = np.random.default_rng(seed)
        state = product_state(random_density(da, da, g), random_density(db, db, g))
    elif args.family == "random":
        rank = args.rank or da * db
        state = random_state(da, db, rank, seed)
        meta["rank"] = str(rank)
    elif args.family == "cq":
        if not args.p:
            raise ValueError("the cq family needs --p")
        p = _parse_floats(args.p, "--p")
        db = args.db or len(p)
        meta["sigmas"] = args.sigmas or "basis"
        if meta["sigmas"] == "basis":
            sigmas = [np.diag(np.eye(db, dtype=complex)[i % db]) for i in range(len(p))]
        else:
            g = np.random.default_rng(seed)
            sigmas = [random_density(db, db, g) for _ in range(len(p))]
        state = cq_state(p, sigmas)
    else:  # prop4
        spectrum = _parse_floats(args.spectrum, "--lambda") if args.spectrum else _default_prop4_spectrum(da)
        if args.da is not None and args.da != len(spectrum):
            raise ValueError(f"prop4 --d {args.da} does not match the {len(spectrum)} values of --lambda")
        state = unitary_faithful_state(spectrum)
        meta["d"] = str(len(spectrum))
    _emit(documents.state_document(state, meta), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    state = documents.document_to_state(documents.load(args.state))
    if args.mode == "faithful":
        if args.channel_class is not None:
            raise ValueError("--class applies to --mode sensitive only")
        cert = certify_faithful(state, args.side, args.tol)
        verdict = cert.faithful
        doc = documents.faithfulness_document(cert)
    else:
        cert = certify_sensitive(state, args.side, args.channel_class or "unital", args.tol)
        verdict = cert.sensitive
        doc = documents.sensitivity_document(cert, state.dims)
    _emit(doc, args.out)
    gap_ratio = cert.evidence.gap_ratio
    if gap_ratio < AMBIGUOUS_GAP_RATIO:
        print(
            f"ambiguous rank decision: gap ratio {gap_ratio:.3g} < {AMBIGUOUS_GAP_RATIO:g}; "
            "tighten --tol or treat the verdict as undecided",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_witness(args) -> int:
    state = documents.document_to_state(documents.load(args.state))
    pair = faithfulness_witness(state, args.side, args.tol)
    if pair is None:
        print("state is faithful; no witness pair exists", file=sys.stderr)
        return EXIT_FALSE
    fmt = documents.format_number
    extra = {"side": pair.side, "output_gap": fmt(pair.output_gap), "channel_gap": fmt(pair.channel_gap)}
    return _save_pair(args.out, pair.alpha, pair.k0, pair.k1, extra)


def _cmd_reconstruct(args) -> int:
    if args.output is not None:
        for flag in ("channel", "noise", "trials", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} cannot be combined with an output state document")
    probe = documents.document_to_state(documents.load(args.probe))
    if args.channel is not None:
        truth = documents.document_to_channel(documents.load(args.channel))
        noise, trials, seed = (d if v is None else v for v, d in ((args.noise, 0.0), (args.trials, 1), (args.seed, 0)))
        reports = noise_stress(probe, truth, noise, trials, seed, args.side, args.tol)
        meta_extra = {"noise": documents.format_number(noise), "seed": str(seed)}
    elif args.output is not None:
        output = documents.document_to_state(documents.load(args.output))
        reports = [reconstruct_channel(probe, output, args.side, args.tol)]
        meta_extra = {}
    else:
        raise ValueError("reconstruct needs an output state document or --channel")
    for index, report in enumerate(reports):
        meta = {"side": args.side, **meta_extra}
        if len(reports) > 1:
            meta["trial"] = str(index)
        path = args.out
        if path is not None and len(reports) > 1:
            path = path.with_name(f"{path.stem}.{index:03d}{path.suffix}")
        _emit(documents.report_document(report, meta), path)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    t = documents.document_to_transfer(documents.load(args.transfer))
    alpha, k0, k1 = decompose_channel_difference(HermitianPreservingMap(t))
    return _save_pair(args.out, alpha, k0, k1, {})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE if isinstance(exc, NotFaithfulProbeError) else EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
