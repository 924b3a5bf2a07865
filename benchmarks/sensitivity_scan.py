"""Workload ``sensitivity-scan``: one ``certify_sensitive`` call per operation.

Every probe has d_A * d_B = 36, so each call builds a 1296-row commutator
matrix and its SVD; the shapes only change the column count (d^2 of the
measured side), which keeps the slowest call within about ten times the
fastest.  The families fix the nullity:

* random full-rank states: 1 on either side (sensitive);
* random cq states: d_A on A (not sensitive), 1 on B;
* products with non-degenerate marginals: the measured side's dimension.

The channel class alternates between ``unitary`` and ``unital`` from one
operation to the next and from one pass to the next, so over two passes
every (probe, side) is certified under both classes and the two nullities
are compared.
"""

from __future__ import annotations

import numpy as np

import aapt
from reference import (
    CheckFailure,
    cq_matrix,
    distinct_spectrum,
    expected_nullity,
    ginibre,
    pinch,
    require,
    require_projective_measurement,
    wishart_density,
)
from workload import Op, Workload

SHAPES = [(6, 6), (4, 9), (9, 4), (3, 12), (12, 3)]
FAMILIES = ("random", "cq", "product")
CLASSES = ("unitary", "unital")
PROJECTOR_TOL = 1e-10
PINCH_TOL = 1e-10


def make_probe(family: str, da: int, db: int, g: np.random.Generator) -> np.ndarray:
    if family == "random":
        return wishart_density(da * db, g)
    if family == "cq":
        return cq_matrix(distinct_spectrum(da, g), [wishart_density(db, g) for _ in range(da)])
    rho_a = np.diag(distinct_spectrum(da, g)).astype(complex)
    rho_b = np.diag(distinct_spectrum(db, g)).astype(complex)
    # rotate the marginals out of the computational basis
    ua = np.linalg.qr(ginibre(da, da, g))[0]
    ub = np.linalg.qr(ginibre(db, db, g))[0]
    return np.kron(ua @ rho_a @ ua.conj().T, ub @ rho_b @ ub.conj().T)


def check_certificate(cert, rho: np.ndarray, family: str, side: str, channel_class: str, dims, seen: dict) -> None:
    """Verdict, nullity, class equivalence and the PC-Q measurement of one certificate."""
    da, db = dims
    want = expected_nullity(family, side, da, db)
    require(cert.nullity == want, f"nullity {cert.nullity}, the {family} family fixes {want} on {side}")
    require(cert.sensitive == (want == 1), f"verdict sensitive={cert.sensitive} with nullity {want}")
    require(cert.side == side and cert.channel_class == channel_class, "certificate names another side or class")
    other = seen.get(CLASSES[1 - CLASSES.index(channel_class)])
    require(other is None or other == cert.nullity, f"{channel_class} nullity {cert.nullity}, other class gave {other}")
    seen[channel_class] = cert.nullity
    if cert.sensitive:
        require(cert.pcq_measurement is None, "a sensitive verdict carries a PC-Q measurement")
        return
    require(cert.pcq_measurement is not None, "a non-sensitive verdict carries no PC-Q measurement")
    projectors = [np.asarray(p) for p in cert.pcq_measurement.projectors]
    d = da if side == "A" else db
    require_projective_measurement(projectors, d, PROJECTOR_TOL, "PC-Q measurement")
    residual = float(np.linalg.norm(pinch(rho, projectors, da, db, side) - rho))
    require(residual <= PINCH_TOL, f"PC-Q pinching moves the state by {residual:.3e}")


def build(seed: int, workdir=None) -> Workload:
    g = np.random.default_rng(seed)
    ops = []
    for da, db in SHAPES:
        for family in FAMILIES:
            rho = make_probe(family, da, db, g)
            state = aapt.BipartiteState(rho, da, db)
            for side in ("A", "B"):
                ops.append(_op(len(ops), state, rho, family, side, (da, db)))
    return Workload(ops, tail_percent=90, warmup_ops=2)


def _op(index: int, state, rho: np.ndarray, family: str, side: str, dims) -> Op:
    seen: dict[str, int] = {}

    def channel_class(pass_index: int) -> str:
        return CLASSES[(index + pass_index) % 2]

    def call(pass_index: int):
        return aapt.certify_sensitive(state, side, channel_class(pass_index))

    def check(cert, pass_index: int) -> None:
        if not isinstance(cert, aapt.SensitivityCertificate):
            raise CheckFailure(f"expected a SensitivityCertificate, got {type(cert).__name__}")
        check_certificate(cert, rho, family, side, channel_class(pass_index), dims, seen)

    return Op(f"certify_sensitive {dims[0]}x{dims[1]} {family} {side}", call, check)
