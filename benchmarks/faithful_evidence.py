"""Workload ``faithful-evidence``: a faithfulness verdict and its evidence per operation.

Each operation certifies one probe on side A.  A probe that is not faithful
then gets ``faithfulness_witness``; a faithful one gets ``noise_stress``
against a truth channel built from the benchmark's own Haar isometry.
Truth channels alternate between Kraus form and Choi form, so both routes
``apply_on_A`` takes to Kraus operators run.  This workload never calls
``sensitivity``.

Ranks fixed by the family (side A, after support restriction):

* random full-rank: d_A^2 when d_A <= d_B, else d_B^2;
* maximally entangled: d_A^2;
* product: 1;
* random cq: d_A;
* ``unitary_faithful_state``: 2.
"""

from __future__ import annotations

import numpy as np

import aapt
from reference import (
    CheckFailure,
    check_reconstructions,
    check_witness_pair,
    choi_from_kraus,
    cq_matrix,
    distinct_spectrum,
    expected_rank,
    haar_isometry_kraus,
    max_entangled_matrix,
    require,
    wishart_density,
)
from workload import Op, Workload

RANDOM_SHAPES = [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5)]
MAX_ENTANGLED_DIMS = (3, 4, 5)
PRODUCT_SHAPES = [(3, 4), (4, 5), (5, 3)]
CQ_SHAPES = [(3, 5), (4, 3), (5, 4)]
UNITARY_FAITHFUL_DIMS = (3, 4, 5)
NOISE = 1e-6
TRIALS = 4


def _probes(g: np.random.Generator):
    """(family, d_A, d_B, density matrix, constructor) for every probe of a pass."""
    out = []
    for da, db in RANDOM_SHAPES:
        rho = wishart_density(da * db, g)
        out.append(("random", da, db, rho, lambda rho=rho, da=da, db=db: aapt.BipartiteState(rho, da, db)))
    for d in MAX_ENTANGLED_DIMS:
        out.append(("max-entangled", d, d, max_entangled_matrix(d), lambda d=d: aapt.max_entangled(d)))
    for da, db in PRODUCT_SHAPES:
        a, b = wishart_density(da, g), wishart_density(db, g)
        out.append(("product", da, db, np.kron(a, b), lambda a=a, b=b: aapt.product_state(a, b)))
    for da, db in CQ_SHAPES:
        p = distinct_spectrum(da, g)
        sigmas = [wishart_density(db, g) for _ in range(da)]
        out.append(("cq", da, db, cq_matrix(p, sigmas), lambda p=p, s=sigmas: aapt.cq_state(p, s)))
    for d in UNITARY_FAITHFUL_DIMS:
        lam = distinct_spectrum(d, g)
        e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        rho = 0.5 * np.kron(np.diag(lam), e0) + 0.5 * np.kron(np.full((d, d), 1.0 / d), e1)
        out.append(("unitary-faithful", d, 2, rho.astype(complex), lambda lam=lam: aapt.unitary_faithful_state(lam)))
    return out


def build(seed: int, workdir=None) -> Workload:
    g = np.random.default_rng(seed)
    ops = []
    faithful_count = 0
    for family, da, db, rho, make in _probes(g):
        state = make()
        rank = expected_rank(family, da, db)
        if rank == da * da:
            env = 1 + faithful_count % 3
            kraus = haar_isometry_kraus(da, env, g)
            choi = choi_from_kraus(kraus)
            if faithful_count % 2 == 0:
                truth = aapt.Channel.from_kraus(kraus)
            else:
                truth = aapt.Channel.from_choi(choi, da, da)
            faithful_count += 1
            stress_seed = int(g.integers(2**31))
            ops.append(_stress_op(state, rho, family, (da, db), truth, choi, stress_seed))
        else:
            ops.append(_witness_op(state, rho, family, (da, db), rank))
    return Workload(ops, tail_percent=99, warmup_ops=len(ops))


def check_certificate(cert, family: str, dims, rank: int) -> None:
    da, _ = dims
    require(cert.rank == rank, f"rank {cert.rank}, the {family} family fixes {rank}")
    require(cert.faithful == (rank == da * da), f"verdict faithful={cert.faithful} with rank {rank} of {da * da}")


def check_witness(pair, rho: np.ndarray, dims) -> None:
    require(pair is not None, "no witness for a probe that is not faithful")
    c0 = choi_from_kraus([np.asarray(k) for k in pair.k0.kraus()])
    c1 = choi_from_kraus([np.asarray(k) for k in pair.k1.kraus()])
    check_witness_pair(c0, c1, rho, dims)


def check_reports(reports, truth_choi: np.ndarray, rho: np.ndarray, dims) -> None:
    require(len(reports) == TRIALS, f"{len(reports)} reports for {TRIALS} trials")
    transfers = [np.asarray(report.channel.transfer()) for report in reports]
    check_reconstructions(transfers, truth_choi, rho, dims, NOISE)


def _witness_op(state, rho, family, dims, rank) -> Op:
    def call(pass_index: int):
        cert = aapt.certify_faithful(state, "A")
        return cert, (None if cert.faithful else aapt.faithfulness_witness(state, "A"))

    def check(result, pass_index: int) -> None:
        cert, pair = result
        check_certificate(cert, family, dims, rank)
        check_witness(pair, rho, dims)

    return Op(f"witness {dims[0]}x{dims[1]} {family}", call, check)


def _stress_op(state, rho, family, dims, truth, truth_choi, stress_seed) -> Op:
    da, _ = dims

    def call(pass_index: int):
        cert = aapt.certify_faithful(state, "A")
        if not cert.faithful:
            return cert, None
        return cert, aapt.noise_stress(state, truth, NOISE, TRIALS, stress_seed, "A")

    def check(result, pass_index: int) -> None:
        cert, reports = result
        check_certificate(cert, family, dims, da * da)
        if reports is None:
            raise CheckFailure("a faithful probe was not reconstructed")
        check_reports(reports, truth_choi, rho, dims)

    return Op(f"noise_stress {dims[0]}x{dims[1]} {family} {truth.kind}", call, check)
