"""A certificate's PC-Q measurement is assembled from one eigenbasis, not checked a second time.

``certify_sensitive`` builds its projectors as the cluster blocks of one
``eigh`` eigenbasis, so they are Hermitian, idempotent, complete and
mutually orthogonal to rounding, and it checks them against the state with
its own residual.  These tests hold that property on every route a
non-sensitive verdict can take (the slice with singleton clusters, the slice
with a multi-eigenvalue cluster, and the K fallback), show that the public
constructor accepts the same arrays unchanged, and count that the
certificate runs the constructor's check zero times and the state residual
once.
"""

import numpy as np
import pytest

import aapt.sensitivity as sensitivity
from aapt import ProjectiveMeasurement, certify_sensitive, cq_state, product_state, random_cq_state, random_density

ROUNDING = 1e-12  # the rules hold to rounding, far under PROJECTOR_TOL = 1e-10

# name: (state, side, whether the slice decides, whether its clusters are all singletons)
ROUTES = {
    "slice_singletons_cq_A": (random_cq_state(12, 3, seed=1), "A", True, True),
    "slice_singletons_product_B": (product_state(random_density(3, 3, 1), random_density(4, 4, 2)), "B", True, True),
    "slice_cluster_cq_B": (cq_state([1.0], [np.diag([1.0, 0, 0])]), "B", True, False),
    "slice_cluster_cq_A": (cq_state([0.25] * 4, [np.diag(np.eye(3)[k % 3]) for k in range(4)]), "A", True, False),
    "fallback_cq_A": (cq_state([0.5, 0.5], [[[1.0]], [[1.0]]]), "A", False, False),
    "fallback_product_A": (product_state(np.eye(2) / 2, random_density(2, 2, 1)), "A", False, False),
}


@pytest.fixture
def counts(monkeypatch):
    """How often the constructor's check, the restricted commutator's singleton branch and the residual run."""
    seen = {"post_init": 0, "split_residual": 0, "singletons": []}
    post_init, split_residual, restricted = (
        ProjectiveMeasurement.__post_init__, sensitivity._split_residual, sensitivity._restricted_commutator,
    )

    def counting_post_init(self):
        seen["post_init"] += 1
        post_init(self)

    def counting_split_residual(*args):
        seen["split_residual"] += 1
        return split_residual(*args)

    def recording_restricted(rotated, dims, ranges):
        seen["singletons"].append(len(ranges) == dims[0])
        return restricted(rotated, dims, ranges)

    monkeypatch.setattr(ProjectiveMeasurement, "__post_init__", counting_post_init)
    monkeypatch.setattr(sensitivity, "_split_residual", counting_split_residual)
    monkeypatch.setattr(sensitivity, "_restricted_commutator", recording_restricted)
    return seen


@pytest.mark.parametrize("name", ROUTES)
def test_the_certificate_runs_the_residual_and_not_the_constructor(name, counts):
    state, side, slice_bound, singletons = ROUTES[name]
    cert = certify_sensitive(state, side)
    assert not cert.sensitive and cert.slice_bound is slice_bound
    if slice_bound:
        assert counts["singletons"] == [singletons]
    assert counts["post_init"] == 0
    assert counts["split_residual"] == 1


@pytest.mark.parametrize("name", ROUTES)
def test_the_assembled_projectors_obey_the_constructor_rules_to_rounding(name):
    state, side, _, _ = ROUTES[name]
    ops = certify_sensitive(state, side).pcq_measurement.projectors
    d = ops[0].shape[0]
    assert len(ops) >= 2
    assert all(p.shape == (d, d) and not p.flags.writeable for p in ops)
    assert max(np.linalg.norm(p - p.conj().T) for p in ops) <= ROUNDING
    assert max(np.linalg.norm(p @ p - p) for p in ops) <= ROUNDING
    assert np.linalg.norm(sum(ops) - np.eye(d)) <= ROUNDING
    assert max(np.linalg.norm(p @ q) for i, p in enumerate(ops) for q in ops[i + 1 :]) <= ROUNDING


@pytest.mark.parametrize("name", ROUTES)
def test_the_public_constructor_accepts_the_same_arrays(name):
    state, side, _, _ = ROUTES[name]
    assembled = certify_sensitive(state, side).pcq_measurement
    checked = ProjectiveMeasurement(assembled.projectors)
    assert len(checked) == len(assembled)
    assert all(np.array_equal(p, q) for p, q in zip(checked.projectors, assembled.projectors))
