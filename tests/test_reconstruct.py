import warnings

import numpy as np
import pytest

from aapt import (
    BipartiteState,
    Channel,
    NotFaithfulProbeError,
    apply_on_A,
    certify_faithful,
    classify,
    faithfulness_witness,
    max_entangled,
    noise_stress,
    product_state,
    random_cptp,
    random_density,
    random_state,
    reconstruct_channel,
    unitary_faithful_state,
)


class TestReconstructChannel:
    def test_probe_as_its_own_output_recovers_identity(self):
        probe = max_entangled(2)
        report = reconstruct_channel(probe, probe)
        assert np.linalg.norm(report.channel.choi() - Channel.identity(2).choi()) <= 1e-10
        assert report.cp_deviation <= 1e-12 and report.tp_deviation <= 1e-10

    def test_random_channels_recover_exactly(self):
        probes = [max_entangled(2), max_entangled(3), random_state(2, 2, seed=110), random_state(3, 3, seed=111)]
        for probe in probes:
            assert certify_faithful(probe).faithful
        for k in range(40):
            probe = probes[k % len(probes)]
            truth = random_cptp(probe.dim_a, 1 + k % 4, seed=10000 + k)
            report = reconstruct_channel(probe, apply_on_A(truth, probe), truth=truth)
            assert report.choi_error <= 1e-8
            assert classify(report.channel, tol=1e-8).is_tp

    def test_non_faithful_probe_is_refused(self):
        probe = unitary_faithful_state([0.5, 0.3, 0.2])
        with pytest.raises(NotFaithfulProbeError):
            reconstruct_channel(probe, probe)

    def test_support_embedded_probe_is_refused(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1
        probe = BipartiteState(m, 2, 2)
        with pytest.raises(NotFaithfulProbeError):
            reconstruct_channel(probe, probe)

    def test_side_b(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 2, seed=112)
        from aapt import apply_on_B

        report = reconstruct_channel(probe, apply_on_B(truth, probe), side="B", truth=truth)
        assert report.choi_error <= 1e-10

    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            reconstruct_channel(max_entangled(2), max_entangled(3))


class TestNoiseStress:
    def test_zero_noise_reduces_to_exact_reconstruction(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 2, seed=113)
        for report in noise_stress(probe, truth, noise=0.0, trials=5, seed=1):
            assert report.choi_error <= 1e-8

    def test_error_grows_with_noise_on_average(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 3, seed=114)
        means = []
        for noise in (0.0, 1e-6, 1e-4, 1e-2):
            reports = noise_stress(probe, truth, noise=noise, trials=50, seed=2)
            means.append(np.mean([r.choi_error for r in reports]))
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_deviation_fields_are_populated(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 2, seed=115)
        for report in noise_stress(probe, truth, noise=1e-2, trials=10, seed=3):
            assert np.isfinite(report.cp_deviation) and report.cp_deviation >= 0
            assert np.isfinite(report.tp_deviation) and report.tp_deviation >= 0

    def test_trials_are_deterministic_per_seed(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 2, seed=116)
        a = noise_stress(probe, truth, noise=1e-3, trials=4, seed=7)
        b = noise_stress(probe, truth, noise=1e-3, trials=4, seed=7)
        assert [r.choi_error for r in a] == [r.choi_error for r in b]

    def test_invalid_parameters(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 2, seed=117)
        with pytest.raises(ValueError):
            noise_stress(probe, truth, noise=-1.0, trials=1, seed=0)
        with pytest.raises(ValueError):
            noise_stress(probe, truth, noise=0.0, trials=0, seed=0)

    def test_positive_noise_on_a_1x1_probe_is_refused_up_front(self):
        probe = max_entangled(1)
        truth = random_cptp(1, 2, seed=118)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1x1 state, which has no traceless perturbation"):
                noise_stress(probe, truth, noise=1e-3, trials=2, seed=0)
            assert noise_stress(probe, truth, noise=0.0, trials=2, seed=0)[0].choi_error <= 1e-12


class TestReconstructionInvariants:
    def test_linearity_over_channel_mixtures(self):
        probe = random_state(2, 2, seed=118)
        assert certify_faithful(probe).faithful
        c1 = random_cptp(2, 2, seed=119)
        c2 = random_cptp(2, 3, seed=120)
        p = 0.3
        out1 = apply_on_A(c1, probe)
        out2 = apply_on_A(c2, probe)
        mixed_output = BipartiteState(p * out1.matrix + (1 - p) * out2.matrix, 2, 2)
        report = reconstruct_channel(probe, mixed_output)
        expected = p * c1.transfer() + (1 - p) * c2.transfer()
        assert np.linalg.norm(report.channel.transfer() - expected) <= 1e-9

    def test_condition_is_one_for_max_entangled_and_at_least_one_elsewhere(self, corpus):
        report = reconstruct_channel(max_entangled(2), max_entangled(2))
        assert abs(report.condition - 1.0) <= 1e-12
        checked = 0
        for name, state in corpus:
            if not certify_faithful(state).faithful or state.dims != (state.dim_a, state.dim_a):
                continue
            try:
                rep = reconstruct_channel(state, state)
            except NotFaithfulProbeError:
                continue
            assert rep.condition >= 1.0, name
            checked += 1
        assert checked >= 20

    def test_witness_outputs_cannot_be_reconstructed_through_the_probe(self):
        state = product_state(random_density(2, 2, seed=121), random_density(2, 2, seed=122))
        pair = faithfulness_witness(state)
        assert pair is not None
        from aapt import restrict_support

        work = restrict_support(state)
        for ch in (pair.k0, pair.k1):
            output = apply_on_A(ch, work)
            with pytest.raises(NotFaithfulProbeError):
                reconstruct_channel(work, output)
