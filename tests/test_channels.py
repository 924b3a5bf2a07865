import re

import numpy as np
import pytest

import aapt
from aapt import (
    Channel,
    apply_on_A,
    apply_on_B,
    classify,
    convert,
    haar_unitary,
    hermitian_basis,
    max_entangled,
    product_state,
    random_cptp,
    random_density,
    random_state,
    random_unitary_mixture,
    schur_channel,
    swap_sides,
    tensor,
)
from aapt.channels import kraus_to_choi, kraus_to_transfer
from aapt.states import BipartiteState, cq_state

from helpers import random_complex

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestConversions:
    def test_identity_channel_choi_is_scaled_max_entangled(self):
        choi = Channel.identity(2).choi()
        expected = 2 * max_entangled(2).matrix
        assert np.allclose(choi, expected, atol=1e-14)

    def test_unitary_channel_choi_has_rank_one(self):
        u = haar_unitary(3, seed=5)
        eigs = np.linalg.eigvalsh(Channel.from_kraus([u]).choi())
        assert (eigs > 1e-10).sum() == 1

    def test_round_trips_preserve_choi_and_action(self):
        basis = hermitian_basis(3)
        for k in range(100):
            ch = random_cptp(3, 1 + k % 3, seed=3000 + k)
            choi = ch.choi()
            rebuilt = convert(convert(convert(ch, "choi"), "kraus"), "choi")
            assert np.linalg.norm(rebuilt.choi() - choi) <= 1e-10
            via_transfer = convert(convert(ch, "transfer"), "kraus")
            for b in basis[:4]:
                assert np.linalg.norm(via_transfer.apply(b) - ch.apply(b)) <= 1e-10

    def test_kraus_extraction_rejects_non_cp(self):
        # Choi of a Hermitian-preserving, non-CP map (difference of channels)
        bad = Channel.from_kraus([SIGMA_X]).choi() - Channel.identity(2).choi()
        with pytest.raises(ValueError):
            Channel.from_choi(bad, 2, 2).kraus()

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError):
            convert(Channel.identity(2), "chi")


class TestClassify:
    def test_unitary_channel(self):
        report = classify(Channel.from_kraus([haar_unitary(3, seed=1)]))
        assert report.is_cp and report.is_tp and report.is_unital

    def test_damping_limit_is_tp_but_not_unital(self):
        e00 = np.zeros((2, 2), dtype=complex)
        e00[0, 0] = 1
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        report = classify(Channel.from_kraus([e00, e01]))
        assert report.is_cp and report.is_tp
        assert not report.is_unital
        # E(1) = 2|0><0|, spectral distance to the identity is 1
        assert abs(report.unitality_residual - 1.0) < 1e-12

    def test_scaled_identity_breaks_trace_preservation(self):
        report = classify(Channel.from_kraus([np.sqrt(0.9) * np.eye(2)]))
        assert not report.is_tp
        assert abs(report.tp_residual - 0.1) < 1e-12


class TestApplyOnA:
    def test_identity_channel_leaves_state_alone(self):
        state = random_state(2, 3, seed=7)
        out = apply_on_A(Channel.identity(2), state)
        assert np.allclose(out.matrix, state.matrix, atol=1e-14)

    def test_bit_flip_on_basis_state(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1  # |00><00|
        state = BipartiteState(m, 2, 2)
        out = apply_on_A(Channel.from_kraus([SIGMA_X]), state)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1  # |10><10|
        assert np.allclose(out.matrix, expected, atol=1e-14)

    def test_trace_preserved_by_random_cptp(self):
        state = random_state(3, 2, seed=8)
        for k in range(10):
            out = apply_on_A(random_cptp(3, 2, seed=k), state)
            assert abs(np.trace(out.matrix).real - 1) <= 1e-12

    def test_apply_on_b_matches_swapped_application(self):
        state = random_state(2, 3, seed=9)
        ch = random_cptp(3, 2, seed=10)
        via_b = apply_on_B(ch, state)
        via_swap = swap_sides(apply_on_A(ch, swap_sides(state)))
        assert np.allclose(via_b.matrix, via_swap.matrix, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_on_A(Channel.identity(3), random_state(2, 2, seed=0))

    def test_apply_on_b_runs_apply_on_a_once(self, monkeypatch):
        import aapt.channels as channels

        calls = []
        real = channels.apply_on_A
        monkeypatch.setattr(channels, "apply_on_A", lambda ch, st: calls.append(st.dims) or real(ch, st))
        out = apply_on_B(random_cptp(3, 2, seed=10), random_state(2, 3, seed=9))
        assert calls == [(3, 2)]
        assert out.dims == (2, 3)


class TestRandomCptp:
    def test_single_environment_gives_unitary(self):
        ch = random_cptp(3, 1, seed=11)
        (k,) = ch.kraus()
        assert np.linalg.norm(k.conj().T @ k - np.eye(3)) <= 1e-12

    def test_samples_are_cptp(self):
        for k in range(100):
            report = classify(random_cptp(2 + k % 3, 1 + k % 4, seed=500 + k))
            assert report.is_cp and report.is_tp

    def test_kraus_count_matches_environment(self):
        assert len(random_cptp(2, 3, seed=12).kraus()) == 3

    def test_seed_determinism(self):
        a = random_cptp(3, 2, seed=13)
        b = random_cptp(3, 2, seed=13)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus(), b.kraus()))


class TestRandomUnitaryMixture:
    def test_single_term_is_unitary_channel(self):
        (k,) = random_unitary_mixture(3, 1, seed=14).kraus()
        assert np.linalg.norm(k.conj().T @ k - np.eye(3)) <= 1e-12

    def test_unitality(self):
        for k in range(100):
            report = classify(random_unitary_mixture(2 + k % 3, 1 + k % 4, seed=700 + k))
            assert report.is_unital and report.is_tp and report.is_cp

    def test_choi_rank_bounded_by_mixture_size(self):
        for k in range(1, 5):
            ch = random_unitary_mixture(3, k, seed=20 + k)
            eigs = np.linalg.eigvalsh(ch.choi())
            assert (eigs > 1e-10).sum() <= k


class TestSchurChannel:
    def test_all_ones_correlation_is_identity(self):
        ch = schur_channel(np.ones((3, 3)))
        m = random_complex((3, 3), 31)
        assert np.linalg.norm(ch.apply(m) - m) <= 1e-12

    def test_identity_correlation_dephases(self):
        ch = schur_channel(np.eye(3))
        m = random_complex((3, 3), 32)
        assert np.allclose(ch.apply(m), np.diag(np.diag(m)), atol=1e-12)

    def test_entrywise_product_oracle(self):
        # random correlation matrix: normalize a Wishart to unit diagonal
        w = random_density(4, 4, seed=33)
        d = np.sqrt(np.diag(w).real)
        corr = w / np.outer(d, d)
        ch = schur_channel(corr)
        m = random_complex((4, 4), 34)
        assert np.linalg.norm(ch.apply(m) - corr * m) <= 1e-12
        diag = np.diag(np.diag(m))
        assert np.linalg.norm(ch.apply(diag) - diag) <= 1e-12
        report = classify(ch)
        assert report.is_cp and report.is_tp and report.is_unital

    def test_invalid_correlation_matrices(self):
        with pytest.raises(ValueError):
            schur_channel(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            schur_channel(np.array([[1.0, 3.0], [3.0, 1.0]]))  # unit diagonal but not PSD


class TestChannelInvariants:
    def test_composition_transfer_is_matrix_product(self):
        for k in range(10):
            c1 = random_cptp(3, 2, seed=800 + k)
            c2 = random_cptp(3, 3, seed=900 + k)
            composed = Channel.from_kraus([k2 @ k1 for k2 in c2.kraus() for k1 in c1.kraus()])
            assert np.linalg.norm(composed.transfer() - c2.transfer() @ c1.transfer()) <= 1e-10

    def test_choi_trace_equals_input_dimension(self):
        for k in range(20):
            ch = random_cptp(2 + k % 3, 1 + k % 3, seed=1000 + k)
            assert abs(np.trace(ch.choi()).real - ch.dim_in) <= 1e-10

    def test_fixed_point_state_commutes_with_kraus_operators(self):
        # Schur channels fix diagonal states; their Kraus operators are diagonal too
        w = random_density(3, 3, seed=35)
        d = np.sqrt(np.diag(w).real)
        corr = w / np.outer(d, d)
        ch = schur_channel(corr)
        diag_state = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert np.linalg.norm(ch.apply(diag_state) - diag_state) <= 1e-10
        for k in ch.kraus():
            assert np.linalg.norm(k @ diag_state - diag_state @ k) <= 1e-8

    def test_fixed_point_on_bipartite_cq_state(self):
        state = cq_state([0.6, 0.4], [random_density(2, 2, seed=36), random_density(2, 2, seed=37)])
        dephase = schur_channel(np.eye(2))
        out = apply_on_A(dephase, state)
        assert np.linalg.norm(out.matrix - state.matrix) <= 1e-10
        for k in dephase.kraus():
            big = tensor(k, np.eye(2))
            assert np.linalg.norm(big @ state.matrix - state.matrix @ big) <= 1e-8


class TestStateBasics:
    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            BipartiteState(np.eye(4), 2, 2)  # trace 4
        with pytest.raises(ValueError):
            BipartiteState(np.diag([1.5, -0.5, 0, 0]).astype(complex), 2, 2)  # negative eigenvalue
        with pytest.raises(ValueError):
            BipartiteState(np.eye(4) / 4, 2, 3)  # dims mismatch

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.25, np.nan)])
    def test_non_finite_states_rejected(self, bad):
        m = np.diag([0.0, 1 / 3, 1 / 3, 1 / 3]).astype(complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="state matrix has non-finite entries"):
            BipartiteState(m, 2, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda state, side: aapt.certify_faithful(state, side),
            lambda state, side: aapt.certify_sensitive(state, side),
            lambda state, side: aapt.certify_faithful_to_unitaries(state, side),
            lambda state, side: aapt.commutant_basis(state, side),
            lambda state, side: aapt.extract_pcq(state, side),
            lambda state, side: aapt.pcq_residual(state, aapt.ProjectiveMeasurement((np.eye(2),)), side),
            lambda state, side: aapt.faithfulness_witness(state, side),
            lambda state, side: aapt.reconstruct_channel(state, state, side),
            lambda state, side: aapt.noise_stress(state, Channel.identity(2), 0.0, 1, 0, side),
        ],
        ids=[
            "certify_faithful", "certify_sensitive", "certify_faithful_to_unitaries", "commutant_basis",
            "extract_pcq", "pcq_residual", "faithfulness_witness", "reconstruct_channel", "noise_stress",
        ],
    )
    def test_every_side_argument_is_validated(self, call):
        with pytest.raises(ValueError, match=r"side must be one of \('A', 'B'\)"):
            call(max_entangled(2), "C")

    def test_swap_is_an_involution(self):
        state = random_state(2, 3, seed=38)
        assert np.allclose(swap_sides(swap_sides(state)).matrix, state.matrix, atol=0)

    def test_marginals_of_product_state(self):
        rho_a = random_density(2, 2, seed=39)
        rho_b = random_density(3, 3, seed=40)
        state = product_state(rho_a, rho_b)
        assert np.allclose(state.marginal("A"), rho_a, atol=1e-14)
        assert np.allclose(state.marginal("B"), rho_b, atol=1e-14)


KRAUS_READERS = {"Channel.from_kraus": Channel.from_kraus, "kraus_to_choi": kraus_to_choi, "kraus_to_transfer": kraus_to_transfer}


class TestNonFiniteChannelData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("read_family", KRAUS_READERS.values(), ids=KRAUS_READERS)
    def test_kraus_operators_with_non_finite_entries_are_rejected(self, read_family, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with pytest.raises(ValueError, match=r"^Kraus operator has non-finite entries \(NaN or inf\)$"):
            read_family([k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_choi_and_transfer_matrices_with_non_finite_entries_are_rejected(self, bad):
        choi = Channel.identity(2).choi()
        choi[1, 2] = bad
        with pytest.raises(ValueError, match=r"^choi matrix has non-finite entries \(NaN or inf\)$"):
            Channel.from_choi(choi, 2, 2)
        with pytest.raises(ValueError, match=r"^transfer matrix has non-finite entries \(NaN or inf\)$"):
            Channel.from_transfer(choi, 2, 2)


class TestSwapSidesDoesNotRevalidate:
    def test_no_density_check_runs_and_the_result_is_the_permuted_state(self, monkeypatch):
        import aapt.states as states

        state = random_state(2, 3, seed=41)
        want = BipartiteState(state.matrix.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6), 3, 2)
        checks = []
        monkeypatch.setattr(states, "_check_density", lambda m, label: checks.append(label) or m)
        swapped = swap_sides(state)
        assert checks == []
        assert swapped.dims == (3, 2)
        assert np.array_equal(swapped.matrix, want.matrix)
        assert not swapped.matrix.flags.writeable
        assert np.array_equal(swap_sides(swapped).matrix, state.matrix)

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (1, 1)])
    def test_d1_sides_swap_to_a_read_only_state(self, dims):
        state = random_state(*dims, seed=42)
        swapped = swap_sides(state)
        assert swapped.dims == dims[::-1]
        assert np.array_equal(swapped.matrix, state.matrix)
        assert not swapped.matrix.flags.writeable


class TestFromKraus:
    def test_an_empty_kraus_list_is_refused_with_a_value_error(self):
        with pytest.raises(ValueError, match="need at least one Kraus operator"):
            Channel.from_kraus([])

    @pytest.mark.parametrize("read_family", KRAUS_READERS.values(), ids=KRAUS_READERS)
    def test_operators_of_mixed_shape_are_refused_by_the_first_shape(self, read_family):
        with pytest.raises(ValueError, match=r"^every Kraus operator must have shape \(2, 2\)$"):
            read_family([np.eye(2), np.ones((3, 2))])

    @pytest.mark.parametrize("read_family", KRAUS_READERS.values(), ids=KRAUS_READERS)
    @pytest.mark.parametrize("ops", [[np.ones(2)], [np.eye(2), np.ones(2)], [np.ones((1, 2, 2))]], ids=["1d", "second", "3d"])
    def test_an_operator_that_is_not_a_matrix_is_refused_by_name(self, read_family, ops):
        shape = re.escape(str(np.shape(ops[-1])))
        with pytest.raises(ValueError, match=rf"^Kraus operator must be a matrix, got an array of shape {shape}$"):
            read_family(ops)


class TestProductStateFactors:
    @pytest.mark.parametrize("factor", ["rho_a", "rho_b"])
    def test_a_factor_that_is_not_a_matrix_is_refused_by_name(self, factor):
        factors = {"rho_a": np.eye(2) / 2, "rho_b": np.eye(2) / 2, factor: np.ones(2) / 2}
        with pytest.raises(ValueError, match=rf"^{factor} must be a matrix, got an array of shape \(2,\)$"):
            product_state(**factors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("factor", ["rho_a", "rho_b"])
    def test_a_non_finite_factor_is_refused_by_name(self, factor, bad):
        # refused before the Kronecker product, where inf * 0 would warn and leave NaN in the state
        factors = {"rho_a": np.eye(2) / 2, "rho_b": np.eye(2) / 2, factor: np.diag([bad, 1.0])}
        with pytest.raises(ValueError, match=rf"^{factor} has non-finite entries \(NaN or inf\)$"):
            product_state(**factors)


def test_kraus_to_transfer_is_the_transfer_matrix_of_the_kraus_channel():
    ops = [haar_unitary(3, seed=61)[:, :2] * np.sqrt(0.7), haar_unitary(3, seed=62)[:, :2] * np.sqrt(0.3)]
    t = kraus_to_transfer(ops)
    assert np.array_equal(t, Channel.from_kraus(ops).transfer())
    assert np.abs(t - sum(np.kron(k.conj(), k) for k in ops)).max() <= 1e-14


class TestEmptyKrausFamily:
    @pytest.mark.parametrize("convert_family", [kraus_to_choi, kraus_to_transfer])
    def test_an_empty_family_is_refused_with_a_value_error(self, convert_family):
        with pytest.raises(ValueError, match="need at least one Kraus operator"):
            convert_family([])
