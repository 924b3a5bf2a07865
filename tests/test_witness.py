import numpy as np
import pytest

from aapt import (
    Channel,
    HermitianPreservingMap,
    TransferMatrix,
    apply_on_A,
    apply_on_B,
    certify_faithful,
    classify,
    conjugation_decomposition,
    decompose_channel_difference,
    faithfulness_witness,
    haar_unitary,
    max_entangled,
    mix_with_identity,
    product_state,
    random_cptp,
    random_density,
    restrict_support,
    unitary_faithful_state,
)

from aapt.witness import OUTPUT_GAP_TOL

from helpers import random_complex

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def hp_from_transfer(matrix, d, trace_annihilating=False):
    return HermitianPreservingMap(TransferMatrix(d, d, matrix), trace_annihilating=trace_annihilating)


def random_hp_map(d, terms, seed):
    """Real combination of conjugations, dense in the Hermitian-preserving maps."""
    g = np.random.default_rng(seed)
    t = np.zeros((d * d, d * d), dtype=complex)
    for _ in range(terms):
        v = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
        t += g.standard_normal() * np.kron(v.conj(), v)
    return hp_from_transfer(t, d)


def channel_difference_transfer(c1, c2, scale=1.0):
    return scale * (c1.transfer() - c2.transfer())


class TestConjugationDecomposition:
    def test_unitary_conjugation_is_a_single_term(self):
        u = haar_unitary(3, seed=90)
        terms = conjugation_decomposition(hp_from_transfer(Channel.from_kraus([u]).transfer(), 3))
        assert len(terms) == 1
        lam, v = terms[0]
        rebuilt = lam * (v @ np.eye(3) @ v.conj().T)
        assert np.linalg.norm(rebuilt - u @ np.eye(3) @ u.conj().T) <= 1e-12

    def test_flip_minus_identity(self):
        t = channel_difference_transfer(Channel.from_kraus([SIGMA_X]), Channel.identity(2))
        terms = conjugation_decomposition(hp_from_transfer(t, 2))
        weights = sorted(lam for lam, _ in terms)
        assert np.allclose(weights, [-2.0, 2.0], atol=1e-12)
        by_weight = {round(lam): v for lam, v in terms}
        # eigenvectors match sigma_x / sqrt(2) and identity / sqrt(2) up to phase
        assert abs(abs(np.trace(by_weight[2].conj().T @ SIGMA_X / np.sqrt(2))) - 1) <= 1e-12
        assert abs(abs(np.trace(by_weight[-2].conj().T @ np.eye(2) / np.sqrt(2))) - 1) <= 1e-12

    def test_terms_reconstruct_random_maps(self):
        for k in range(20):
            d = 2 + k % 2
            hp = random_hp_map(d, terms=3, seed=9000 + k)
            terms = conjugation_decomposition(hp)
            for _ in range(5):
                x = random_complex((d, d), 9100 + k)
                rebuilt = sum(lam * (v @ x @ v.conj().T) for lam, v in terms)
                assert np.linalg.norm(rebuilt - hp.apply(x)) <= 1e-10
            for i, (_, v) in enumerate(terms):
                for j, (_, w) in enumerate(terms):
                    inner = np.trace(v.conj().T @ w)
                    assert abs(inner - (1 if i == j else 0)) <= 1e-10

    def test_non_hermitian_preserving_map_rejected(self):
        with pytest.raises(ValueError):
            hp_from_transfer(1j * np.eye(4), 2)


class TestDecomposeChannelDifference:
    def test_flip_minus_identity_by_hand(self):
        t = channel_difference_transfer(Channel.from_kraus([SIGMA_X]), Channel.identity(2))
        alpha, k0, k1 = decompose_channel_difference(hp_from_transfer(t, 2, trace_annihilating=True))
        assert abs(alpha - 1.0) <= 1e-12
        # K0 is the bit flip, K1 the identity channel
        assert np.linalg.norm(k0.choi() - Channel.from_kraus([SIGMA_X]).choi()) <= 1e-12
        assert np.linalg.norm(k1.choi() - Channel.identity(2).choi()) <= 1e-12

    def test_scaled_differences_of_random_channels(self):
        for k in range(20):
            d = 2 + k % 2
            c1 = random_cptp(d, 1 + k % 3, seed=9200 + k)
            c2 = random_cptp(d, 1 + (k + 1) % 3, seed=9300 + k)
            t = channel_difference_transfer(c1, c2, scale=0.3)
            hp = hp_from_transfer(t, d, trace_annihilating=True)
            alpha, k0, k1 = decompose_channel_difference(hp)
            for role, ch in (("k0", k0), ("k1", k1)):
                report = classify(ch)
                assert report.min_choi_eigenvalue >= -1e-10, role
                assert report.tp_residual <= 1e-10, role
            for j in range(5):
                x = random_complex((d, d), 9400 + 10 * k + j)
                x /= np.linalg.norm(x)
                gap = alpha * (k0.apply(x) - k1.apply(x))
                assert np.linalg.norm(gap - hp.apply(x)) <= 1e-10

    def test_trace_preserving_map_is_rejected(self):
        with pytest.raises(ValueError):
            hp_from_transfer(Channel.identity(2).transfer(), 2, trace_annihilating=True)
        hp = hp_from_transfer(Channel.identity(2).transfer(), 2)
        with pytest.raises(ValueError):
            decompose_channel_difference(hp)

    def test_zero_map_is_rejected(self):
        with pytest.raises(ValueError):
            decompose_channel_difference(hp_from_transfer(np.zeros((4, 4)), 2, trace_annihilating=True))


class TestFaithfulnessWitness:
    def test_product_state_yields_a_witness(self):
        state = product_state(random_density(2, 2, seed=95), random_density(2, 2, seed=96))
        pair = faithfulness_witness(state)
        assert pair is not None
        assert pair.output_gap <= 1e-9
        assert pair.channel_gap >= 1e-3
        for ch in (pair.k0, pair.k1):
            report = classify(ch)
            assert report.is_cp and report.is_tp

    def test_max_entangled_has_no_witness(self):
        assert faithfulness_witness(max_entangled(2)) is None

    def test_unitary_faithful_state_yields_a_witness(self):
        pair = faithfulness_witness(unitary_faithful_state([0.5, 0.3, 0.2]))
        assert pair is not None
        assert pair.output_gap <= 1e-9 and pair.channel_gap >= 1e-3

    def test_witness_on_side_b(self):
        state = product_state(random_density(2, 2, seed=97), random_density(3, 3, seed=98))
        pair = faithfulness_witness(state, side="B")
        assert pair is not None
        assert pair.k0.dim_in == 3
        from aapt import apply_on_B

        out0 = apply_on_B(pair.k0, state)
        out1 = apply_on_B(pair.k1, state)
        assert np.linalg.norm(out0.matrix - out1.matrix) <= 1e-9

    @pytest.mark.parametrize(
        "state, side",
        [
            (product_state(random_density(3, 3, seed=1), np.diag([1.0, 0.0])), "A"),
            (product_state(np.diag([1.0, 0.0]), random_density(3, 3, seed=1)), "B"),
        ],
        ids=["full_A-deficient_B", "deficient_A-full_B"],
    )
    def test_a_full_rank_side_gets_channels_in_the_callers_basis(self, state, side):
        # only the deficient marginal is compressed, so the pair agrees on the probe as the caller wrote it
        pair = faithfulness_witness(state, side)
        apply = apply_on_A if side == "A" else apply_on_B
        assert pair.k0.dim_in == 3
        assert np.linalg.norm(apply(pair.k0, state).matrix - apply(pair.k1, state).matrix) <= OUTPUT_GAP_TOL

    def test_soundness_matches_the_rank_certificate(self, corpus):
        for name, state in corpus[:60]:
            cert = certify_faithful(state)
            pair = faithfulness_witness(state)
            assert (pair is None) == cert.faithful, name

    def test_identity_mixing_keeps_the_outputs_equal(self):
        state = product_state(random_density(2, 2, seed=99), random_density(2, 2, seed=100))
        pair = faithfulness_witness(state)
        eps = 0.01
        mixed0 = mix_with_identity(pair.k0, eps)
        mixed1 = mix_with_identity(pair.k1, eps)
        work = restrict_support(state)
        out0 = apply_on_A(mixed0, work)
        out1 = apply_on_A(mixed1, work)
        assert np.linalg.norm(out0.matrix - out1.matrix) <= 1e-9
        # rescaling alpha by 1/(1-eps) restores the original map difference
        alpha = pair.alpha / (1 - eps)
        x = random_complex((2, 2), 101)
        original = pair.alpha * (pair.k0.apply(x) - pair.k1.apply(x))
        rebuilt = alpha * (mixed0.apply(x) - mixed1.apply(x))
        assert np.linalg.norm(rebuilt - original) <= 1e-10
