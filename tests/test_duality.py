import numpy as np
import pytest

from aapt import (
    BipartiteState,
    HermitianPreservingMap,
    TransferMatrix,
    apply_on_A,
    certify_faithful,
    faithfulness_witness,
    hermitian_basis,
    hermitian_restricted_rank,
    map_to_state,
    max_entangled,
    partial_trace,
    product_state,
    random_cptp,
    random_cq_state,
    random_density,
    random_state,
    rank_evidence,
    restrict_support,
    state_to_map,
    tensor,
    unitary_faithful_state,
)


def eq1_direct(state, sigma, direction):
    """Independent evaluation of the defining partial-trace formula."""
    da, db = state.dims
    if direction == "a_to_b":
        return partial_trace(tensor(sigma.T, np.eye(db)) @ state.matrix, state.dims, "A")
    return partial_trace(tensor(np.eye(da), sigma.T) @ state.matrix, state.dims, "B")


class TestStateToMap:
    def test_max_entangled_is_scaled_identity_map(self):
        for d in (2, 3):
            j = state_to_map(max_entangled(d), "a_to_b")
            for b in hermitian_basis(d):
                assert np.linalg.norm(eq1_direct(max_entangled(d), b, "a_to_b") - b / d) <= 1e-12
            assert np.linalg.norm(j.matrix - np.eye(d * d) / d) <= 1e-12

    def test_matches_direct_formula_on_random_states(self):
        state = random_state(2, 3, seed=50)
        for direction, d_in in (("a_to_b", 2), ("b_to_a", 3)):
            j = state_to_map(state, direction)
            for b in hermitian_basis(d_in):
                assert np.linalg.norm(j.apply(b) - eq1_direct(state, b, direction)) <= 1e-12

    def test_product_state_gives_rank_one_map(self):
        rho_a = random_density(2, 2, seed=51)
        rho_b = random_density(2, 2, seed=52)
        state = product_state(rho_a, rho_b)
        j = state_to_map(state, "a_to_b")
        for b in hermitian_basis(2):
            expected = np.trace(b.T @ rho_a) * rho_b
            assert np.linalg.norm(j.apply(b) - expected) <= 1e-12
        assert rank_evidence(j.matrix).rank == 1

    def test_unitary_faithful_state_image_is_two_dimensional(self):
        state = unitary_faithful_state([0.5, 0.3, 0.2])
        j = state_to_map(state, "b_to_a")
        assert rank_evidence(j.matrix).rank == 2
        # the image lies in the span of the two defining A components
        span = np.column_stack(
            [np.diag([0.5, 0.3, 0.2]).astype(complex).reshape(-1), np.full((3, 3), 1 / 3).reshape(-1)]
        )
        proj = span @ np.linalg.pinv(span)
        for b in hermitian_basis(2):
            img = j.apply(b).reshape(-1)
            assert np.linalg.norm(img - proj @ img) <= 1e-12

    def test_transpose_duality(self):
        state = random_state(3, 2, seed=53)
        assert np.array_equal(state_to_map(state, "a_to_b").matrix, state_to_map(state, "b_to_a").matrix.T)


class TestMapToState:
    def test_round_trip_on_random_two_qubit_states(self):
        for k in range(100):
            state = random_state(2, 2, seed=6000 + k)
            for direction in ("a_to_b", "b_to_a"):
                back = map_to_state(state_to_map(state, direction), state.dims, direction)
                assert np.linalg.norm(back.matrix - state.matrix) <= 1e-12

    def test_scaled_identity_map_gives_max_entangled(self):
        t = TransferMatrix(2, 2, np.eye(4) / 2)
        state = map_to_state(t, (2, 2), "a_to_b")
        assert np.linalg.norm(state.matrix - max_entangled(2).matrix) <= 1e-14

    def test_zero_map_rejected(self):
        with pytest.raises(ValueError):
            map_to_state(TransferMatrix(2, 2, np.zeros((4, 4))), (2, 2), "a_to_b")


class TestExactRoundTrip:
    """state_to_map and map_to_state are index permutations, so the round trip is exact."""

    SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)]

    @staticmethod
    def states(da, db, seed):
        yield random_state(da, db, seed=seed)
        yield product_state(random_density(da, da, seed), random_density(db, db, seed + 1))
        yield random_cq_state(da, db, seed=seed)

    @pytest.mark.parametrize("direction", ["a_to_b", "b_to_a"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_round_trip_is_bit_exact(self, shape, direction):
        for seed in range(3):
            for state in self.states(*shape, 6100 + 10 * seed):
                back = map_to_state(state_to_map(state, direction), state.dims, direction)
                assert back.dims == state.dims
                assert np.array_equal(back.matrix, state.matrix)


class TestTransferMatrixValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_refused(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=r"transfer matrix has non-finite entries \(NaN or inf\)"):
            TransferMatrix(2, 2, m)

    def test_hermitian_preserving_map_names_the_non_finite_fault(self):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianPreservingMap(TransferMatrix(2, 2, np.full((4, 4), np.nan)))


class TestRestrictSupport:
    def test_full_rank_input_unchanged(self):
        state = random_state(2, 2, seed=54)
        assert restrict_support(state) is state

    def test_pure_product_collapses_to_scalar(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1  # |00><00|
        out = restrict_support(BipartiteState(m, 2, 2))
        assert out.dims == (1, 1)
        assert np.allclose(out.matrix, [[1.0]])

    def test_output_marginals_are_full_rank(self):
        # embed a 2x2 state into 3x3 via rank-deficient marginals
        small = random_state(2, 2, seed=55)
        big = np.zeros((9, 9), dtype=complex)
        idx = [b + 3 * a for a in (0, 1) for b in (0, 1)]
        big[np.ix_(idx, idx)] = small.matrix
        out = restrict_support(BipartiteState(big, 3, 3))
        assert out.dims == (2, 2)
        for side in ("A", "B"):
            assert np.linalg.eigvalsh(out.marginal(side))[0] > 0

    @pytest.mark.parametrize("flag_both", [False, True], ids=["B_flagged", "both_flagged"])
    def test_a_full_rank_side_is_not_rotated(self, monkeypatch, flag_both):
        rho_a = random_density(3, 3, seed=1)
        state = product_state(rho_a, np.diag([1.0, 0.0]))
        if flag_both:  # eigvalsh flags A as well, and A's eigh then keeps every column: full rank after all
            real = np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real(m) - 1.0)
        out = restrict_support(state)
        assert out.dims == (3, 1)
        assert np.allclose(out.matrix, rho_a, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("call", [certify_faithful, faithfulness_witness], ids=lambda f: f.__name__)
    def test_the_compressed_state_is_not_validated_again(self, monkeypatch, call, side):
        state = product_state(np.diag([0.6, 0.4, 0.0]), random_density(3, 3, 5))
        want = restrict_support(state)
        assert want.dims == (2, 3) and np.linalg.eigvalsh(want.matrix)[0] >= -1e-12
        assert abs(np.trace(want.matrix) - 1) <= 1e-12 and not want.matrix.flags.writeable
        checks = []
        real = BipartiteState.__post_init__
        monkeypatch.setattr(BipartiteState, "__post_init__", lambda self: checks.append(self.dims) or real(self))
        call(state, side)
        assert checks == []


class TestCertifyFaithful:
    @pytest.mark.parametrize("d", [2, 3])
    def test_max_entangled_is_faithful(self, d):
        cert = certify_faithful(max_entangled(d))
        assert cert.faithful and cert.rank == d * d == cert.required_rank

    def test_product_state_has_rank_one(self):
        cert = certify_faithful(product_state(random_density(2, 2, seed=56), random_density(2, 2, seed=57)))
        assert not cert.faithful
        assert cert.rank == 1

    def test_unitary_faithful_state_has_rank_two(self):
        for d in (2, 3, 4):
            spectrum = np.arange(d, 0, -1, dtype=float)
            cert = certify_faithful(unitary_faithful_state(spectrum / spectrum.sum()))
            assert not cert.faithful
            assert cert.rank == 2
            assert cert.required_rank == d * d

    def test_small_ancilla_can_never_be_faithful(self):
        cert = certify_faithful(random_state(3, 2, seed=58))
        assert not cert.faithful
        assert cert.required_rank == 9

    def test_side_b(self):
        cert = certify_faithful(random_state(3, 2, seed=59), side="B")
        assert cert.required_rank == 4

    def test_certificate_records_restriction(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1
        cert = certify_faithful(BipartiteState(m, 2, 2))
        assert cert.input_dims == (2, 2)
        assert cert.dims == (1, 1)
        assert cert.faithful  # trivially: one channel exists on a 1-dim system


class TestDualityInvariants:
    def test_rank_agrees_across_directions_and_restrictions(self, corpus):
        for name, state in corpus:
            j_ab = state_to_map(state, "a_to_b")
            j_ba = state_to_map(state, "b_to_a")
            rank_ab = rank_evidence(j_ab.matrix).rank
            rank_ba = rank_evidence(j_ba.matrix).rank
            assert rank_ab == rank_ba, name
            assert hermitian_restricted_rank(j_ab) == rank_ab, name

    def test_keystone_composition_identity(self):
        for k in range(20):
            state = random_state(2 + k % 2, 2 + k % 3, seed=7000 + k)
            ch = random_cptp(state.dim_a, 1 + k % 3, seed=7100 + k)
            lhs = state_to_map(apply_on_A(ch, state), "b_to_a").matrix
            rhs = ch.transfer() @ state_to_map(state, "b_to_a").matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_hermitian_preserving_flag(self):
        state = random_state(2, 2, seed=60)
        assert state_to_map(state, "a_to_b").is_hermitian_preserving()
        not_hp = TransferMatrix(2, 2, 1j * np.eye(4))
        assert not not_hp.is_hermitian_preserving()
