import dataclasses
import tracemalloc

import numpy as np
import pytest

from aapt import (
    BipartiteState,
    CommutantBasis,
    certify_faithful,
    certify_faithful_to_unitaries,
    certify_sensitive,
    commutant_basis,
    commuting_unitary,
    cq_state,
    extract_pcq,
    max_entangled,
    nonscalar_commutant_element,
    pcq_residual,
    product_state,
    random_density,
    random_state,
    schur_channel,
    apply_on_A,
    tensor,
    unitary_faithful_state,
    vec,
)
from aapt.sensitivity import _commutator_matrix


def commutator_nullity_oracle(state):
    """Brute-force nullity of M -> [M (x) 1, rho] via an independently built matrix."""
    da, db = state.dims
    rows = []
    for r in range(da):
        for c in range(da):
            unit = np.zeros((da, da), dtype=complex)
            unit[r, c] = 1
            big = np.kron(unit, np.eye(db))
            rows.append((big @ state.matrix - state.matrix @ big).reshape(-1))
    k = np.array(rows).T
    return da * da - np.linalg.matrix_rank(k, tol=1e-10)


def commutator_matrix_by_definition(rho, da, db):
    """Column c * da + r is vec((E_rc (x) 1) rho - rho (E_rc (x) 1)), one dense product per unit."""
    cols = []
    for c in range(da):
        for r in range(da):
            unit = np.zeros((da, da), dtype=complex)
            unit[r, c] = 1
            big = np.kron(unit, np.eye(db))
            cols.append(vec(big @ rho - rho @ big))
    return np.column_stack(cols)


class TestCommutatorMatrix:
    @pytest.mark.parametrize("da, db", [(1, 3), (3, 1), (2, 2), (2, 5), (5, 2), (3, 4), (6, 6)])
    def test_matches_the_per_column_definition(self, da, db):
        rho = random_state(da, db, seed=10 * da + db).matrix
        assert np.array_equal(_commutator_matrix(rho, (da, db)), commutator_matrix_by_definition(rho, da, db))


class TestCommutantBasis:
    def test_maximally_mixed_commutes_with_everything(self):
        state = BipartiteState(np.eye(6) / 6, 2, 3)
        assert commutant_basis(state).nullity == 4
        assert commutant_basis(state, side="B").nullity == 9

    def test_max_entangled_has_trivial_commutant(self):
        state = max_entangled(2)
        basis = commutant_basis(state)
        assert basis.nullity == 1 == commutator_nullity_oracle(state)

    def test_cq_state_commutant_contains_all_diagonals(self):
        blocks = [random_density(2, 2, seed=70 + i) for i in range(3)]
        state = cq_state([0.5, 0.3, 0.2], blocks)
        basis = commutant_basis(state)
        assert basis.nullity >= 3
        assert basis.nullity == commutator_nullity_oracle(state)

    def test_elements_commute_and_are_orthonormal(self):
        state = product_state(random_density(3, 3, seed=71), random_density(2, 2, seed=72))
        basis = commutant_basis(state)
        eye_b = np.eye(2)
        for i, m in enumerate(basis.elements):
            big = tensor(m, eye_b)
            assert np.linalg.norm(big @ state.matrix - state.matrix @ big) <= 10 * basis.tol
            for j, n in enumerate(basis.elements):
                inner = np.trace(m.conj().T @ n)
                assert abs(inner - (1 if i == j else 0)) < 1e-10

    def test_identity_lies_in_the_span(self, corpus):
        for name, state in corpus[:40]:
            basis = commutant_basis(state)
            d = state.dim_a
            target = vec(np.eye(d, dtype=complex) / np.sqrt(d))
            span = np.column_stack([vec(m) for m in basis.elements])
            residual = target - span @ (span.conj().T @ target)
            assert np.linalg.norm(residual) <= 1e-10, name


class TestCommutantBasisFields:
    def test_fields_are_side_elements_evidence_and_slice_bound(self):
        # the tolerance is read from the evidence, never held as a second copy
        assert [f.name for f in dataclasses.fields(CommutantBasis)] == ["side", "elements", "evidence", "slice_bound"]

    def test_nullity_and_tol_read_the_elements_and_the_evidence(self):
        blocks = [random_density(2, 2, seed=80 + i) for i in range(3)]
        basis = commutant_basis(cq_state([0.5, 0.3, 0.2], blocks), tol=1e-9)
        assert basis.nullity == len(basis.elements) >= 3
        assert basis.tol == basis.evidence.tol == 1e-9
        with pytest.raises(AttributeError):
            basis.nullity = 1


class TestCertifySensitiveRunsTheKernelOnce:
    @pytest.mark.parametrize(
        "state, side, slice_bound",
        [(random_state(3, 3, seed=0), "A", True), (random_state(1, 3, seed=0), "A", False)],
        ids=["slice_route", "k_route"],
    )
    def test_one_commutant_basis_call_per_certificate(self, monkeypatch, state, side, slice_bound):
        from aapt import sensitivity

        calls = []
        real = sensitivity.commutant_basis
        monkeypatch.setattr(sensitivity, "commutant_basis", lambda *args: calls.append(args) or real(*args))
        cert = certify_sensitive(state, side)
        assert len(calls) == 1
        assert cert.slice_bound == real(state, side).slice_bound == slice_bound

    def test_a_side_b_state_is_oriented_once(self, monkeypatch):
        from aapt import states

        state = product_state(random_density(3, 3, 1), random_density(2, 2, 2))
        calls = []
        real = states.swap_sides
        monkeypatch.setattr(states, "swap_sides", lambda st: calls.append(st.dims) or real(st))
        cert = certify_sensitive(state, "B")
        assert not cert.sensitive and cert.side == "B"
        assert calls == [(3, 2)]


class TestCertifySensitive:
    def test_unitary_faithful_state_is_sensitive(self):
        cert = certify_sensitive(unitary_faithful_state([0.5, 0.3, 0.2]))
        assert cert.sensitive and cert.nullity == 1 and cert.pcq_measurement is None

    def test_cq_state_is_not_sensitive_and_carries_a_measurement(self):
        state = cq_state([0.5, 0.5], [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)])
        cert = certify_sensitive(state)
        assert not cert.sensitive
        meas = cert.pcq_measurement
        assert meas is not None and len(meas) >= 2
        # the projectors observe the classical A register: diagonal in its basis
        for p in meas.projectors:
            assert np.linalg.norm(p - np.diag(np.diag(p))) <= 1e-10
        assert pcq_residual(state, meas) <= 1e-12

    def test_max_entangled_is_sensitive(self):
        cert = certify_sensitive(max_entangled(2))
        assert cert.sensitive and cert.nullity == 1

    def test_invalid_channel_class_rejected(self):
        with pytest.raises(ValueError):
            certify_sensitive(max_entangled(2), channel_class="dephasing")

    def test_d8_certificate_allocates_no_square_of_the_commutator_rows(self):
        # an n^2 x n^2 complex array at n = 64 alone takes 256 MiB
        state = random_state(8, 8, seed=3)
        tracemalloc.start()
        try:
            cert = certify_sensitive(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.nullity == 1
        assert peak < 64 * 10**6, f"traced peak {peak / 1e6:.1f} MB"

    def test_class_equivalence_on_corpus(self, corpus):
        for name, state in corpus:
            unital = certify_sensitive(state, channel_class="unital")
            unitary = certify_sensitive(state, channel_class="unitary")
            assert unital.sensitive == unitary.sensitive, name
            assert unital.nullity == unitary.nullity, name


class TestExtractPcq:
    def test_cq_state_extraction_verifies(self):
        state = cq_state([0.4, 0.6], [random_density(3, 3, seed=73), random_density(3, 3, seed=74)])
        meas = extract_pcq(state)
        assert meas is not None
        assert pcq_residual(state, meas) <= 1e-12

    def test_max_entangled_has_no_measurement(self):
        assert extract_pcq(max_entangled(3)) is None

    def test_product_state_yields_eigenprojectors_of_the_marginal(self):
        rho_a = np.diag([0.6, 0.3, 0.1]).astype(complex)
        state = product_state(rho_a, random_density(2, 2, seed=75))
        meas = extract_pcq(state)
        assert meas is not None and len(meas) >= 2
        for p in meas.projectors:
            assert np.linalg.norm(p @ rho_a - rho_a @ p) <= 1e-10
            assert np.linalg.norm(p - np.diag(np.diag(p))) <= 1e-8
        assert pcq_residual(state, meas) <= 1e-10

    def test_side_b_extraction(self):
        # Q-PC state: classical register on B
        state = cq_state([0.5, 0.5], [random_density(2, 2, seed=76), random_density(2, 2, seed=77)])
        from aapt import swap_sides

        flipped = swap_sides(state)
        meas = extract_pcq(flipped, side="B")
        assert meas is not None
        assert pcq_residual(flipped, meas, side="B") <= 1e-10


class TestSensitivityOracles:
    def test_commuting_unitaries_fix_non_sensitive_states(self):
        state = cq_state([0.5, 0.3, 0.2], [random_density(2, 2, seed=80 + i) for i in range(3)])
        basis = commutant_basis(state)
        h = nonscalar_commutant_element(basis, state.dim_a)
        for theta in (0.1, 1.0, np.pi):
            u = commuting_unitary(h, theta)
            big = tensor(u, np.eye(2))
            moved = big @ state.matrix @ big.conj().T
            assert np.linalg.norm(moved - state.matrix) <= 1e-10

    def test_sensitive_states_move_under_random_unitaries(self):
        from aapt import haar_unitary

        state = max_entangled(2)
        assert certify_sensitive(state).sensitive
        for k in range(50):
            u = haar_unitary(2, seed=8000 + k)
            big = tensor(u, np.eye(2))
            moved = big @ state.matrix @ big.conj().T
            assert np.linalg.norm(moved - state.matrix) >= 1e-6

    def test_full_dephasing_fixes_extracted_cq_state(self):
        state = cq_state([0.7, 0.3], [random_density(2, 2, seed=81), random_density(2, 2, seed=82)])
        assert not certify_sensitive(state).sensitive
        out = apply_on_A(schur_channel(np.eye(2)), state)
        assert np.linalg.norm(out.matrix - state.matrix) <= 1e-10

    def test_group_equivalence_separates_the_two_notions(self):
        state = unitary_faithful_state([0.5, 0.3, 0.2])
        assert certify_faithful_to_unitaries(state).sensitive
        assert not certify_faithful(state).faithful


class TestStateFamilies:
    def test_cq_single_block_is_a_product_state(self):
        sigma = random_density(3, 3, seed=83)
        state = cq_state([1.0], [sigma])
        assert state.dims == (1, 3)
        assert np.allclose(state.matrix, sigma, atol=1e-14)

    def test_cq_marginal_on_a_is_diagonal_probabilities(self):
        p = [0.2, 0.5, 0.3]
        state = cq_state(p, [random_density(2, 2, seed=84 + i) for i in range(3)])
        assert np.allclose(state.marginal("A"), np.diag(p), atol=1e-14)

    def test_classically_correlated_pair_is_not_sensitive(self):
        state = cq_state([0.5, 0.5], [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)])
        assert not certify_sensitive(state).sensitive

    def test_invalid_probability_vectors(self):
        sigma = random_density(2, 2, seed=85)
        with pytest.raises(ValueError):
            cq_state([0.6, 0.6], [sigma, sigma])
        with pytest.raises(ValueError):
            cq_state([1.2, -0.2], [sigma, sigma])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_b_states_rejected(self, bad):
        with pytest.raises(ValueError, match=r"sigma\[0\] has non-finite entries"):
            cq_state([0.5, 0.5], [np.diag([bad, 1.0]), np.eye(2) / 2])

    @pytest.mark.parametrize(
        "block, message",
        [
            (np.diag([1.5, -0.5]), r"is not positive semidefinite \(min eigenvalue -5\.000e-01\)"),
            # numpy 2 prints the trace as np.float64(2.0), numpy 1 as 2.0
            (np.eye(2), r"must have unit trace, got \S*2\.0\S*"),
        ],
        ids=["not_psd", "wrong_trace"],
    )
    def test_b_states_are_validated_like_bipartite_states(self, block, message):
        with pytest.raises(ValueError, match=r"^sigma\[1\] " + message + "$"):
            cq_state([0.5, 0.5], [np.eye(2) / 2, block])
        with pytest.raises(ValueError, match=r"^state matrix " + message + "$"):
            BipartiteState(block, 1, 2)

    def test_unitary_faithful_state_marginal_b_is_maximally_mixed(self):
        state = unitary_faithful_state([0.5, 0.3, 0.2])
        assert np.allclose(state.marginal("B"), np.eye(2) / 2, atol=1e-14)

    def test_unitary_faithful_state_rejects_degenerate_spectra(self):
        with pytest.raises(ValueError):
            unitary_faithful_state([0.5, 0.5])
        with pytest.raises(ValueError):
            unitary_faithful_state([0.7, 0.2, 0.1, 0.0])

    def test_unitary_faithful_state_d2_verdicts(self):
        state = unitary_faithful_state([0.7, 0.3])
        assert certify_faithful(state).rank == 2
        assert certify_sensitive(state).nullity == 1


def test_trace_message_prints_a_plain_float():
    with pytest.raises(ValueError, match=r"^state matrix must have unit trace, got 2\.0$"):
        BipartiteState(np.eye(2), 1, 2)
    with pytest.raises(ValueError, match=r"^sigma\[1\] must have unit trace, got 2\.0$"):
        cq_state([0.5, 0.5], [np.eye(2) / 2, np.eye(2)])
