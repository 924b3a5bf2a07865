import numpy as np

from aapt import cli
from aapt import Channel, TransferMatrix, classify, random_cptp, unitary_faithful_state
from aapt.documents import (
    channel_document,
    document_to_channel,
    document_to_state,
    load,
    save,
    transfer_document,
)

from helpers import run_cli, step_failure


class TestGen:
    def test_max_entangled_document(self, tmp_path):
        result = run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "probe.json"
        state = document_to_state(load(tmp_path / "probe.json"))
        assert state.dims == (2, 2)

    def test_prop4_document_matches_the_library_family(self, tmp_path):
        result = run_cli("gen", "prop4", "--d", "3", "--lambda", "0.5,0.3,0.2", "--out", "p4.json", cwd=tmp_path)
        assert result.returncode == 0
        state = document_to_state(load(tmp_path / "p4.json"))
        expected = unitary_faithful_state([0.5, 0.3, 0.2])
        assert np.allclose(state.matrix, expected.matrix, atol=0)

    def test_cq_document(self, tmp_path):
        result = run_cli("gen", "cq", "--p", "0.5,0.5", "--out", "cq.json", cwd=tmp_path)
        assert result.returncode == 0
        state = document_to_state(load(tmp_path / "cq.json"))
        assert state.dims == (2, 2)
        assert np.allclose(state.marginal("A"), np.eye(2) / 2, atol=1e-14)

    def test_unknown_family_is_a_usage_error(self, tmp_path):
        assert run_cli("gen", "ghz", cwd=tmp_path).returncode == 2

    def test_bad_params_are_usage_errors(self, tmp_path):
        assert run_cli("gen", "cq", cwd=tmp_path).returncode == 2
        assert run_cli("gen", "prop4", "--lambda", "0.5,0.5", cwd=tmp_path).returncode == 2

    def test_stdout_carries_the_document_without_out(self, tmp_path):
        result = run_cli("gen", "max-entangled", "--d", "2", cwd=tmp_path)
        assert result.returncode == 0
        assert '"kind": "state"' in result.stdout

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        for name in ("a.json", "b.json"):
            assert run_cli("gen", "random", "--da", "2", "--db", "3", "--seed", "9", "--out", name, cwd=tmp_path).returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCertify:
    def test_faithful_verdicts_and_exit_codes(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        result = run_cli("certify", "probe.json", "--mode", "faithful", "--out", "cert.json", cwd=tmp_path)
        assert result.returncode == 0
        doc = load(tmp_path / "cert.json")
        assert doc.meta["rank"] == "4" and doc.meta["required_rank"] == "4"

        run_cli("gen", "prop4", "--d", "3", "--lambda", "0.5,0.3,0.2", "--out", "p4.json", cwd=tmp_path)
        result = run_cli("certify", "p4.json", "--mode", "faithful", "--out", "c2.json", cwd=tmp_path)
        assert result.returncode == 1
        doc = load(tmp_path / "c2.json")
        assert doc.meta["rank"] == "2" and doc.meta["required_rank"] == "9"

    def test_sensitive_verdicts(self, tmp_path):
        run_cli("gen", "prop4", "--d", "3", "--lambda", "0.5,0.3,0.2", "--out", "p4.json", cwd=tmp_path)
        result = run_cli("certify", "p4.json", "--mode", "sensitive", "--out", "cert.json", cwd=tmp_path)
        assert result.returncode == 0
        assert load(tmp_path / "cert.json").meta["nullity"] == "1"

        run_cli("gen", "cq", "--p", "0.5,0.5", "--out", "cq.json", cwd=tmp_path)
        result = run_cli("certify", "cq.json", "--mode", "sensitive", "--out", "c2.json", cwd=tmp_path)
        assert result.returncode == 1
        assert load(tmp_path / "c2.json").meta["evidence"] == "pcq_projectors"

    def test_malformed_document_is_a_usage_error(self, tmp_path):
        (tmp_path / "junk.json").write_text("{}")
        assert run_cli("certify", "junk.json", "--mode", "faithful", cwd=tmp_path).returncode == 2
        assert run_cli("certify", "missing.json", "--mode", "faithful", cwd=tmp_path).returncode == 2

    def test_ambiguous_rank_gap_exits_three(self, tmp_path):
        # seed 201 yields map singular values (0.68, 0.23, 0.11, 0.06); a cut at
        # 0.15 separates neighbours whose ratio is far below the 10x gap rule
        from aapt import random_state
        from aapt.documents import state_document

        save(state_document(random_state(2, 2, seed=201)), tmp_path / "state.json")
        result = run_cli("certify", "state.json", "--mode", "faithful", "--tol", "0.15", "--out", "c.json", cwd=tmp_path)
        assert result.returncode == 3
        assert "ambiguous" in result.stderr


class TestWitness:
    def test_non_faithful_state_produces_channel_documents(self, tmp_path):
        run_cli("gen", "product", "--da", "2", "--db", "2", "--seed", "3", "--out", "prod.json", cwd=tmp_path)
        result = run_cli("witness", "prod.json", "--out", "k0.json", "k1.json", cwd=tmp_path)
        assert result.returncode == 0
        k0 = document_to_channel(load(tmp_path / "k0.json"))
        k1 = document_to_channel(load(tmp_path / "k1.json"))
        for ch in (k0, k1):
            report = classify(ch)
            assert report.is_cp and report.is_tp
        meta = load(tmp_path / "k0.json").meta
        assert float(meta["output_gap"]) <= 1e-9
        assert float(meta["channel_gap"]) >= 1e-3

    def test_faithful_state_exits_one_without_output(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        result = run_cli("witness", "probe.json", "--out", "k0.json", "k1.json", cwd=tmp_path)
        assert result.returncode == 1
        assert not (tmp_path / "k0.json").exists()


class TestReconstruct:
    def test_truth_channel_pipeline(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        save(channel_document(random_cptp(2, 2, seed=20), {"cptp": "true"}), tmp_path / "truth.json")
        result = run_cli(
            "reconstruct", "probe.json", "--channel", "truth.json", "--noise", "0", "--out", "rep.json", cwd=tmp_path
        )
        assert result.returncode == 0
        assert float(load(tmp_path / "rep.json").meta["choi_error"]) <= 1e-8

    def test_output_state_route_recovers_identity(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        result = run_cli("reconstruct", "probe.json", "probe.json", "--out", "rep.json", cwd=tmp_path)
        assert result.returncode == 0
        doc = load(tmp_path / "rep.json")
        assert np.allclose(doc.data, Channel.identity(2).transfer(), atol=1e-10)

    def test_multiple_trials_write_indexed_reports(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        save(channel_document(random_cptp(2, 2, seed=21), {"cptp": "true"}), tmp_path / "truth.json")
        result = run_cli(
            "reconstruct", "probe.json", "--channel", "truth.json",
            "--noise", "1e-4", "--trials", "3", "--seed", "5", "--out", "rep.json", cwd=tmp_path,
        )
        assert result.returncode == 0
        for i in range(3):
            doc = load(tmp_path / f"rep.{i:03d}.json")
            assert doc.meta["trial"] == str(i)

    def test_non_faithful_probe_exits_one(self, tmp_path):
        run_cli("gen", "prop4", "--d", "3", "--out", "p4.json", cwd=tmp_path)
        result = run_cli("reconstruct", "p4.json", "p4.json", cwd=tmp_path)
        assert result.returncode == 1

    def test_positive_noise_on_a_1x1_probe_is_a_usage_error(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "1", "--out", "probe.json", cwd=tmp_path)
        save(channel_document(random_cptp(1, 2, seed=23), {"cptp": "true"}), tmp_path / "truth.json")
        result = run_cli("reconstruct", "probe.json", "--channel", "truth.json", "--noise", "1e-3", cwd=tmp_path)
        assert result.returncode == 2
        assert "no traceless perturbation" in result.stderr
        assert "RuntimeWarning" not in result.stderr and "non-finite" not in result.stderr

    def test_missing_output_and_channel_is_a_usage_error(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        assert run_cli("reconstruct", "probe.json", cwd=tmp_path).returncode == 2


class TestDecompose:
    def test_channel_difference_round_trip(self, tmp_path):
        c1 = random_cptp(2, 2, seed=22)
        c2 = random_cptp(2, 3, seed=23)
        t = TransferMatrix(2, 2, 0.3 * (c1.transfer() - c2.transfer()))
        save(transfer_document(t), tmp_path / "diff.json")
        result = run_cli("decompose", "diff.json", "--out", "k0.json", "k1.json", cwd=tmp_path)
        assert result.returncode == 0
        k0 = document_to_channel(load(tmp_path / "k0.json"))
        k1 = document_to_channel(load(tmp_path / "k1.json"))
        alpha = float(load(tmp_path / "k0.json").meta["alpha"])
        rebuilt = alpha * (k0.transfer() - k1.transfer())
        assert np.linalg.norm(rebuilt - t.matrix) <= 1e-10

    def test_non_trace_annihilating_input_is_rejected(self, tmp_path):
        save(transfer_document(TransferMatrix(2, 2, np.eye(4))), tmp_path / "ident.json")
        assert run_cli("decompose", "ident.json", "--out", "a.json", "b.json", cwd=tmp_path).returncode == 2


class TestToleranceFlags:
    """Only certify, witness and reconstruct take --tol, and each of them reads it."""

    def test_gen_has_no_tol(self, tmp_path):
        result = run_cli("gen", "random", "--tol", "0.1", cwd=tmp_path)
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_decompose_has_no_tol(self, tmp_path):
        c1 = random_cptp(2, 2, seed=22)
        c2 = random_cptp(2, 3, seed=23)
        save(transfer_document(TransferMatrix(2, 2, 0.3 * (c1.transfer() - c2.transfer()))), tmp_path / "d.json")
        result = run_cli("decompose", "d.json", "--tol", "0", "--out", "a.json", "b.json", cwd=tmp_path)
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        assert not (tmp_path / "a.json").exists()

    def test_witness_reads_tol(self, tmp_path):
        # every singular value of the d = 2 maximally entangled map is 1/2, so a 0.6 cut leaves rank 0
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        assert run_cli("witness", "probe.json", "--out", "k0.json", "k1.json", cwd=tmp_path).returncode == 1
        result = run_cli("witness", "probe.json", "--tol", "0.6", "--out", "k0.json", "k1.json", cwd=tmp_path)
        assert result.returncode == 3
        assert "numerical failure" in result.stderr

    def test_reconstruct_reads_tol(self, tmp_path):
        run_cli("gen", "max-entangled", "--d", "2", "--out", "probe.json", cwd=tmp_path)
        assert run_cli("reconstruct", "probe.json", "probe.json", cwd=tmp_path).returncode == 0
        result = run_cli("reconstruct", "probe.json", "probe.json", "--tol", "0.6", cwd=tmp_path)
        assert result.returncode == 1
        assert "not faithful" in result.stderr


class TestPipelineDeterminism:
    def test_full_pipeline_is_byte_identical_across_runs(self, tmp_path):
        for tag in ("x", "y"):
            steps = [
                (0, ("gen", "product", "--da", "2", "--db", "2", "--seed", "11", "--out", f"prod_{tag}.json")),
                # a product state is never faithful, so certify answers "no"
                (1, ("certify", f"prod_{tag}.json", "--mode", "faithful", "--out", f"cert_{tag}.json")),
                (0, ("witness", f"prod_{tag}.json", "--out", f"k0_{tag}.json", f"k1_{tag}.json")),
            ]
            for expected, args in steps:
                failure = step_failure(run_cli(*args, cwd=tmp_path), expected)
                assert failure is None, failure
        for stem in ("prod", "cert", "k0", "k1"):
            assert (tmp_path / f"{stem}_x.json").read_bytes() == (tmp_path / f"{stem}_y.json").read_bytes()


class TestParser:
    def test_the_parser_is_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_usage_error_leaves_the_next_call_unchanged(self, capsys):
        argv = ["gen", "random", "--da", "2", "--db", "3", "--seed", "4"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(["gen", "random", "--da", "two"]) == 2
        assert cli.main(["certify", "probe.json"]) == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
