import numpy as np
import pytest

from aapt import (
    Channel,
    TransferMatrix,
    certify_faithful,
    certify_sensitive,
    cq_state,
    max_entangled,
    random_cptp,
    random_density,
    random_state,
    reconstruct_channel,
)
from aapt.documents import (
    MatrixDocument,
    channel_document,
    document_to_channel,
    document_to_state,
    document_to_transfer,
    dumps,
    faithfulness_document,
    format_number,
    load,
    loads,
    report_document,
    save,
    sensitivity_document,
    state_document,
    transfer_document,
)


class TestRoundTrip:
    def test_state_document_is_bit_exact(self):
        state = random_state(2, 3, seed=130)
        doc = state_document(state, {"family": "random", "seed": "130"})
        text = dumps(doc)
        back = loads(text)
        assert back.kind == "state"
        assert back.dims == (2, 3)
        assert np.array_equal(back.data, doc.data)
        assert back.meta == doc.meta
        assert dumps(back) == text

    def test_save_and_load(self, tmp_path):
        state = max_entangled(3)
        path = save(state_document(state), tmp_path / "state.json")
        reparsed = document_to_state(load(path))
        assert np.array_equal(reparsed.matrix, state.matrix)

    def test_seventeen_digits_survive_awkward_values(self):
        values = np.array([1 / 3, np.pi, 1e-300, -7.1e17, 2**-52], dtype=complex)
        doc = MatrixDocument("certificate", (5,), values, {})
        assert np.array_equal(loads(dumps(doc)).data, values)

    def test_identical_objects_serialize_to_identical_bytes(self):
        a = dumps(state_document(random_state(2, 2, seed=131), {"k": "v"}))
        b = dumps(state_document(random_state(2, 2, seed=131), {"k": "v"}))
        assert a == b


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MatrixDocument("spectrum", (2,), np.ones(2, dtype=complex), {})

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError):
            MatrixDocument("certificate", (2,), np.array([1.0, np.inf], dtype=complex), {})

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            loads("not json")
        with pytest.raises(ValueError):
            loads('{"kind": "state", "dims": [2, 2], "data": [[1, 2, 3]], "meta": {}}')
        with pytest.raises(ValueError):
            loads('{"kind": "state", "dims": [2, 2], "data": [[1, 0]]}')

    @pytest.mark.parametrize("dims", ["[true, true]", "[false]", "[2, true]"])
    def test_boolean_dims_are_refused(self, dims):
        with pytest.raises(ValueError, match="^dims must be a list of integers$"):
            loads(f'{{"kind": "state", "dims": {dims}, "data": [[[1, 0]]], "meta": {{}}}}')

    def test_kind_mismatch_on_unpacking(self):
        doc = state_document(max_entangled(2))
        with pytest.raises(ValueError):
            document_to_channel(doc)
        with pytest.raises(ValueError):
            document_to_transfer(doc)

    def test_invalid_state_payload_rejected(self):
        doc = MatrixDocument("state", (2, 2), np.eye(4, dtype=complex), {})
        with pytest.raises(ValueError):
            document_to_state(doc)


class TestChannelDocuments:
    def test_channel_round_trip_preserves_the_choi_matrix(self):
        ch = random_cptp(2, 3, seed=132)
        doc = loads(dumps(channel_document(ch, {"cptp": "true"})))
        back = document_to_channel(doc)
        assert np.array_equal(back.choi(), ch.choi())

    def test_cptp_flag_is_revalidated(self):
        bogus = Channel.from_kraus([np.sqrt(0.5) * np.eye(2)])  # not TP
        doc = channel_document(bogus, {"cptp": "true"})
        with pytest.raises(ValueError):
            document_to_channel(doc)

    def test_transfer_round_trip(self):
        t = TransferMatrix(2, 2, random_cptp(2, 2, seed=133).transfer())
        back = document_to_transfer(loads(dumps(transfer_document(t))))
        assert np.array_equal(back.matrix, t.matrix)
        assert (back.dim_in, back.dim_out) == (2, 2)


class TestCertificateAndReportDocuments:
    def test_faithfulness_certificate_meta(self):
        cert = certify_faithful(max_entangled(2))
        doc = loads(dumps(faithfulness_document(cert)))
        assert doc.meta["verdict"] == "true"
        assert doc.meta["rank"] == "4"
        assert doc.meta["required_rank"] == "4"
        assert doc.meta["evidence"] == "singular_gap"

    def test_sensitivity_certificate_carries_projectors(self):
        state = cq_state([0.5, 0.5], [random_density(2, 2, seed=134), random_density(2, 2, seed=135)])
        cert = certify_sensitive(state)
        doc = loads(dumps(sensitivity_document(cert, state.dims)))
        assert doc.meta["verdict"] == "false"
        assert doc.meta["evidence"] == "pcq_projectors"
        assert doc.data.ndim == 3
        total = doc.data.sum(axis=0)
        assert np.linalg.norm(total - np.eye(2)) <= 1e-10

    def test_report_document_round_trips_the_transfer_matrix(self):
        probe = max_entangled(2)
        truth = random_cptp(2, 2, seed=136)
        from aapt import apply_on_A

        report = reconstruct_channel(probe, apply_on_A(truth, probe), truth=truth)
        doc = loads(dumps(report_document(report, {"side": "A"})))
        assert doc.kind == "report"
        assert float(doc.meta["choi_error"]) <= 1e-8
        assert np.allclose(doc.data, truth.transfer(), atol=1e-8)

    def test_format_number_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_number(float("nan"))
