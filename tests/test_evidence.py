"""Certificates carry the rank decision they were read from as one RankEvidence."""

import math

import pytest

from aapt import (
    RankEvidence,
    certify_faithful,
    certify_sensitive,
    commutant_basis,
    rank_evidence,
    restrict_support,
    state_to_map,
)
from aapt.states import orient


@pytest.mark.parametrize("side", ["A", "B"])
def test_faithful_evidence_is_the_decision_matrix_evidence(corpus, side):
    for name, state in corpus:
        cert = certify_faithful(state, side)
        assert isinstance(cert.evidence, RankEvidence), name
        rebuilt = state_to_map(orient(restrict_support(state), side)).matrix
        assert cert.evidence == rank_evidence(rebuilt), name
        assert cert.rank == cert.evidence.rank, name


@pytest.mark.parametrize("side", ["A", "B"])
def test_sensitive_evidence_is_the_commutant_evidence(corpus, side):
    for name, state in corpus[::3]:
        cert = certify_sensitive(state, side)
        assert cert.evidence == commutant_basis(state, side).evidence, name
        assert cert.nullity == commutant_basis(state, side).nullity, name


def test_gap_ratio_reads_the_cut():
    assert RankEvidence(2, 4.0, 0.5, 1e-12).gap_ratio == 8.0
    assert RankEvidence(2, 4.0, 0.0, 1e-12).gap_ratio == math.inf
