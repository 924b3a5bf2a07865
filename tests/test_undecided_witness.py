"""The witness refuses a cut that ``aapt certify`` calls undecided.

A product state mixed with a small weight of a full-rank one has a
faithfulness cut whose gap ratio falls below 10: at weight 3e-11 it keeps
rank 3 at ratio about 3.9, at 1e-11 rank 2 at about 1.1.  ``certify --mode
faithful`` exits 3 on both; the witness raises ArithmeticError, so
``aapt witness`` exits 3 too and writes neither channel.  A decided
non-faithful probe still gets its pair.
"""

import numpy as np
import pytest

from aapt import certify_faithful, cli, documents, faithfulness_witness, product_state, random_density, random_state
from aapt.states import BipartiteState

PRODUCT = product_state(random_density(2, 2, 1), random_density(2, 2, 2)).matrix
FULL_RANK = random_state(2, 2, seed=5).matrix
WEIGHTS = [3e-11, 1e-11]


def mixed(eps: float) -> BipartiteState:
    return BipartiteState((1 - eps) * PRODUCT + eps * FULL_RANK, 2, 2)


@pytest.mark.parametrize("eps", WEIGHTS)
def test_the_library_refuses_an_ambiguous_cut(eps):
    state = mixed(eps)
    assert certify_faithful(state).evidence.gap_ratio < 10
    with pytest.raises(ArithmeticError, match=r"^ambiguous rank decision: gap ratio \d\.\d+ < 10$"):
        faithfulness_witness(state)


@pytest.mark.parametrize("eps", WEIGHTS)
def test_the_cli_witness_exits_3_where_certify_does(eps, tmp_path, capsys):
    probe = tmp_path / "probe.json"
    documents.save(documents.state_document(mixed(eps)), probe)
    assert cli.main(["certify", str(probe), "--mode", "faithful", "--out", str(tmp_path / "cert.json")]) == 3
    k0, k1 = tmp_path / "k0.json", tmp_path / "k1.json"
    assert cli.main(["witness", str(probe), "--out", str(k0), str(k1)]) == 3
    assert "ambiguous rank decision" in capsys.readouterr().err
    assert not k0.exists() and not k1.exists()


def test_a_decided_non_faithful_probe_still_gets_its_pair():
    state = BipartiteState(PRODUCT, 2, 2)
    assert certify_faithful(state).evidence.gap_ratio >= 10
    pair = faithfulness_witness(state)
    assert pair is not None and pair.channel_gap >= 1e-3 and pair.output_gap <= 1e-9
    assert np.isfinite(pair.alpha)
