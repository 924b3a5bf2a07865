"""One holder for every linear map: a ``TransferMatrix`` is a ``Channel`` read in transfer form, and both are frozen.

A ``TransferMatrix(d_in, d_out, t)`` is the channel ``Channel.from_transfer(t,
d_in, d_out)`` with ``matrix`` as a name for its transfer matrix.  No field
of either can be assigned or deleted once built, while ``copy``,
``deepcopy`` and ``pickle`` still rebuild the same map.
"""

import copy
import pickle

import numpy as np
import pytest

from aapt import Channel, TransferMatrix, convert, random_cptp

CP = random_cptp(2, 3, seed=4)  # a 2 -> 2 CPTP map with three Kraus operators
NOT_CP = 0.3 * (random_cptp(2, 2, seed=5).transfer() - random_cptp(2, 2, seed=6).transfer())
RECT = np.arange(36, dtype=complex).reshape(9, 4) / 36  # a 2 -> 3 map


@pytest.mark.parametrize("t, dims", [(CP.transfer(), (2, 2)), (NOT_CP, (2, 2)), (RECT, (2, 3))], ids=["cp", "not_cp", "2_to_3"])
def test_a_transfer_matrix_is_the_channel_given_in_transfer_form(t, dims):
    held, channel = TransferMatrix(*dims, t), Channel.from_transfer(t, *dims)
    assert isinstance(held, Channel) and type(channel) is Channel
    assert (held.kind, held.dim_in, held.dim_out) == (channel.kind, channel.dim_in, channel.dim_out) == ("transfer", *dims)
    assert np.array_equal(held.matrix, channel.transfer()) and np.array_equal(held.matrix, held.transfer())
    assert np.array_equal(held.matrix, t)
    assert np.array_equal(held.choi(), channel.choi())
    x = np.arange(4, dtype=complex).reshape(2, 2) + 1j * np.eye(2)
    assert np.array_equal(held.apply(x), channel.apply(x))
    back = convert(convert(held, "choi"), "transfer")
    assert type(back) is Channel and np.array_equal(back.transfer(), t)


def test_a_cp_transfer_matrix_reads_the_kraus_form_of_its_channel():
    held, channel = TransferMatrix(2, 2, CP.transfer()), Channel.from_transfer(CP.transfer(), 2, 2)
    for a, b in zip(held.kraus(), channel.kraus(), strict=True):
        assert np.array_equal(a, b)
    rebuilt = Channel.from_kraus(held.kraus())
    assert np.linalg.norm(rebuilt.choi() - CP.choi()) <= 1e-12


def test_the_constructors_of_channel_build_a_channel_when_called_on_the_subclass():
    built = [
        TransferMatrix.from_kraus(CP.kraus()),
        TransferMatrix.from_choi(CP.choi(), 2, 2),
        TransferMatrix.from_transfer(CP.transfer(), 2, 2),
        TransferMatrix.identity(2),
    ]
    assert [type(c) for c in built] == [Channel] * 4


def test_a_transfer_matrix_names_its_own_type():
    assert repr(TransferMatrix(2, 3, RECT)) == "TransferMatrix(kind='transfer', dim_in=2, dim_out=3)"
    assert repr(Channel.from_transfer(RECT, 2, 3)) == "Channel(kind='transfer', dim_in=2, dim_out=3)"


def test_the_matrix_a_transfer_matrix_hands_out_is_a_copy():
    held = TransferMatrix(2, 2, CP.transfer())
    held.matrix[0, 0] = 7.0
    assert np.array_equal(held.matrix, CP.transfer())


MAPS = {
    "kraus": lambda: Channel.from_kraus(CP.kraus()),
    "choi": lambda: Channel.from_choi(CP.choi(), 2, 2),
    "transfer": lambda: Channel.from_transfer(CP.transfer(), 2, 2),
    "TransferMatrix": lambda: TransferMatrix(2, 2, CP.transfer()),
}


@pytest.mark.parametrize(
    "field, value", [("dim_in", 3), ("kind", "choi"), ("_choi", np.eye(4)), ("matrix", np.eye(4)), ("extra", 1)]
)
@pytest.mark.parametrize("make", MAPS.values(), ids=MAPS)
def test_no_attribute_of_a_map_can_be_assigned_or_deleted(make, field, value):
    held = make()
    before = held.transfer()
    with pytest.raises(AttributeError):
        setattr(held, field, value)
    with pytest.raises(AttributeError):
        delattr(held, field)
    assert held.dim_in == 2 and np.array_equal(held.transfer(), before)


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda m: pickle.loads(pickle.dumps(m)),
}


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("make", MAPS.values(), ids=MAPS)
def test_copies_and_pickles_rebuild_the_same_map(make, how):
    held = make()
    again = how(held)
    assert type(again) is type(held) and again is not held
    assert (again.kind, again.dim_in, again.dim_out) == (held.kind, held.dim_in, held.dim_out)
    assert again.choi().tobytes() == held.choi().tobytes()
    if held.kind == "kraus":
        assert [k.tobytes() for k in again.kraus()] == [k.tobytes() for k in held.kraus()]
    with pytest.raises(AttributeError):
        again.dim_in = 3


@pytest.mark.parametrize("make", MAPS.values(), ids=MAPS)
def test_equality_of_maps_is_identity(make):
    a, b = make(), make()
    assert a == a and a != b and len({a, b}) == 2
