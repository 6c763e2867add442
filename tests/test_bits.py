import pytest
from hypothesis import given, strategies as st

from qbsim.bits import BitString, xor_all
from qbsim.errors import DimensionMismatchError, QbsimError

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=64)


def test_literal_roundtrip():
    b = BitString.from_text("0101")
    assert b.text == "0101"
    assert len(b) == 4
    assert list(b) == [0, 1, 0, 1]
    assert b.value == 5


def test_empty_rejected():
    with pytest.raises(QbsimError):
        BitString([])
    with pytest.raises(QbsimError):
        BitString.from_text("")


def test_xor_example():
    a = BitString.from_text("0101")
    b = BitString.from_text("0011")
    assert a.xor(b).text == "0110"


def test_xor_self_is_zero():
    t = BitString.from_text("1011")
    assert t.xor(t).text == "0000"


def test_hamming_examples():
    z = BitString.from_text("0000")
    assert z.hamming_distance(BitString.from_text("0000")) == 0
    assert z.hamming_distance(BitString.from_text("1111")) == 4
    assert BitString.from_text("0101").hamming_distance(BitString.from_text("0011")) == 2


def test_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        BitString.from_text("01").xor(BitString.from_text("011"))
    with pytest.raises(DimensionMismatchError):
        BitString.from_text("01").hamming_distance(BitString.from_text("011"))


@given(bit_lists)
def test_iteration_matches_indexing(bits):
    b = BitString(bits)
    assert list(b) == bits
    assert [b[i] for i in range(len(b))] == bits


@given(st.lists(st.integers(0, 255), min_size=1, max_size=8))
def test_xor_fold_is_order_insensitive(values):
    tickets = [BitString.from_int(v, 8) for v in values]
    assert xor_all(tickets) == xor_all(list(reversed(tickets)))


def test_flip_changes_exactly_one_position():
    b = BitString.from_text("0101")
    flipped = b.flip(0)
    assert flipped.text == "1101"
    assert b.hamming_distance(flipped) == 1


def test_random_has_requested_length():
    import numpy as np

    rng = np.random.default_rng(5)
    b = BitString.random(rng, 75)
    assert len(b) == 75
