"""`qbsim.rng` draws what numpy's Generator(PCG64(SeedSequence(...)))
draws for the same seed and path, call for call, so every seeded run and
every golden report keep their bytes without numpy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbsim.rng import derive_seed, generator
from oracles import numpy_derive_seed, numpy_generator

SEED_BITS = (0, 31, 32, 33, 63, 64)
# 2**31 + 1 and 2**63 + 1 reject about half their first draws
SPANS = (1, 2, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 5, 2**40, 2**63 + 1, 2**64 - 1)

seeds = st.sampled_from(SEED_BITS).flatmap(
    lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1) if bits else st.just(0))
paths = st.lists(st.one_of(st.text(max_size=8), st.integers(0, 255),
                           st.integers(0, 2**64 - 1)), max_size=4)
integer_calls = st.sampled_from(SPANS).flatmap(lambda span: st.tuples(
    st.just("integers"), st.just(span), st.integers(0, min(1000, 2**64 - span))))
calls = st.lists(st.one_of(integer_calls, st.just(("random", 0, 0)),
                           st.tuples(st.just("permutation"), st.integers(0, 12), st.just(0))),
                 max_size=40)

EXAMPLES = settings(derandomize=True, max_examples=300, deadline=None)


def draw_ours(rng, call):
    kind, arg, low = call
    if kind == "integers":
        return rng.integers(low, low + arg)
    if kind == "random":
        return rng.random()
    return list(rng.permutation(arg))


def draw_numpy(rng, call):
    kind, arg, low = call
    if kind == "integers":
        high = low + arg  # int64 and uint64 share one bounded-integer stream
        return int(rng.integers(low, high, dtype=np.int64 if high <= 2**63 else np.uint64))
    if kind == "random":
        return float(rng.random())
    return rng.permutation(arg).tolist()


def assert_same_stream(ours, numpys, calls):
    for call in calls:
        assert draw_ours(ours, call) == draw_numpy(numpys, call), call


@EXAMPLES
@given(seed=seeds, path=paths, calls=calls)
def test_interleaved_draws_equal_numpys(seed, path, calls):
    assert_same_stream(generator(seed, *path), numpy_generator(seed, *path), calls)


@EXAMPLES
@given(seed=seeds, path=paths)
def test_derive_seed_equals_numpys(seed, path):
    assert derive_seed(seed, *path) == numpy_derive_seed(seed, *path)


@EXAMPLES
@given(seed=seeds, path=paths, count=st.integers(0, 20))
def test_scalar_doubles_equal_one_numpy_array(seed, path, count):
    """`CommitmentRegistry.open` draws its doubles one at a time, numpy
    filled one array: the same stream."""
    ours = generator(seed, *path)
    assert [ours.random() for _ in range(count)] == \
        numpy_generator(seed, *path).random(count).tolist()


def test_numpy_integers_keep_their_meaning_as_ints():
    calls = [("integers", span, 0) for span in SPANS] + [("random", 0, 0)]
    assert_same_stream(generator(5, np.int64(7), "x", np.uint64(2**40)),
                       numpy_generator(5, 7, "x", 2**40), calls)
    assert_same_stream(generator(np.uint64(2**63 + 3), "run"),
                       numpy_generator(np.uint64(2**63 + 3), "run"), calls)
    assert_same_stream(generator(np.int64(9), "run"), numpy_generator(9, "run"), calls)
    assert derive_seed(np.int64(9), np.int32(3)) == numpy_derive_seed(9, 3)
    assert derive_seed(9, np.int64(3)) != derive_seed(9, "3")


@pytest.mark.parametrize("low, high", [(5, 5), (6, 5), (0, 2**64 + 1), (-1, 2**64)])
def test_integers_refuses_what_numpy_refuses(low, high):
    with pytest.raises(ValueError):
        generator(1).integers(low, high)
    with pytest.raises(ValueError):
        numpy_generator(1).integers(low, high, dtype=np.uint64 if low >= 0 else np.int64)
