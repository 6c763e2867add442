"""`qbsim.rng` substreams: known-answer words recomputed with `hashlib`,
an injective path text, uniform draws by chi-square, and the refusals
of an empty or too wide span."""

import hashlib
import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from qbsim.rng import derive_seed, generator
from oracles import numpy_generator

EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)
seeds = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**32, 2**64 - 1]))
paths = st.lists(st.one_of(st.text(max_size=8), st.integers(0, 2**64 - 1)), max_size=4)


def shake_words(key: bytes, count: int) -> list[int]:
    """The first `count` words of the substream whose key text is `key`,
    straight from `hashlib`: chunk c is the 136 bytes of
    `shake_256(b"qbsim-rng|" + key + b"|" + str(c))`."""
    out = []
    for chunk in range(math.ceil(count / 17)):
        block = hashlib.shake_256(b"qbsim-rng|%s|%d" % (key, chunk)).digest(136)
        out += [int.from_bytes(block[i:i + 8], "big") for i in range(0, 136, 8)]
    return out[:count]


KNOWN = [
    ((0,), b"(0,)"),
    ((2**32, "player", 3), b"(4294967296, 'player', 3)"),
    ((2**64 - 1, "registry", 2**64 - 1), b"(18446744073709551615, 'registry', 18446744073709551615)"),
    ((7, "seller", "permute"), b"(7, 'seller', 'permute')"),
    ((0, "it's", "", 0), b"(0, \"it's\", '', 0)"),
]


@pytest.mark.parametrize("args, key", KNOWN)
def test_words_are_the_shake_256_words_of_the_path_text(args, key):
    words = shake_words(key, 40)  # across the chunk boundaries at 17 and 34
    rng = generator(*args)
    assert [rng.integers(0, 2**64) for _ in words] == words
    rng = generator(*args)
    assert [rng.random() for _ in range(20)] == [(w >> 11) / 2**53 for w in words[:20]]
    digest = hashlib.shake_256(b"qbsim-seed|" + key).digest(8)
    assert derive_seed(*args) == int.from_bytes(digest, "big") >> 1


def test_bounded_integers_take_the_top_bits_and_reject_above_the_span():
    words = iter(shake_words(b"(5, 'k')", 40))
    rng = generator(5, "k")
    for span in (3, 7, 2**63 + 1, 2**63 + 1):
        shift = 64 - (span - 1).bit_length()
        expected = next(w >> shift for w in words if w >> shift < span)
        assert rng.integers(10, 10 + span) == 10 + expected


@pytest.mark.parametrize("one, other", [
    ((1, 3), (1, "3")),
    ((1, "a", "b"), (1, "a|b")),
    ((1,), (1, "")),
    ((1, "a", "b"), (1, "b", "a")),
    ((1, 2), (2, 1)),
])
def test_the_path_text_is_injective(one, other):
    assert generator(*one).integers(0, 2**64) != generator(*other).integers(0, 2**64)
    assert derive_seed(*one) != derive_seed(*other)


def test_numpy_integers_keep_their_meaning_as_ints():
    for items, ints in [((np.int64(7), "x", np.uint64(2**40)), (7, "x", 2**40)),
                        ((np.int32(3),), (3,)), ((True,), (1,))]:
        assert generator(5, *items).permutation(8) == generator(5, *ints).permutation(8)
        assert derive_seed(5, *items) == derive_seed(5, *ints)
    assert generator(np.uint64(2**63 + 3), "run").random() == generator(2**63 + 3, "run").random()
    assert derive_seed(np.int64(9), "run") == derive_seed(9, "run")


@EXAMPLES
@given(seed=seeds, path=paths)
def test_derive_seed_is_never_a_word_of_the_substream(seed, path):
    value = derive_seed(seed, *path)
    assert 0 <= value < 2**63
    rng = generator(seed, *path)
    words = [rng.integers(0, 2**64) for _ in range(34)]
    assert value not in words and value not in [w >> 1 for w in words]


@EXAMPLES
@given(seed=seeds, path=paths, low=st.integers(-2**64, 2**64),
       span=st.one_of(st.integers(1, 40), st.integers(1, 2**64)), n=st.integers(0, 12))
def test_draws_stay_in_their_range(seed, path, low, span, n):
    rng = generator(seed, *path)
    assert low <= rng.integers(low, low + span) < low + span
    assert 0.0 <= rng.random() < 1.0
    assert sorted(rng.permutation(n)) == list(range(n))


# a draw fails its chi-square check only if its p-value falls below this;
# the seeds are fixed, so the test is deterministic
P_MIN = 1e-3
DRAWS = 20_000
BINS = 8


@pytest.mark.parametrize("k", [2, 3, 7, 2**32 + 5, 2**63 + 1])
def test_integers_are_uniform_by_chi_square(k):
    rng = generator(2024, "chi-square", k)
    bins = min(k, BINS)
    counts = Counter(rng.integers(0, k) * bins // k for _ in range(DRAWS))
    # bin b holds the values v with v * bins // k == b
    sizes = [-(-(b + 1) * k // bins) - -(-b * k // bins) for b in range(bins)]
    assert sum(sizes) == k
    expected = [DRAWS * size / k for size in sizes]
    assert chisquare([counts[b] for b in range(bins)], expected).pvalue > P_MIN


def test_permutations_of_four_are_uniform_by_chi_square():
    rng = generator(2024, "chi-square", "permutation")
    counts = Counter(tuple(rng.permutation(4)) for _ in range(24 * 1_000))
    assert chisquare([counts[p] for p in permutations(range(4))]).pvalue > P_MIN


def test_doubles_are_uniform_by_chi_square():
    rng = generator(2024, "chi-square", "random")
    counts = Counter(int(rng.random() * 16) for _ in range(DRAWS))
    assert chisquare([counts[b] for b in range(16)]).pvalue > P_MIN


@pytest.mark.parametrize("low, high", [(5, 5), (6, 5), (0, 2**64 + 1), (-1, 2**64)])
def test_integers_refuses_what_numpy_refuses(low, high):
    with pytest.raises(ValueError, match=r"need low < high <= low \+ 2\*\*64"):
        generator(1).integers(low, high)
    with pytest.raises(ValueError):
        numpy_generator(1).integers(low, high, dtype=np.uint64 if low >= 0 else np.int64)
