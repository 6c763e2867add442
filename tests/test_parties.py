"""Party identities: equality, hashing, order, text and errors."""

import copy
import itertools
import json
import pickle

import pytest

from qbsim.errors import QbsimError
from qbsim.parties import ROLES, PartyId, buyer, miner, player, seller


def every_party():
    return [PartyId(role, index) for role in ROLES for index in (0, 1, 2, 10)]


def test_equal_parties_built_separately_hash_and_compare_equal():
    for party in every_party():
        twin = PartyId(party.role, party.index)
        assert twin == party and not twin != party
        assert hash(twin) == hash(party)
    assert miner(3) == PartyId("miner", 3)
    assert miner(3) == ("miner", 3)  # a party is the plain tuple of its value


def test_parties_differing_in_role_or_index_never_compare_equal():
    parties = every_party()
    for a, b in itertools.combinations(parties, 2):
        assert a != b and not a == b
    assert len(set(parties)) == len(parties)


def test_sorted_gives_role_value_then_index_order():
    parties = every_party()
    expected = sorted(parties, key=lambda p: (p.role, p.index))
    assert sorted(reversed(parties)) == expected
    assert sorted([seller(), miner(0), buyer(10), player(1), buyer(2)]) == [
        buyer(2), buyer(10), miner(0), player(1), seller()]


def test_text_role_and_index():
    assert str(miner(12)) == "miner:12" and f"{buyer(1)}" == "buyer:1"
    assert str(seller()) == "seller:0"
    assert miner(12).role == "miner" and miner(12).index == 12
    assert [p.role for p in (player(0), buyer(0), seller(), miner(0))] == list(ROLES)


def test_negative_index_raises():
    with pytest.raises(QbsimError, match="party index must be non-negative, got -1"):
        player(-1)


def test_a_role_outside_roles_raises():
    with pytest.raises(QbsimError, match="unknown role 'auditor'"):
        PartyId("auditor", 0)


def test_copy_and_pickle_keep_the_party():
    for party in every_party():
        for twin in (copy.copy(party), copy.deepcopy(party), pickle.loads(pickle.dumps(party))):
            assert type(twin) is PartyId and twin == party and twin.role == party.role


def test_json_writes_a_party_as_a_list():
    assert json.loads(json.dumps(miner(3))) == ["miner", 3]
