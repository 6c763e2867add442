"""Property: every generated lottery or auction config either fails with
a ConfigError or runs to a schema-valid report whose honest ledgers
agree while fewer than a third of the miners are Byzantine."""

from hypothesis import given, settings, strategies as st

from qbsim.auction import BUYER_POLICIES, SELLER_POLICIES
from qbsim.consensus import MINER_SCRIPT_NAMES
from qbsim.errors import ConfigError
from qbsim.keystore import DEFAULT_BUDGET
from qbsim.lottery import CHEAT_POLICIES, PLAYER_POLICIES
from qbsim.scenario import ScenarioConfig, run_scenario, validate_report


def keyed(count, values):
    """Policies for a subset of `count` parties, keyed by index text."""
    return st.dictionaries(st.integers(0, count - 1).map(str), values, max_size=count)


def policies(table, value):
    """Each policy of a protocol's table as a config text, its values
    drawn from `value`."""
    return st.one_of([st.tuples(*[value] * len(slots)).map(
        lambda values, name=name: ":".join([name, *map(str, values)]))
        for name, slots in table.items()])


def lottery_fields(draw, count):
    ticket_bits = draw(st.integers(1, 8))
    policy = policies(PLAYER_POLICIES, st.text("01", min_size=ticket_bits, max_size=ticket_bits))
    return dict(players=count, ticket_bits=ticket_bits,
                player_policies=draw(keyed(count, policy)),
                cheat_policy=draw(st.sampled_from(CHEAT_POLICIES)))


def auction_fields(draw, count):
    bid_width = draw(st.integers(1, 8))
    policy = policies(BUYER_POLICIES, st.integers(1, (1 << bid_width) - 1))
    return dict(buyers=count, bid_width=bid_width,
                buyer_policies=draw(keyed(count, policy)),
                seller_policy=draw(st.sampled_from(SELLER_POLICIES)))


@st.composite
def configs(draw):
    protocol = draw(st.sampled_from(["lottery", "auction"]))
    count, miners = draw(st.integers(2, 5)), draw(st.integers(1, 7))
    fields = (lottery_fields if protocol == "lottery" else auction_fields)(draw, count)
    return ScenarioConfig(
        protocol=protocol, seed=draw(st.integers(0, 2**32)), miners=miners,
        backend=draw(st.sampled_from(["ideal", "cheat:0.1", "cheat:0.5", "cheat:1"])),
        key_budget=draw(st.one_of(st.integers(1, 25), st.just(DEFAULT_BUDGET))),
        detail_log=draw(st.booleans()),
        byzantine_miners=draw(keyed(miners, st.sampled_from(MINER_SCRIPT_NAMES))),
        **fields)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(configs())
def test_every_config_ends_in_a_config_error_or_a_valid_report(config):
    try:
        report = run_scenario(config)
    except ConfigError as exc:
        assert exc.violations
        return
    validate_report(report)
    if 3 * len(config.byzantine_miners) < config.miners:
        assert report["assertions"]["honest_ledgers_consistent"] is True


# Policy and backend texts over the characters names, numbers and bits
# use: any such text, one of the field's names followed by any count of
# such fields, or by one or two numbers or bit strings.
TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789:.eE+-"
NAMES = {"backend": ["ideal", "cheat"], "lottery": list(PLAYER_POLICIES),
         "auction": list(BUYER_POLICIES)}
numbers = st.one_of(st.text("01", min_size=1, max_size=3), st.integers(0, 300).map(str),
                    st.floats(0, 1.5).map(str))


def texts(names):
    fields = st.one_of(st.lists(st.text(TEXT_ALPHABET, max_size=6), max_size=3),
                       st.lists(numbers, min_size=1, max_size=2))
    return st.one_of(st.text(TEXT_ALPHABET, max_size=12),
                     st.tuples(st.sampled_from(names), fields)
                     .map(lambda t: ":".join([t[0], *t[1]])))


@st.composite
def text_configs(draw):
    """A drawn policy text with the ideal backend, or a drawn backend
    text with an honest policy."""
    protocol = draw(st.sampled_from(["lottery", "auction"]))
    policy, backend = "honest", "ideal"
    if draw(st.booleans()):
        backend = draw(texts(NAMES["backend"]))
    else:
        policy = draw(texts(NAMES[protocol]))
    fields = (dict(players=3, ticket_bits=1, player_policies={"0": policy})
              if protocol == "lottery" else
              dict(buyers=3, bid_width=8, buyer_policies={"0": policy}))
    return ScenarioConfig(protocol=protocol, miners=2, seed=1, backend=backend, **fields)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(text_configs())
def test_every_policy_and_backend_text_ends_in_a_config_error_or_a_valid_report(config):
    try:
        report = run_scenario(config)
    except ConfigError as exc:
        assert exc.violations
        return
    validate_report(report)
