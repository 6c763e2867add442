"""Property: every generated lottery or auction config either fails with
a ConfigError or runs to a schema-valid report whose honest ledgers
agree while fewer than a third of the miners are Byzantine."""

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from qbsim import runtime
from qbsim.auction import BUYER_POLICIES, SELLER_POLICIES
from qbsim.consensus import MINER_SCRIPT_NAMES
from qbsim.errors import ConfigError
from qbsim.keystore import DEFAULT_BUDGET
from qbsim.lottery import CHEAT_POLICIES, PLAYER_POLICIES
from qbsim.scenario import ScenarioConfig, canonical_report_bytes, run_scenario, validate_report


def keyed(count, values, every=False):
    """Policies for a subset of `count` parties, or for every one, keyed
    by index text."""
    if every:
        return st.fixed_dictionaries({str(i): values for i in range(count)})
    return st.dictionaries(st.integers(0, count - 1).map(str), values, max_size=count)


def policies(table, value, flips=False):
    """Each policy of a protocol's table as a config text, its values
    drawn from `value`; with `flips`, a policy's values differ, so one
    that opens another value than it committed always does."""
    def drawn(count):
        if flips:
            return st.lists(value, min_size=count, max_size=count, unique=True)
        return st.tuples(*[value] * count)

    return st.one_of([drawn(len(slots)).map(
        lambda values, name=name: ":".join([name, *map(str, values)]))
        for name, slots in table.items()])


def lottery_fields(draw, count, flips):
    ticket_bits = draw(st.integers(1, 8))
    policy = policies(PLAYER_POLICIES, st.text("01", min_size=ticket_bits, max_size=ticket_bits),
                      flips)
    return dict(players=count, ticket_bits=ticket_bits,
                player_policies=draw(keyed(count, policy, flips)),
                cheat_policy=draw(st.sampled_from(CHEAT_POLICIES)))


def auction_fields(draw, count, flips):
    bid_width = draw(st.integers(1 + flips, 8))  # two distinct bids need two bits
    policy = policies(BUYER_POLICIES, st.integers(1, (1 << bid_width) - 1), flips)
    return dict(buyers=count, bid_width=bid_width,
                buyer_policies=draw(keyed(count, policy, flips)),
                seller_policy=draw(st.sampled_from(SELLER_POLICIES)))


@st.composite
def configs(draw, flips=False):
    """A lottery or auction config; with `flips`, every party draws a
    policy and every changing policy changes its value."""
    protocol = draw(st.sampled_from(["lottery", "auction"]))
    count, miners = draw(st.integers(2, 5)), draw(st.integers(1, 7))
    fields = (lottery_fields if protocol == "lottery" else auction_fields)(draw, count, flips)
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


def with_scheduler_seed(config, scheduler_seed):
    """The canonical report bytes of `config` run with the scheduler seed
    replaced and every other substream left alone."""
    real = runtime.derive_seed

    def derive_seed(seed, *path):
        return scheduler_seed if path == ("scheduler",) else real(seed, *path)

    with mock.patch.object(runtime, "derive_seed", derive_seed):
        return canonical_report_bytes(run_scenario(config))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(configs(flips=True).map(lambda c: replace(c, detail_log=False,
                                                  key_budget=DEFAULT_BUDGET)),
       st.integers(0, 2**63 - 1))
def test_summary_bytes_do_not_depend_on_the_scheduler_seed(config, scheduler_seed):
    """Within a round the order of deliveries is no protocol input: every
    player, buyer and seller policy, backend and miner script reads the
    same outcome under any interleaving. Link hooks, which can delay a
    message on purpose, are the one exception and are not drawn here."""
    try:
        expected = canonical_report_bytes(run_scenario(config))
    except ConfigError:
        return
    assert with_scheduler_seed(config, scheduler_seed) == expected
