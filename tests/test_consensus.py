"""Agreement, validity, termination; exhaustive equivocator sweep at n=4."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbsim.consensus import (
    BOT,
    SCRIPTS,
    CodecDomain,
    adopt,
    plurality,
    run_consensus,
    tolerated_faults,
)
from qbsim.encoding import decode_payload, decode_ticket_list
from qbsim.errors import ConsensusUsageError, EncodingError
from qbsim.eventlog import EventLog
from qbsim.keystore import KeyStore
from qbsim.lottery import LotteryParams, lottery_violations, run_lottery
from qbsim.parties import miner
from qbsim.rng import generator
from qbsim.scenario import ScenarioConfig, run_scenario
from qbsim.transport import Network

from oracles import ExplicitDomain


def build(n, seed=1, detail=False):
    miners = [miner(i) for i in range(n)]
    log = EventLog(detail=detail)
    net = Network(miners, KeyStore(seed), scheduler_seed=seed, log=log)
    return miners, net, log


def test_usage_errors():
    miners, net, log = build(2, detail=True)
    domain = ExplicitDomain([b"a", b"b"])
    with pytest.raises(ConsensusUsageError):  # outside the domain
        run_consensus({miners[0]: b"a", miners[1]: b"z"}, {}, net, domain)
    with pytest.raises(ConsensusUsageError):  # both honest and Byzantine
        run_consensus({miners[0]: b"a", miners[1]: b"a"},
                      {miners[1]: SCRIPTS["silent"](None, [])}, net, domain)
    assert log.counters == {}  # refused before anything was sent


def test_all_honest_identical_input_decides_in_phase_one():
    miners, net, log = build(4)
    result = run_consensus({m: b"v" for m in miners}, {}, net, ExplicitDomain([b"v"]))
    assert all(result.decisions[m] == b"v" for m in miners)
    assert result.decision_phase == 1
    assert not result.guarantees_void


def test_one_equivocator_among_four_cannot_shake_identical_honest_inputs():
    rng = generator(3, "byz")
    miners, net, log = build(4, seed=3)
    byz = miners[0]  # also the king of phase 1
    result = run_consensus({m: b"v" for m in miners if m != byz},
                           {byz: SCRIPTS["equivocate"](rng, [b"v", b"w"])}, net,
                           ExplicitDomain([b"v", b"w"]))
    assert all(result.decisions[m] == b"v" for m in result.honest)
    assert result.decision_phase <= 2  # f_actual + 1


def test_boundary_f_equals_n_over_3_flags_guarantees_void():
    miners, net, log = build(3)
    result = run_consensus({m: b"v" for m in miners[1:]},
                           {miners[0]: SCRIPTS["silent"](None, [b"v"])}, net,
                           ExplicitDomain([b"v"]))
    assert result.guarantees_void


def test_single_miner_decides_its_own_input():
    miners, net, log = build(1)
    result = run_consensus({miners[0]: b"solo"}, {}, net, ExplicitDomain([b"solo"]))
    assert result.decisions[miners[0]] == b"solo"


def test_two_honest_miners_with_conflicting_inputs_agree_on_bot():
    miners, net, log = build(2)
    result = run_consensus({miners[0]: b"a", miners[1]: b"b"}, {}, net,
                           ExplicitDomain([b"a", b"b"]))
    decisions = set(result.decisions.values())
    assert len(decisions) == 1
    assert decisions == {BOT}


def test_codec_domain_accepts_valid_encodings_and_bot():
    domain = CodecDomain(decode_ticket_list)
    assert domain.contains(BOT)
    assert not domain.contains(b"\xff\xff junk")


# ------------------------------------------------- exhaustive adversary


SILENT = object()


def run_phase_exhaustive(byz_index: int, king_index: int, choices):
    """One phase of the pure rules at n=4, f_tol=1, honest all 'v'.

    choices: 9 entries over (3 rounds x 3 honest recipients), each
    b'v', b'w' or SILENT; silence counts as a BOT vote. Returns honest
    prefs at phase end."""
    threshold = 3  # n - f_tol
    honest = [i for i in range(4) if i != byz_index]
    it = iter(choices)
    byz_choice = {(round_, i): next(it) for round_ in (1, 2, 3) for i in honest}

    def inject(round_, i):
        c = byz_choice[(round_, i)]
        return BOT if c is SILENT else c

    def votes(round_, i, sent):
        """What honest i holds: each honest sender's value (None, the
        undecided marker, included) and the Byzantine one's choice."""
        return [sent[j] if j in sent else inject(round_, i) for j in range(4)]

    prefs = {i: b"v" for i in honest}
    prefs = {i: adopt(votes(1, i, prefs), threshold) for i in honest}
    best = {i: plurality(votes(2, i, prefs)) for i in honest}
    king_d = {king_index: best[king_index][0]} if king_index in best else {}
    return [d if count >= threshold else votes(3, i, king_d)[king_index]
            for i, (d, count) in best.items()]


@pytest.mark.parametrize("byz_index,king_index", [(0, 0), (3, 0)])
def test_exhaustive_equivocator_choices_cannot_break_persistence(byz_index, king_index):
    """With identical honest inputs, every possible per-recipient message
    choice of a single Byzantine miner (byzantine king included) leaves
    all honest preferences at the honest value after the phase. Phases
    compose from identical state, so this covers full runs."""
    alphabet = (b"v", b"w", SILENT)
    for choices in itertools.product(alphabet, repeat=9):
        prefs = run_phase_exhaustive(byz_index, king_index, choices)
        assert prefs == [b"v", b"v", b"v"], f"diverged under {choices}"


def test_adopt_needs_the_threshold():
    assert adopt([b"v", b"v", b"v", b"w"], 3) == b"v"
    assert adopt([BOT, BOT, BOT, b"v"], 3) == BOT
    assert adopt([b"v", b"v", b"w", BOT], 3) is None
    assert adopt([b"solo"], 1) == b"solo"


def test_plurality_ties_go_to_the_smallest_encoding():
    assert plurality([b"b", b"a", b"b", b"a"]) == (b"a", 2)
    assert plurality([b"w", b"v", b"w"]) == (b"w", 2)
    assert plurality([b"v", BOT]) == (BOT, 1)  # BOT is a concrete vote


def test_plurality_skips_undecided_markers():
    assert plurality([None, None, None, b"w"]) == (b"w", 1)
    assert plurality([None, b"v", None, b"v"]) == (b"v", 2)


def test_plurality_without_a_concrete_vote_is_bot():
    assert plurality([None, None, None]) == (BOT, 0)
    assert plurality([]) == (BOT, 0)


# --------------------------------------------------- randomized sweeps


def test_randomized_agreement_and_validity_small_sweep():
    rng = np.random.default_rng(42)
    candidates = [b"a", b"b", b"c", b"d"]
    script_factories = list(SCRIPTS.values())
    for trial in range(300):
        n = int(rng.choice([4, 7]))
        seed = int(rng.integers(0, 2**60))
        miners, net, log = build(n, seed=seed)
        f = int(rng.integers(0, tolerated_faults(n) + 1))
        byz = frozenset(rng.choice(n, size=f, replace=False).tolist())
        byz_miners = frozenset(miner(int(i)) for i in byz)
        scripts = {}
        for i, m in enumerate(sorted(byz_miners)):
            factory = script_factories[int(rng.integers(0, len(script_factories)))]
            scripts[m] = factory(generator(seed, "byz", i), candidates)
        same_input = rng.random() < 0.5
        common = candidates[int(rng.integers(0, len(candidates)))]
        inputs = {}
        for m in miners:
            if m in byz_miners:
                continue
            value = common if same_input else candidates[int(rng.integers(0, len(candidates)))]
            inputs[m] = value
        result = run_consensus(inputs, scripts, net, ExplicitDomain(candidates))
        honest_values = {result.decisions[m] for m in result.honest}
        assert len(honest_values) == 1, f"agreement violated on trial {trial}"
        if same_input:
            assert honest_values == {common}, f"validity violated on trial {trial}"
        assert result.decision_phase <= result.f_actual + 1


# -------------------------------------------------- searched adversary

POOL = (b"\x0f", b"\x33", b"\x55")  # pairwise 4 bits apart: a flip is never another input
FORGED = b"forged"


def flipped(value: bytes, bit: int) -> bytes:
    return (int.from_bytes(value, "big") ^ 1 << bit).to_bytes(len(value), "big")


TABLE_DOMAIN = ExplicitDomain([*POOL, *(flipped(v, b) for v in POOL for b in range(8)), FORGED])

# one table entry, what a Byzantine miner sends one recipient in one
# (phase, round); an input is named by its index among the honest inputs
ENTRY = st.one_of(
    st.just(("silent",)), st.just(("garbage",)), st.just(("bot",)),
    st.tuples(st.just("input"), st.integers(0, 5)),
    st.tuples(st.just("flip"), st.integers(0, 5), st.integers(0, 7)),
    st.just(("forged",)))


def table_script(table: dict, candidates: list):
    """The script that sends what `table` says for each (phase, round, recipient)."""
    def script(phase, round_, recipient):
        kind, *args = table[phase, round_, recipient.index]
        if kind == "silent":
            return None
        if kind == "garbage":
            return ("garbage",)
        if kind in ("bot", "forged"):
            return ("value", BOT if kind == "bot" else FORGED)
        value = candidates[args[0] % len(candidates)]
        return ("value", value if kind == "input" else flipped(value, args[1]))

    return script


@st.composite
def table_adversaries(draw):
    """(n, honest inputs, Byzantine tables): n in {4, 7}, at most f_tol
    Byzantine miners, each honest input from POOL, and one table entry
    per (phase, round, recipient) for each Byzantine miner."""
    n = draw(st.sampled_from([4, 7]))
    f = draw(st.integers(0, tolerated_faults(n)))
    byzantine = draw(st.lists(st.sampled_from(range(n)), min_size=f, max_size=f, unique=True))
    common = draw(st.one_of(st.none(), st.sampled_from(POOL)))
    inputs = {i: common or draw(st.sampled_from(POOL)) for i in range(n) if i not in byzantine}
    keys = [(phase, round_, recipient) for phase in range(1, tolerated_faults(n) + 2)
            for round_ in (1, 2, 3) for recipient in range(n)]
    tables = {i: dict(zip(keys, draw(st.lists(ENTRY, min_size=len(keys), max_size=len(keys)))))
              for i in sorted(byzantine)}
    return n, inputs, tables


def run_table_adversary(n, inputs, tables):
    miners, net, log = build(n)
    candidates = list(inputs.values())
    return run_consensus({miners[i]: value for i, value in inputs.items()},
                         {miners[i]: table_script(table, candidates)
                          for i, table in tables.items()}, net, TABLE_DOMAIN)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(table_adversaries())
def test_table_scripted_byzantine_miners_cannot_break_agreement(adversary):
    """Every Byzantine miner a table of what it sends whom, including
    bit-flipped inputs and a forged record the domain admits: while
    f <= f_tol the honest miners agree, and equal honest inputs are
    decided."""
    n, inputs, tables = adversary
    result = run_table_adversary(n, inputs, tables)
    decided = {result.decisions[m] for m in result.honest}
    assert len(decided) == 1
    if len(set(inputs.values())) == 1:
        assert decided == set(inputs.values())



def test_round_three_keeps_a_value_only_at_the_full_threshold():
    """n = 4 and a silent Byzantine king that, in its king's round, sends
    its own input to miners 2 and 3 only, then backs miner 3 in phase 2.
    Miner 3 then sees its plurality value with n - f_tol - 1 votes: a round
    3 that kept it there would end with two honest decisions. Found by a
    3,000-example table search against that weakened round 3."""
    keys = [(phase, round_, recipient) for phase in (1, 2) for round_ in (1, 2, 3)
            for recipient in range(4)]
    table = dict.fromkeys(keys, ("silent",))
    table.update({key: ("input", 0) for key in [(1, 3, 2), (1, 3, 3), (2, 1, 3), (2, 2, 3)]})
    result = run_table_adversary(4, {1: POOL[0], 2: POOL[0], 3: POOL[1]}, {0: table})
    assert len({result.decisions[m] for m in result.honest}) == 1

def test_same_seed_same_decision_and_transcript():
    def run(seed):
        miners, net, log = build(4, seed=seed, detail=True)
        rng = generator(seed, "byz")
        result = run_consensus({m: b"a" if m.index % 2 else b"b" for m in miners[1:]},
                               {miners[0]: SCRIPTS["equivocate"](rng, [b"a", b"b"])},
                               net, ExplicitDomain([b"a", b"b"]))
        return result.decisions, log.records

    assert run(17) == run(17)


# ------------------------------------------------ protocol-level wiring


def test_domain_checked_once_per_distinct_round_payload(monkeypatch):
    """During a 10-miner lottery the domain is checked once per proposal
    and at most once per distinct consensus payload delivered (a payload
    carries its phase and round), not once per delivery."""
    calls = []
    contains = CodecDomain.contains

    def counting_contains(self, value):
        calls.append(value)
        return contains(self, value)

    monkeypatch.setattr(CodecDomain, "contains", counting_contains)
    payloads = set()
    deliver_next = Network.deliver_next

    def recording_deliver_next(self):
        delivery = deliver_next(self)
        if delivery is not None and delivery.ok:
            try:
                if decode_payload(delivery.payload)["kind"] == "consensus":
                    payloads.add(delivery.payload)
            except EncodingError:
                pass
        return delivery

    monkeypatch.setattr(Network, "deliver_next", recording_deliver_next)
    config = ScenarioConfig(protocol="lottery", players=3, ticket_bits=8, miners=10, seed=0)
    report = run_scenario(config)
    assert report["event_counters"]["deliver"] == 816
    assert payloads
    assert len(calls) <= len(payloads) + 10


def test_callable_script_in_lottery_params_reaches_consensus():
    """A library user may map a Byzantine miner to a script itself; it
    passes validation and is the script consensus runs for that miner."""
    called = []

    def script(phase, round_, recipient):
        called.append((phase, round_, recipient))
        return ("garbage",)

    params = LotteryParams(players=3, ticket_bits=8, miners=4, seed=5,
                           byzantine_miners={miner(2): script})
    assert lottery_violations(params) == []
    result = run_lottery(params)
    assert {recipient for _, _, recipient in called} == {miner(0), miner(1), miner(3)}
    assert {(phase, round_) for phase, round_, _ in called} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert result.consensus.honest == (miner(0), miner(1), miner(3))
    assert result.consensus.decisions[miner(2)] is None
    assert result.honest_ledgers_consistent == (True, None)
    assert not result.outcome.aborted
