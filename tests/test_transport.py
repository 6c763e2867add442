"""Authenticated network behavior: determinism, hooks, one-time keys."""

import random
from types import SimpleNamespace

import pytest

from oracles import report_v2
from qbsim import auction, keystore, lottery
from qbsim.errors import KeyExhaustionError, QbsimError, UnknownPartyError
from qbsim.eventlog import EventLog
from qbsim.keystore import KeyStore
from qbsim.mac import PolyMac
from qbsim.parties import miner, player
from qbsim.scenario import ScenarioConfig, canonical_report_bytes, run_scenario
from qbsim.transport import Delivery, Network


def make_net(seed=1, budget=512, detail=True, parties=None):
    parties = parties or [player(0), player(1), miner(0), miner(1)]
    log = EventLog(detail=detail)
    net = Network(parties, KeyStore(seed, budget=budget), scheduler_seed=seed, log=log)
    return net, log


def deliver_all(net) -> list:
    """Every delivery until the network is empty, failed ones included:
    what `drain` does, keeping what it hands out."""
    out = []
    while net.pending:
        delivery = net.deliver_next()
        if delivery is not None:
            out.append(delivery)
    return out


def test_send_then_deliver_unmodified_verifies():
    net, log = make_net()
    net.send_authenticated(player(0), miner(0), b"hello")
    d = net.deliver_next()
    assert d.ok and d.payload == b"hello"
    assert d.sender == player(0) and d.receiver == miner(0)
    assert log.counters["deliver"] == 1


def test_unknown_party_and_self_send_rejected():
    net, _ = make_net()
    with pytest.raises(UnknownPartyError):
        net.send_authenticated(player(0), player(9), b"x")
    with pytest.raises(QbsimError):
        net.send_authenticated(player(0), player(0), b"x")
    # the checks still hold once links from and to player 0 exist
    net.send_authenticated(player(0), miner(0), b"x")
    net.send_authenticated(miner(0), player(0), b"y")
    with pytest.raises(UnknownPartyError):
        net.send_authenticated(player(0), player(9), b"x")
    with pytest.raises(UnknownPartyError):
        net.send_authenticated(player(9), miner(0), b"x")
    with pytest.raises(QbsimError):
        net.send_authenticated(player(0), player(0), b"x")
    assert net.pending == 2


def test_hook_on_a_pair_with_an_unknown_party_rejected():
    net, _ = make_net()
    with pytest.raises(UnknownPartyError):
        net.set_hook(player(0), miner(9), lambda m: ("drop",))
    with pytest.raises(UnknownPartyError):
        net.set_hook(player(9), miner(0), lambda m: ("drop",))


def test_bit_flip_hook_fails_verification_and_drops_payload():
    net, log = make_net()
    net.set_hook(player(0), miner(0),
                 lambda m: ("modify", bytes([m.payload[0] ^ 0x01]) + m.payload[1:]))
    net.send_authenticated(player(0), miner(0), b"hello")
    d = net.deliver_next()
    assert not d.ok and d.payload is None
    assert log.counters["auth_failure"] == 1


def test_per_link_fifo_order():
    net, _ = make_net()
    net.send_authenticated(player(0), miner(0), b"first")
    net.send_authenticated(player(0), miner(0), b"second")
    assert net.deliver_next().payload == b"first"
    assert net.deliver_next().payload == b"second"


def test_same_seed_same_interleaving():
    def run(seed):
        net, _ = make_net(seed=seed)
        for i in range(10):
            net.send_authenticated(player(0), miner(0), bytes([i]))
            net.send_authenticated(player(1), miner(1), bytes([i]))
        out = []
        net.drain(lambda d: out.append(d.payload + bytes([d.receiver.index])))
        return out

    assert run(5) == run(5)
    # different seeds give a different interleaving (overwhelmingly)
    assert run(5) != run(6)


def test_delay_hook_holds_message_for_scripted_steps():
    net, _ = make_net()
    net.set_hook(player(0), miner(0), lambda m: ("delay", 3))
    net.send_authenticated(player(0), miner(0), b"late")
    results = []
    for _ in range(6):
        results.append(net.deliver_next())
        if results[-1] is not None and results[-1].ok:
            break
    # the first attempt triggers the hold; delivery happens 3 steps later
    assert results[:3] == [None, None, None]
    delivered_at = next(i for i, r in enumerate(results) if r is not None)
    assert delivered_at == 3
    assert results[delivered_at].payload == b"late"


def test_drop_hook_discards():
    net, log = make_net()
    net.set_hook(player(0), miner(0), lambda m: ("drop",))
    net.send_authenticated(player(0), miner(0), b"gone")
    handed = []
    assert net.drain(handed.append) is None
    assert handed == [] and net.pending == 0
    assert log.counters["adversary_drop"] == 1


def test_one_time_key_blocks_never_reused():
    net, log = make_net()
    for _ in range(20):
        net.send_authenticated(player(0), miner(0), b"m")
        net.send_authenticated(miner(0), player(0), b"r")
    net.drain()
    sends = log.of_kind("send")
    seen = set()
    for record in sends:
        pair = tuple(sorted((record["sender"], record["receiver"])))
        key = (pair, record["key_index"])
        assert key not in seen
        seen.add(key)
    assert net.keystore.consume(player(0), miner(0)) == 40


def test_key_exhaustion_raises():
    net, _ = make_net(budget=3)
    for _ in range(3):
        net.send_authenticated(player(0), miner(0), b"m")
    with pytest.raises(KeyExhaustionError):
        net.send_authenticated(player(0), miner(0), b"m")


# KeyStore(7) blocks of the pair player:0 / miner:2, on both sides of the
# 64-block seed boundaries
PINNED_BLOCKS = {
    0: "38f37c00025c8531f44524696076c302",
    1: "c3ab73668f3c055cdf6ae512bd153e26",
    63: "7e7cdf18973d64ec5545feabac257d65",
    64: "f8db18320b6fa3af84147336e792c6e1",
    65: "96ebbb76f98bdd2f31319dd550d7a16f",
    127: "5ba3c501fe2f9ddae2864721ee48d7ad",
    128: "9714062939794c4f7a8fc2dedbb11f94",
}


def test_key_blocks_are_pinned_in_both_orders_of_the_pair():
    store = KeyStore(7)
    for _ in range(129):
        store.consume(player(0), miner(2))
    for index, block in PINNED_BLOCKS.items():
        assert store.block_at(player(0), miner(2), index).hex() == block
        assert store.block_at(miner(2), player(0), index).hex() == block


def test_mac_key_derived_once_per_message(monkeypatch):
    """A key is derived once for each message a hook sees, from the block
    its index names, and for no message on a link without a hook."""
    derive, calls = PolyMac.key_from_block, []
    monkeypatch.setattr(PolyMac, "key_from_block",
                        lambda self, block: calls.append(block) or derive(self, block))
    net, log = make_net()
    net.set_hook(player(1), miner(1), lambda m: ("drop",))
    for i in range(5):
        net.send_authenticated(player(0), miner(0), bytes([i]))
        net.send_authenticated(player(1), miner(1), bytes([i]))
    delivered = deliver_all(net)
    assert len(delivered) == 5 and all(d.ok for d in delivered)
    assert log.counters["send"] == 10
    store = KeyStore(1, budget=512)
    assert calls == [store.block_at(player(1), miner(1), store.consume(player(1), miner(1)))
                     for _ in range(5)]


def test_delivery_refuses_a_key_index_never_issued():
    net, _ = make_net()

    def forge(msg):
        msg.key_index = 99

    net.set_hook(player(0), miner(0), forge)
    net.send_authenticated(player(0), miner(0), b"m")
    with pytest.raises(KeyExhaustionError, match="never issued"):
        net.deliver_next()


def count_calls(monkeypatch, *targets) -> dict:
    """Each `(owner, name)` in `targets` wrapped to count its calls under
    `name`; the counts start at 0."""
    calls = {}
    for owner, name in targets:
        original, calls[name] = getattr(owner, name), 0

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_layer_calls_per_message(monkeypatch):
    """The per-layer counts that the benchmark's span tracer reads: one
    key block spent per send; for each message a hook sees, one block read,
    one key derivation and one tag before the hook; and for each of those
    that reaches verification, one index check and one verification, which
    tags again. A message on a link without a hook is read, tagged and
    verified nowhere."""
    calls = count_calls(monkeypatch, (KeyStore, "consume"), (KeyStore, "block_at"),
                        (PolyMac, "key_from_block"), (PolyMac, "tag"), (PolyMac, "verify"))
    parties = [miner(i) for i in range(10)]
    net, log = make_net(parties=parties)
    net.set_hook(miner(0), miner(1), lambda m: ("drop",))
    net.set_hook(miner(2), miner(3), lambda m: ("modify", m.payload + b"!"))
    for sender in parties:
        for receiver in parties:
            if sender != receiver:
                net.send_authenticated(sender, receiver, bytes([sender.index, receiver.index]))
    delivered = deliver_all(net)
    sends, hooked, verified = 90, 2, 1  # the dropped message never reaches verification
    assert log.counters["send"] == sends and len(delivered) == sends - 1
    assert [d.receiver for d in delivered if not d.ok] == [miner(3)]
    assert calls == {"consume": sends, "key_from_block": hooked, "block_at": hooked + verified,
                     "verify": verified, "tag": hooked + verified}


def test_an_unhooked_link_reads_derives_and_tags_nothing(monkeypatch):
    """A message on a link without a hook is delivered as it was sent: no
    SHAKE expansion, no key derivation, no tag, no verification."""
    monkeypatch.setattr(keystore, "hashlib", SimpleNamespace(shake_256=keystore.hashlib.shake_256))
    calls = count_calls(monkeypatch, (keystore.hashlib, "shake_256"),
                        (PolyMac, "key_from_block"), (PolyMac, "tag"), (PolyMac, "verify"))
    net, log = make_net()
    for i in range(5):
        net.send_authenticated(player(0), miner(0), bytes([i]))
        net.broadcast(miner(1), [player(0), player(1), miner(0)], bytes([i]))
    delivered = deliver_all(net)
    assert len(delivered) == log.counters["deliver"] == 20 and all(d.ok for d in delivered)
    assert calls == {"shake_256": 0, "key_from_block": 0, "tag": 0, "verify": 0}
    run_scenario(ScenarioConfig(protocol="lottery", players=3, ticket_bits=8, miners=4, seed=2))
    assert calls == {"shake_256": 0, "key_from_block": 0, "tag": 0, "verify": 0}


def test_a_hook_set_after_the_send_sees_a_tagged_message():
    net, log = make_net()
    msg_id = net.send_authenticated(player(0), miner(0), b"hello")
    seen = []

    def forge(msg):
        seen.append((msg.msg_id, msg.tag))
        return ("modify", b"hellp")

    net.set_hook(player(0), miner(0), forge)
    d = net.deliver_next()
    store = KeyStore(1, budget=512)
    key = PolyMac().key_from_block(store.block_at(player(0), miner(0),
                                                  store.consume(player(0), miner(0))))
    assert seen == [(msg_id, PolyMac().tag(key, b"hello"))]
    assert not d.ok and d.payload is None
    assert log.counters["auth_failure"] == 1


def test_a_hook_can_neither_untag_nor_retag_a_message():
    """Clearing the tag, or rewriting the payload in place and asking for
    a second look, does not get a forged payload verified: whether a
    message is verified, and under which tag, is fixed at the first look."""
    net, log = make_net()

    def untag(msg):
        msg.tag = None
        return ("modify", b"forged")

    looks = []

    def retag(msg):
        looks.append(msg.tag)
        if len(looks) == 1:
            msg.payload, msg.hook_done = b"forged", False
            return ("delay", 1)

    net.set_hook(player(0), miner(0), untag)
    net.set_hook(player(0), miner(1), retag)
    net.send_authenticated(player(0), miner(0), b"hello")
    net.send_authenticated(player(0), miner(1), b"hello")
    assert [d.ok for d in deliver_all(net)] == [False, False]
    assert len(looks) == 2 and looks[0] == looks[1] is not None
    assert log.counters["auth_failure"] == 2


def test_a_delayed_message_verifies_when_it_is_released(monkeypatch):
    verified = []
    verify = PolyMac.verify
    monkeypatch.setattr(PolyMac, "verify", lambda self, key, payload, tag: verified.append(
        verify(self, key, payload, tag)) or verified[-1])
    net, log = make_net()
    net.set_hook(player(0), miner(0), lambda m: ("delay", 2))
    net.send_authenticated(player(0), miner(0), b"late")
    assert [net.deliver_next() for _ in range(2)] == [None, None] and verified == []
    d = net.deliver_next()
    assert d.ok and d.payload == b"late" and verified == [True]
    assert log.counters["deliver"] == 1 and "auth_failure" not in log.counters


@pytest.mark.parametrize("config", [
    ScenarioConfig(protocol="lottery", players=3, ticket_bits=8, miners=4, seed=5,
                   byzantine_miners={"3": "equivocate"}),
    ScenarioConfig(protocol="auction", buyers=3, miners=4, seed=5,
                   buyer_policies={"0": "complain:5"}),
], ids=["lottery", "auction"])
def test_a_pass_through_hook_on_every_link_changes_no_report_byte(monkeypatch, config):
    """With a hook that passes every message on every link, each message is
    tagged and verified, and the report is byte for byte the unhooked one."""
    unhooked = canonical_report_bytes(run_scenario(config))
    calls = count_calls(monkeypatch, (PolyMac, "tag"), (PolyMac, "verify"))
    for module in (lottery, auction):
        def hooked_context(*args, _make=module.make_context, **kwargs):
            ctx = _make(*args, **kwargs)
            net = ctx.network
            for sender in net.parties:
                for receiver in net.parties - {sender}:
                    net.set_hook(sender, receiver, lambda msg: None)
            return ctx
        monkeypatch.setattr(module, "make_context", hooked_context)
    report = run_scenario(config)
    assert canonical_report_bytes(report) == unhooked
    sends = report["event_counters"]["send"]
    assert calls == {"tag": 2 * sends, "verify": sends}


def test_delivery_refuses_a_negative_key_index():
    net, _ = make_net()
    net.set_hook(player(0), miner(0), lambda msg: setattr(msg, "key_index", -1))
    net.send_authenticated(player(0), miner(0), b"m")
    with pytest.raises(KeyExhaustionError, match="never issued"):
        net.deliver_next()


def test_delivery_is_the_named_tuple():
    net, _ = make_net()
    msg_id = net.send_authenticated(player(0), miner(0), b"hello")
    d = net.deliver_next()
    assert type(d) is Delivery
    assert d == Delivery(msg_id, player(0), miner(0), b"hello", True)
    assert (d.msg_id, d.sender, d.receiver, d.payload, d.ok) == tuple(d)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99991])
def test_scheduler_draws_are_randrange_draws(seed):
    """The scheduler picks a slot of its active-link list with the draws
    `random.Random(seed).randrange(n)` makes, here for every n from 300
    down to 1: one message on each of 300 links, and a link leaves the
    list, its slot taken by the last link, once its FIFO is empty."""
    receivers = [miner(i) for i in range(1, 301)]
    net, _ = make_net(seed=seed, parties=[miner(0), *receivers])
    for receiver in receivers:
        net.send_authenticated(miner(0), receiver, b"x")
    order = []
    net.drain(lambda d: order.append(d.receiver))

    rng, active, expected = random.Random(seed), list(receivers), []
    while active:
        slot = rng.randrange(len(active))
        expected.append(active[slot])
        last = active.pop()
        if slot < len(active):
            active[slot] = last
    assert order == expected


def scripted_traffic(net, send_to_all):
    """Two broadcasts, one of them to a dropped and a forged link, and
    single sends around them; `send_to_all` sends one payload to many.
    The pair of player 0 and miner 0 spends key block 0 before the first
    broadcast."""
    net.set_hook(miner(0), player(1), lambda m: ("drop",))
    net.set_hook(miner(0), miner(1), lambda m: ("modify", b"forged"))
    net.send_authenticated(player(0), miner(0), b"before")
    send_to_all(net, miner(0), [player(0), player(1), miner(1)], b"vote")
    send_to_all(net, player(1), [miner(1), miner(0)], b"list")
    net.send_authenticated(miner(1), player(0), b"after")
    return deliver_all(net)


def one_by_one(net, sender, receivers, payload):
    for receiver in receivers:
        net.send_authenticated(sender, receiver, payload)


def test_broadcast_is_its_single_sends_on_one_record():
    """Same deliveries, keys, tags and counters as one send per receiver;
    the broadcast records expand to exactly the single sends' records."""
    single_net, single_log = make_net(seed=3)
    single = scripted_traffic(single_net, one_by_one)
    net, log = make_net(seed=3)
    broadcast = scripted_traffic(net, Network.broadcast)
    assert broadcast == single
    assert sorted(d.ok for d in broadcast) == [False] + [True] * 5  # 7 sent, 1 dropped
    assert log.counters == single_log.counters and log.counters["send"] == 7
    assert report_v2({"event_log": log.records})["event_log"] == single_log.records
    vote = next(rec for rec in log.records if rec["event"] == "broadcast")
    deliveries = {rec["msg_id"]: rec["delivered"] for rec in single_log.records
                  if "delivered" in rec}
    assert vote == {"seq": 1, "event": "broadcast", "sender": "miner:0", "msg_id": 1,
                    "payload": b"vote".hex(),
                    "to": [["player:0", 1, deliveries[1]], ["player:1", 0], ["miner:1", 0]]}
    assert "broadcast" not in log.counters


def test_broadcast_in_summary_mode_and_to_nobody_writes_no_record():
    net, log = make_net(detail=False)
    net.broadcast(miner(0), [player(0), player(1)], b"vote")
    assert log.counters == {"send": 2} and log.records == []
    net, log = make_net()
    net.broadcast(miner(0), [], b"vote")
    assert log.counters == {} and log.records == [] and net.pending == 0


def test_refused_broadcast_leaves_no_empty_record():
    net, log = make_net()
    with pytest.raises(UnknownPartyError):
        net.broadcast(miner(0), [player(9), player(0)], b"vote")
    assert log.records == [] and net.pending == 0
    with pytest.raises(QbsimError):  # refused at its second receiver: one message sent
        net.broadcast(miner(0), [player(0), miner(0)], b"vote")
    (record,) = log.records
    assert record["to"] == [["player:0", 0]] and net.pending == 1
    net.send_authenticated(player(0), miner(0), b"alone")
    assert log.records[-1]["event"] == "send"  # the broadcast is closed
