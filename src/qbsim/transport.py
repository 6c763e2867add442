"""Deterministic simulated network with authenticated pairwise channels.

Every message spends one block of the sending pair's one-time key
stream at send. Delivery order is drawn from a seeded scheduler:
per-link FIFO, random interleaving across links, so one seed fixes the
whole global event order. Adversary hooks may drop, modify or delay a
message at its first delivery attempt; a modified payload simply fails
verification and is logged as a forgery attempt.

The tag is computed only for a message that a hook sees: just before
the hook's first look, from the key block its `key_index` names, over
the payload as it was sent. Such a message is verified when it is
delivered. A link without a hook is an authentic channel in the model:
no adversary can act on its messages, so they carry no tag and are
delivered as they were sent.

A broadcast is one payload sent to several receivers in a row: one
authenticated message per receiver, as if each were sent alone. In
detail mode the messages share one `broadcast` record instead of one
`send` record each.
"""

from __future__ import annotations

import random
from collections import deque
from typing import NamedTuple

from .errors import QbsimError, UnknownPartyError
from .eventlog import EventLog
from .keystore import KeyStore
from .mac import PolyMac
from .parties import PartyId


class _Link:
    """One directed channel: its FIFO, its hook and its slot in the
    scheduler's active list (-1 while the FIFO is empty). Resolved once
    per (sender, receiver), so the party checks and the party names are
    paid per link, not per message."""

    __slots__ = ("sender", "receiver", "sender_name", "receiver_name", "queue", "hook", "pos")

    def __init__(self, sender: PartyId, receiver: PartyId):
        self.sender = sender
        self.receiver = receiver
        self.sender_name = str(sender)
        self.receiver_name = str(receiver)
        self.queue: deque[_Message] = deque()
        self.hook = None
        self.pos = -1


class _Message:
    __slots__ = ("msg_id", "link", "payload", "key_index", "tag", "hook_done", "record")

    def __init__(self, msg_id, link, payload, key_index):
        self.msg_id = msg_id
        self.link = link
        self.payload = payload
        self.key_index = key_index
        self.tag = None  # set just before a hook first sees the message
        self.hook_done = False
        self.record = None  # in detail mode, its send record or broadcast entry


class Delivery(NamedTuple):
    """What deliver_next hands back: payload only when the tag verified."""

    msg_id: int
    sender: PartyId
    receiver: PartyId
    payload: bytes | None
    ok: bool


# a Delivery built in C, without the generated Python `__new__`
_new_tuple = tuple.__new__


# Hook actions: None/"deliver" pass through; ("drop",) discards;
# ("modify", payload) substitutes the payload, keeping the old tag;
# ("delay", k) holds the message for k delivery steps.


class Network:
    def __init__(self, parties, keystore: KeyStore, scheduler_seed: int, log: EventLog):
        self.parties = set(parties)
        self.keystore = keystore
        self.mac = PolyMac()
        self.log = log
        # the scheduler's draws, made as `Random.randrange` makes them
        self._getrandbits = random.Random(scheduler_seed).getrandbits
        self._links: dict[tuple[PartyId, PartyId], _Link] = {}
        self._active: list[_Link] = []  # links with a non-empty FIFO
        self._held: list[tuple[int, _Message]] = []  # (release_step, message)
        # (r, s) of each message in flight that a hook has seen, kept out
        # of the message object that adversary hooks see: a message is
        # verified at delivery exactly when it has an entry here
        self._keys: dict[int, tuple[int, int]] = {}
        self._next_id = 0
        self._step = 0
        self._pending = 0
        self._to = None  # the `to` list of the broadcast being sent, in detail mode

    def _link(self, sender: PartyId, receiver: PartyId) -> _Link:
        link = self._links.get((sender, receiver))
        if link is None:
            if sender not in self.parties or receiver not in self.parties:
                raise UnknownPartyError(f"unknown party in {sender} -> {receiver}")
            if sender == receiver:
                raise QbsimError("self-addressed messages are not routed")
            link = self._links[(sender, receiver)] = _Link(sender, receiver)
        return link

    # ------------------------------------------------------------ hooks

    def set_hook(self, sender: PartyId, receiver: PartyId, hook):
        self._link(sender, receiver).hook = hook

    # ---------------------------------------------------------- sending

    def send_authenticated(self, sender: PartyId, receiver: PartyId, payload: bytes) -> int:
        link = self._links.get((sender, receiver)) or self._link(sender, receiver)
        key_index = self.keystore.consume(sender, receiver)
        log = self.log
        msg_id = self._next_id
        self._next_id = msg_id + 1
        if link.pos < 0:  # the FIFO was empty: the link joins the active list
            link.pos = len(self._active)
            self._active.append(link)
        msg = _Message(msg_id, link, payload, key_index)
        link.queue.append(msg)
        self._pending += 1
        to = self._to
        if not log.detail:
            log.note("send")
        elif to is None:
            msg.record = log.append("send", sender=link.sender_name, receiver=link.receiver_name,
                                    msg_id=msg_id, key_index=key_index, payload=payload.hex())
        else:
            log.note("send")
            msg.record = entry = [link.receiver_name, key_index]
            to.append(entry)
        return msg_id

    def broadcast(self, sender: PartyId, receivers, payload: bytes) -> None:
        """`send_authenticated(sender, receiver, payload)` for each of the
        `receivers` (a sequence) in turn, so key blocks, msg ids, seqs and
        scheduler draws are those of the single sends. In detail mode the
        messages share one record, `{event: "broadcast", seq, msg_id,
        sender, payload, to}`: entry k of `to` is `[receiver, key_index]`,
        plus the seq of its delivery once delivered, and its message took
        seq `seq + k` and msg id `msg_id + k`."""
        log = self.log
        if not (log.detail and receivers):
            for receiver in receivers:
                self.send_authenticated(sender, receiver, payload)
            return
        record = log.head("broadcast", sender=str(sender), msg_id=self._next_id,
                          payload=payload.hex(), to=[])
        self._to = to = record["to"]
        try:
            for receiver in receivers:
                self.send_authenticated(sender, receiver, payload)
        finally:
            self._to = None
            if not to:  # the first send was refused, so nothing was sent
                log.records.pop()

    # --------------------------------------------------------- delivery

    def _release_held(self):
        still = []
        for release_at, msg in self._held:
            if release_at <= self._step:
                link = msg.link
                link.queue.appendleft(msg)
                if link.pos < 0:
                    link.pos = len(self._active)
                    self._active.append(link)
            else:
                still.append((release_at, msg))
        self._held = still

    @property
    def pending(self) -> int:
        return self._pending

    def deliver_next(self) -> Delivery | None:
        """One scheduler step: at most one message reaches its receiver."""
        self._step += 1
        if self._held:
            self._release_held()
        active = self._active
        if not active:
            return None
        # Random._randbelow_with_getrandbits inlined: randrange's draws
        getrandbits = self._getrandbits
        n = len(active)
        k = n.bit_length()
        slot = getrandbits(k)
        while slot >= n:
            slot = getrandbits(k)
        link = active[slot]
        queue = link.queue
        msg = queue.popleft()
        if not queue:  # the link leaves the active list; the last one takes its slot
            pos, link.pos = link.pos, -1
            last = active.pop()
            if last is not link:
                active[pos] = last
                last.pos = pos

        if link.hook is not None and not msg.hook_done:
            msg.hook_done = True
            if msg.msg_id not in self._keys:  # the first look: tag the payload as sent
                block = self.keystore.block_at(link.sender, link.receiver, msg.key_index)
                key = self._keys[msg.msg_id] = self.mac.key_from_block(block)
                msg.tag = self.mac.tag(key, msg.payload)
            action = link.hook(msg)
            if action is not None and action != "deliver":
                kind = action[0]
                if kind == "drop":
                    self._pending -= 1
                    del self._keys[msg.msg_id]
                    self.log.append("adversary_drop", msg_id=msg.msg_id,
                                    sender=link.sender_name, receiver=link.receiver_name)
                    return None
                if kind == "modify":
                    msg.payload = action[1]
                elif kind == "delay":
                    self._held.append((self._step + int(action[1]), msg))
                    self.log.append("adversary_delay", msg_id=msg.msg_id, steps=int(action[1]))
                    return None
                else:
                    raise QbsimError(f"unknown hook action {action!r}")

        self._pending -= 1
        # a message a hook saw is checked: its index was issued, and its tag
        # verifies under the key derived before the hook saw it
        key = self._keys.pop(msg.msg_id, None)
        if key is None:
            ok = True
        else:
            self.keystore.block_at(link.sender, link.receiver, msg.key_index)
            ok = self.mac.verify(key, msg.payload, msg.tag)
        if ok:
            seq = self.log.note("deliver")
            # a delivery is stated once: on its send record or broadcast entry
            record = msg.record
            if record.__class__ is dict:
                record["delivered"] = seq
            elif record is not None:
                record.append(seq)
            return _new_tuple(Delivery, (msg.msg_id, link.sender, link.receiver,
                                         msg.payload, True))
        self.log.append("auth_failure", sender=link.sender_name, receiver=link.receiver_name,
                        msg_id=msg.msg_id)
        return _new_tuple(Delivery, (msg.msg_id, link.sender, link.receiver, None, False))

    def drain(self, handler=None) -> None:
        """Deliver until the network is empty; hand each verified delivery
        to `handler`."""
        deliver_next = self.deliver_next
        while self._pending:
            delivery = deliver_next()
            if delivery is not None and handler is not None and delivery.ok:
                handler(delivery)
