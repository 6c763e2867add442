"""Deterministic simulated network with authenticated pairwise channels.

Every message is tagged with a one-time MAC keyed from the sending
pair's key stream. Delivery order is drawn from a seeded scheduler:
per-link FIFO, random interleaving across links, so one seed fixes the
whole global event order. Adversary hooks may drop, modify or delay a
message at its first delivery attempt; a modified payload simply fails
verification and is logged as a forgery attempt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections import deque

from .errors import QbsimError, UnknownPartyError
from .eventlog import EventLog
from .keystore import KeyStore
from .mac import PolyMac
from .parties import PartyId


class _Message:
    __slots__ = ("msg_id", "sender", "receiver", "payload", "key_index", "tag", "hook_done")

    def __init__(self, msg_id, sender, receiver, payload, key_index, tag):
        self.msg_id = msg_id
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.key_index = key_index
        self.tag = tag
        self.hook_done = False


@dataclass(frozen=True)
class Delivery:
    """What deliver_next hands back: payload only when the tag verified."""

    msg_id: int
    sender: PartyId
    receiver: PartyId
    payload: bytes | None
    ok: bool


# Hook actions: None/"deliver" pass through; ("drop",) discards;
# ("modify", payload) substitutes the payload, keeping the old tag;
# ("delay", k) holds the message for k delivery steps.


class Network:
    def __init__(self, parties, keystore: KeyStore, scheduler_seed: int, log: EventLog):
        self.parties = set(parties)
        self.keystore = keystore
        self.mac = PolyMac()
        self.log = log
        self._rng = random.Random(scheduler_seed)
        self._queues: dict[tuple[PartyId, PartyId], deque] = {}
        self._active: list[tuple[PartyId, PartyId]] = []
        self._active_pos: dict[tuple[PartyId, PartyId], int] = {}
        self._held: list[tuple[int, _Message]] = []  # (release_step, message)
        self._hooks: dict[tuple[PartyId, PartyId], object] = {}
        # (r, s) of each message in flight, derived once at send and kept
        # out of the message object that adversary hooks see
        self._keys: dict[int, tuple[int, int]] = {}
        self._next_id = 0
        self._step = 0
        self._pending = 0

    # ------------------------------------------------------------ hooks

    def set_hook(self, sender: PartyId, receiver: PartyId, hook):
        self._hooks[(sender, receiver)] = hook

    # ---------------------------------------------------------- sending

    def send_authenticated(self, sender: PartyId, receiver: PartyId, payload: bytes) -> int:
        if sender not in self.parties or receiver not in self.parties:
            raise UnknownPartyError(f"unknown party in {sender} -> {receiver}")
        if sender == receiver:
            raise QbsimError("self-addressed messages are not routed")
        key_index, block = self.keystore.consume(sender, receiver)
        key = self.mac.key_from_block(block)
        tag = self.mac.tag(key, payload)
        msg = _Message(self._next_id, sender, receiver, payload, key_index, tag)
        self._keys[msg.msg_id] = key
        self._next_id += 1
        link = (sender, receiver)
        queue = self._queues.get(link)
        if queue is None:
            queue = self._queues[link] = deque()
        if not queue:
            self._activate(link)
        queue.append(msg)
        self._pending += 1
        if self.log.detail:
            self.log.append("send", sender=str(sender), receiver=str(receiver),
                            msg_id=msg.msg_id, size=len(payload),
                            key_index=key_index, payload=payload.hex())
        else:
            self.log.note("send")
        return msg.msg_id

    # --------------------------------------------------------- delivery

    def _deactivate(self, link):
        pos = self._active_pos.pop(link)
        last = self._active.pop()
        if last != link:
            self._active[pos] = last
            self._active_pos[last] = pos

    def _activate(self, link):
        if link not in self._active_pos:
            self._active_pos[link] = len(self._active)
            self._active.append(link)

    def _release_held(self):
        if not self._held:
            return
        still = []
        for release_at, msg in self._held:
            if release_at <= self._step:
                link = (msg.sender, msg.receiver)
                queue = self._queues.setdefault(link, deque())
                queue.appendleft(msg)
                self._activate(link)
            else:
                still.append((release_at, msg))
        self._held = still

    @property
    def pending(self) -> int:
        return self._pending

    def deliver_next(self) -> Delivery | None:
        """One scheduler step: at most one message reaches its receiver."""
        self._step += 1
        self._release_held()
        if not self._active:
            return None
        link = self._active[self._rng.randrange(len(self._active))]
        queue = self._queues[link]
        msg = queue.popleft()
        if not queue:
            self._deactivate(link)

        hook = self._hooks.get(link)
        if hook is not None and not msg.hook_done:
            msg.hook_done = True
            action = hook(msg)
            if action is not None and action != "deliver":
                kind = action[0]
                if kind == "drop":
                    self._pending -= 1
                    del self._keys[msg.msg_id]
                    self.log.append("adversary_drop", msg_id=msg.msg_id,
                                    sender=str(msg.sender), receiver=str(msg.receiver))
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
        # both ends hold the same issued block, so the key derived at send
        # is the receiver's key too; block_at still refuses an unissued index
        self.keystore.block_at(msg.sender, msg.receiver, msg.key_index)
        ok = self.mac.verify(self._keys.pop(msg.msg_id), msg.payload, msg.tag)
        if ok:
            if self.log.detail:
                self.log.append("deliver", sender=str(msg.sender),
                                receiver=str(msg.receiver), msg_id=msg.msg_id)
            else:
                self.log.note("deliver")
            return Delivery(msg.msg_id, msg.sender, msg.receiver, msg.payload, True)
        self.log.append("auth_failure", sender=str(msg.sender), receiver=str(msg.receiver),
                        msg_id=msg.msg_id)
        return Delivery(msg.msg_id, msg.sender, msg.receiver, None, False)

    def drain(self, handler=None) -> list[Delivery]:
        """Deliver until the network is empty; dispatch verified payloads."""
        out = []
        while self.pending:
            delivery = self.deliver_next()
            if delivery is None:
                continue
            out.append(delivery)
            if handler is not None and delivery.ok:
                handler(delivery)
        return out
