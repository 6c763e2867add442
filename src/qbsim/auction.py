"""Five-phase sealed-bid auction: bidding, opening, decision,
verification, publication.

Buyers commit their bids to the seller and to every miner, open to the
seller only, the seller picks the highest bid (ties drawn uniformly),
and each miner verifies the claim against the permuted losing-bid list
before consensus publishes the outcome.

Verification uses multiplicity-aware membership: each buyer claims the
first list slot carrying his value, the miner matches claimants against
slot multiplicities, and only genuine shortfalls blame the seller. A
plain existence check would let a seller drop one of two equal losing
bids undetected, and unconditional blame on any complaint would let a
lying buyer frame an honest seller; both checks close those holes while
keeping the message flow (claim lists travel miner -> buyers, openings
happen only toward the one miner handling the complaint, and only when
someone actually cheated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import BitString
from .consensus import BOT
from .encoding import MAX_BID_BITS, TAGS, decode_payload, decode_verification_output, encode
from .errors import ConfigError, QbsimError
from .parties import PartyId, buyer, miner, seller
from .runtime import (
    FinalizedRun,
    Policy,
    RunParams,
    SimContext,
    canonical_decimal,
    count_violations,
    finalize,
    make_context,
    parse_policy,
    policy_violations,
    run_violations,
    scripted_values,
)

DEFAULT_BID_WIDTH = 32


# --------------------------------------------------------------- policies

# each name with the placeholders of its values: `honest` draws a uniform
# bid, `fixed` commits and opens a chosen one, `change` commits one bid and
# tries to open another, and `complain` bids like `fixed` but complains in
# verification although its bid is listed, which exercises the
# false-accuser check
BUYER_POLICIES = {"honest": (), "fixed": ("V",), "change": ("V", "W"), "complain": ("V",)}
SELLER_POLICIES = ("honest", "wrong-winner", "inflate", "drop-loser")
_BID_DIGITS = len(str((1 << MAX_BID_BITS) - 1))


def _read_bid(text: str) -> int:
    """A bid in its one spelling (`canonical_decimal`), with no more
    digits than the widest bid has."""
    if not canonical_decimal(text, _BID_DIGITS):
        raise QbsimError(f"bids must be at most {_BID_DIGITS} ASCII digits "
                         "without a leading zero")
    return int(text)


def parse_buyer_policy(text: str) -> Policy:
    return parse_policy(text, "buyer", BUYER_POLICIES, _read_bid)


# ------------------------------------------------------------ pure pieces


def decide_winner(bids, rng) -> tuple[PartyId, int]:
    """Highest bid wins; ties drawn uniformly from the seeded generator."""
    if not bids:
        raise QbsimError("cannot decide a winner with no bids")
    top = max(value for _, value in bids)
    pool = [party for party, value in bids if value == top]
    return pool[int(rng.integers(0, len(pool)))], top


def permute_losing(bids, winner_index: int, rng) -> list[int]:
    """Uniformly random permutation of the losing bids multiset."""
    losing = [value for i, (_, value) in enumerate(bids) if i != winner_index]
    order = rng.permutation(len(losing))
    return [losing[int(i)] for i in order]


@dataclass(frozen=True)
class VerificationOutput:
    """A miner's verdict, its fields those of an `auction_outcome`
    record: `valid` with the published tuple, `bot` blaming the seller,
    or `no_bids` when every buyer was excluded and no bid is left. The
    outcome of a run whose miners agreed on no record is `no_consensus`."""

    verdict: str
    winning_bid: int | None = None
    winner: PartyId | None = None
    losing_bids: tuple | None = None
    cheater: PartyId | None = None

    valid = property(lambda self: self.verdict == "valid")

    @classmethod
    def bot(cls, cheater: PartyId) -> "VerificationOutput":
        return cls("bot", cheater=cheater)

    @classmethod
    def ok(cls, winning_bid: int, losing_bids, winner: PartyId) -> "VerificationOutput":
        return cls("valid", winning_bid, winner, tuple(losing_bids))

    def to_dict(self) -> dict:
        if self.verdict == "bot":
            return {"verdict": "bot", "cheater": str(self.cheater)}
        if not self.valid:
            return {"verdict": self.verdict}
        return {"verdict": "valid", "winning_bid": self.winning_bid,
                "winner": str(self.winner), "losing_bids": list(self.losing_bids)}


def output_from_body(body: bytes) -> VerificationOutput:
    fields = decode_verification_output(body)
    del fields["kind"]
    return VerificationOutput(**fields)


# ---------------------------------------------------------------- params


@dataclass
class AuctionParams(RunParams):
    buyers: int
    bid_width: int = DEFAULT_BID_WIDTH
    buyer_policies: dict[int, Policy] = field(default_factory=dict)
    seller_policy: str = "honest"

    @property
    def bid_cap(self) -> int:
        return (1 << self.bid_width) - 1


@dataclass(kw_only=True)
class AuctionRunResult(FinalizedRun):
    outcome: VerificationOutput
    per_miner_outputs: dict
    excluded_buyers: tuple
    false_accusers: tuple
    true_bids: dict
    degenerate_policy: bool = False


# -------------------------------------------------------------- protocol


def auction_violations(params: AuctionParams) -> list[str]:
    """Every limit `params` breaks; the maxima are the encodings' field
    widths."""
    out = [*count_violations("buyers", params.buyers, 2),
           *count_violations("bid_width", params.bid_width, 1, MAX_BID_BITS)]
    if params.seller_policy not in SELLER_POLICIES:
        out.append(f"seller policy must be {'|'.join(SELLER_POLICIES)}, "
                   f"got {params.seller_policy!r}")
    width_ok = 1 <= params.bid_width <= MAX_BID_BITS

    def bid_violations(i, bids):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in bids):
            return [f"buyer {i}: policy bids must be integers, got {bids!r}"]
        return [f"buyer {i} bid {v} outside [1, {params.bid_cap}]"
                for v in bids if width_ok and not 1 <= v <= params.bid_cap]
    out += policy_violations("buyer", params.buyer_policies, params.buyers, BUYER_POLICIES,
                             bid_violations)
    # a buyer and a miner: commit notice, claim list, response, and an
    # open request and opening for a complaint or a multiplicity conflict
    return out + run_violations(params, party_blocks=5)


def _seller_claim(params: AuctionParams, ctx: SimContext, accepted: dict):
    """The seller's decision on the accepted bids, with the scripted
    deviation applied to the honest claim and loser list.

    Returns (reported_winner, reported_bid, losing_list, degenerate); a
    policy that cannot deviate on these bids logs why and stays honest."""
    bids = sorted(accepted.items())
    parties = [b for b, _ in bids]
    true_winner, true_bid = decide_winner(bids, ctx.rng("seller", "tiebreak"))
    honest_losers = permute_losing(bids, parties.index(true_winner), ctx.rng("seller", "permute"))
    policy = params.seller_policy
    if policy == "honest":
        return true_winner, true_bid, honest_losers, False
    rng = ctx.rng("seller", "forgery")

    if policy == "wrong-winner":
        non_maximal = [(b, v) for b, v in bids if v < true_bid]
        reason = "no non-maximal bidder"
        if non_maximal:
            winner, bid = non_maximal[int(rng.integers(0, len(non_maximal)))]
            losing = permute_losing([(b, min(v, bid)) for b, v in bids], parties.index(winner),
                                    ctx.rng("seller", "permute2"))
            return winner, bid, losing, False
    elif policy == "inflate":
        reason = "no headroom above the true maximum"
        if true_bid < params.bid_cap:
            inflated = rng.integers(true_bid + 1, params.bid_cap + 1)
            return true_winner, inflated, honest_losers, False
    elif not honest_losers:  # drop-loser from here on
        reason = "no losing bids to drop"
    else:
        # replace one losing bid with another value <= the maximum
        victim_pos = int(rng.integers(0, len(honest_losers)))
        victim_value = honest_losers[victim_pos]
        substitutes = [v for v in honest_losers if v != victim_value]
        if not substitutes and true_bid != victim_value:
            substitutes = [true_bid]
        reason = "all values equal, drop would be unobservable"
        if substitutes:
            forged = list(honest_losers)
            forged[victim_pos] = substitutes[int(rng.integers(0, len(substitutes)))]
            return true_winner, true_bid, forged, False
    ctx.log.append("seller_policy_degenerate", policy=policy, reason=reason)
    return true_winner, true_bid, honest_losers, True


def run_auction(params: AuctionParams) -> AuctionRunResult:
    """The auction on `params`; first a `ConfigError` lists every limit
    `auction_violations` finds. Every run is entered here."""
    ConfigError.check(auction_violations(params))
    buyers = [buyer(i) for i in range(params.buyers)]
    miners = [miner(j) for j in range(params.miners)]
    s = seller()
    ctx = make_context(params.seed, [s] + buyers + miners, params.key_budget,
                       params.detail)
    commit_bids, open_bids = scripted_values(
        params.buyer_policies, params.buyers,
        lambda i: ctx.rng("buyer", i).integers(1, params.bid_cap + 1))
    width = params.bid_width

    # phase 1: every buyer commits his bid to the seller and to all miners
    ctx.log.append("phase", protocol="auction", phase=1, name="bidding")
    ids = {b: ctx.commit_to(b, [s] + miners, BitString.from_int(commit_bids[b.index], width),
                            params.backend)
           for b in buyers}
    ctx.network.drain()

    # phase 2: every buyer opens his bid to the seller only
    ctx.log.append("phase", protocol="auction", phase=2, name="opening")
    for i, b in enumerate(buyers):
        if open_bids[i] != commit_bids[i]:
            ctx.log.append("bid_change_attempt", buyer=str(b))
        ctx.network.send_authenticated(
            b, s, encode("open", commitment_id=ids[b][s],
                         claimed=BitString.from_int(open_bids[i], width)))

    revealed: dict[PartyId, BitString] = {}  # the openings the seller accepted

    def on_open_to_seller(delivery):
        result = ctx.adjudicate(delivery)
        if result.accepted:
            revealed[delivery.sender] = result.value

    ctx.network.drain(on_open_to_seller)
    accepted = {b: bits.value for b, bits in revealed.items()}
    excluded = tuple(b for b in buyers if b not in accepted)

    # phase 3: the seller decides the winner, if any bid was accepted
    ctx.log.append("phase", protocol="auction", phase=3, name="decision")
    degenerate, claim = False, None
    if accepted:
        *claim, degenerate = _seller_claim(params, ctx, accepted)

    # phase 4: per-miner verification; with no bid there is nothing to verify
    ctx.log.append("phase", protocol="auction", phase=4, name="verification")
    verification = _Verification(ctx, revealed, ids, {
        buyer(i) for i, policy in params.buyer_policies.items() if policy.name == "complain"})
    outputs: dict[PartyId, VerificationOutput] = {}
    for m in miners:
        outputs[m] = verification.verify(m, claim) if claim else VerificationOutput("no_bids")
        ctx.log.append("miner_verdict", miner=str(m), **outputs[m].to_dict())

    # phase 5: consensus on the verification outputs, then publication
    ctx.log.append("phase", protocol="auction", phase=5, name="publication")
    consensus_result, ledgers, reference = finalize(
        ctx, params, "auction", 1, decode_verification_output,
        lambda m: encode("auction_outcome", **vars(outputs[m])))
    decided_body = consensus_result.decisions[reference]
    # no agreement records no outcome rather than a fake one
    outcome = (VerificationOutput("no_consensus") if decided_body == BOT
               else output_from_body(decided_body))

    cheaters = list(ctx.registry.cheat_detected_committers())
    if outcome.cheater is not None:
        cheaters.append(outcome.cheater)
    return AuctionRunResult(
        outcome=outcome,
        decided_body=decided_body,
        per_miner_outputs=outputs,
        ledgers=ledgers,
        cheaters=tuple(sorted(set(cheaters))),
        excluded_buyers=excluded,
        false_accusers=tuple(sorted(verification.false_accusers)),
        true_bids=accepted,
        consensus=consensus_result,
        context=ctx,
        degenerate_policy=degenerate,
    )


@dataclass
class _Verification:
    """The per-run state every miner's verification reads, and the
    false accusers the miners have found so far."""

    ctx: SimContext
    revealed: dict[PartyId, BitString]  # the openings the seller accepted
    ids: dict[PartyId, dict[PartyId, int]]  # buyer -> receiver -> `commit_to` id
    complainers: set[PartyId]  # buyers scripted to complain
    false_accusers: set[PartyId] = field(default_factory=set)

    def verify(self, m: PartyId, seller_claim) -> VerificationOutput:
        """Miner `m`'s verification sub-protocol with the seller and the
        buyers; `seller_claim` is (winner, winning bid, losing list)."""
        ctx, net, s = self.ctx, self.ctx.network, seller()
        winner, bid, losing = seller_claim

        # the seller sends the claim and the permuted losing list
        net.send_authenticated(s, m, encode("auction_claim", winner=winner, bid=bid))
        net.send_authenticated(s, m, encode("auction_losers", bids=losing))
        inbox = {}

        def on_seller_message(delivery):  # auction_claim or auction_losers
            msg = decode_payload(delivery.payload)
            inbox[msg["kind"]] = msg

        net.drain(on_seller_message)
        claim, losers = inbox.get("auction_claim"), inbox.get("auction_losers")

        # check (i): the seller sent both, and no losing bid exceeds the claimed winning bid
        if claim is None or losers is None or any(v > claim["bid"] for v in losers["bids"]):
            return VerificationOutput.bot(s)

        # step (ii): broadcast the combined list to the buyers
        combined = [claim["bid"], *losers["bids"]]
        net.broadcast(m, sorted(self.revealed), encode(
            "auction_vlist", winning_bid=claim["bid"], losing_bids=losers["bids"]))

        # step (iii): each buyer claims the first slot holding his bid value,
        # or complains that his value is absent; a buyer whose list or
        # response is lost neither claims nor complains
        responses: dict[PartyId, dict] = {}

        def on_list_or_response(delivery):
            msg = decode_payload(delivery.payload)
            if msg["kind"] == "auction_vlist":
                b = delivery.receiver
                slots = [msg["winning_bid"], *msg["losing_bids"]]
                my_bid = self.revealed[b].value
                complaint = my_bid not in slots or b in self.complainers
                net.send_authenticated(b, m, encode(
                    "auction_response", complaint=complaint,
                    slot=0 if complaint else slots.index(my_bid)))
            elif msg["kind"] == "auction_response":
                responses[delivery.sender] = msg

        net.drain(on_list_or_response)

        # complaints: the buyer opens his phase-1 commitment to this miner
        # (an opening lost or rejected leaves its complaint void)
        complaints = [b for b in sorted(responses) if responses[b]["complaint"]]
        for b, opened in sorted(self._openings(m, complaints).items()):
            if opened not in combined:
                return VerificationOutput.bot(s)  # genuinely missing bid
            self.false_accusers.add(b)
            ctx.log.append("false_accusation", miner=str(m), buyer=str(b))

        # multiplicity: more claimants for a value than slots carrying it
        # means a duplicate bid was dropped; ask the claimants to prove it
        claim_count: dict[int, list[PartyId]] = {}
        for b, msg in sorted(responses.items()):
            if not msg["complaint"] and msg["slot"] < len(combined):
                claim_count.setdefault(combined[msg["slot"]], []).append(b)
        for value, claimants in sorted(claim_count.items()):
            multiplicity = combined.count(value)
            if len(claimants) <= multiplicity:
                continue
            ctx.log.append("multiplicity_conflict", miner=str(m), value=value,
                           claimants=[str(b) for b in claimants])
            opened = self._openings(m, claimants)
            genuine = sum(1 for b in claimants if opened.get(b) == value)
            if genuine > multiplicity:
                return VerificationOutput.bot(s)
            for b in claimants:
                if opened.get(b, value) != value:  # opened, but not this value
                    self.false_accusers.add(b)
                    ctx.log.append("false_claim", miner=str(m), buyer=str(b))

        return VerificationOutput.ok(claim["bid"], losers["bids"], claim["winner"])

    def _openings(self, m: PartyId, targets) -> dict[PartyId, int]:
        """Miner-requested openings of phase-1 commitments.

        Each target buyer opens the same value he revealed to the seller;
        the registry adjudicates against what was actually committed, so a
        bid-changer can be caught right here. Absent entries mean the
        request or the opening was lost, or the opening was rejected
        (complaint void, buyer flagged by the registry).
        """
        if not targets:
            return {}
        net, registry = self.ctx.network, self.ctx.registry
        for b in targets:
            net.send_authenticated(m, b, encode("open_request", commitment_id=self.ids[b][m]))
        opened: dict[PartyId, int] = {}

        def on_request_or_opening(delivery):
            msg = decode_payload(delivery.payload)
            if msg["kind"] == "open_request":
                b = delivery.receiver
                net.send_authenticated(b, m, encode(
                    "open", commitment_id=msg["commitment_id"], claimed=self.revealed[b]))
            elif msg["kind"] == "open":
                result = registry.open(msg["commitment_id"], delivery.sender, msg["claimed"])
                if result.accepted:
                    opened[delivery.sender] = result.value.value

        net.drain(on_request_or_opening)
        return opened


# ---------------------------------------------------------- privacy scans


def posterior_privacy_violations(result: AuctionRunResult) -> list[str]:
    """Losing buyers named in a miner's ledger record.

    The record schema has identity slots only for the winner (valid) or
    the blamed cheater (bot), so an empty return is the structural
    guarantee the outcome publishes no losing bid against a name. Only
    ledgers are scanned; miner -> buyer broadcast lists carry bare
    values by construction.
    """
    violations: list[str] = []
    out = result.outcome
    losing = {b for b in result.true_bids if out.valid and b != out.winner}
    for m, led in sorted(result.ledgers.items()):
        for record in led.records:
            decoded = decode_verification_output(record.body)
            named = decoded["winner"] or decoded["cheater"]
            if named in losing:
                violations.append(
                    f"ledger of {m} names losing buyer {named} at height {record.height}")
    return violations


def complaint_openings(result: AuctionRunResult) -> int:
    """Openings demanded during verification, one per open-request
    message, whether sent alone or in a broadcast; zero in every honest
    run."""
    kind = f"{TAGS['open_request']:02x}"
    log = result.context.log
    return (sum(rec["payload"].startswith(kind) for rec in log.of_kind("send"))
            + sum(len(rec["to"]) for rec in log.of_kind("broadcast")
                  if rec["payload"].startswith(kind)))


def bid_privacy_violations(result: AuctionRunResult) -> list[str]:
    """Messages delivered to any buyer before the verification phase, by
    the `delivered` seq of their send records and broadcast entries;
    buyers are supposed to receive nothing at all during bidding and
    opening."""
    log = result.context.log
    phase4_seq = next(rec["seq"] for rec in log.of_kind("phase") if rec["phase"] == 4)
    out = [f"buyer-bound delivery before verification: {rec}" for rec in log.of_kind("send")
           if rec.get("delivered", phase4_seq) < phase4_seq
           and rec["receiver"].startswith("buyer:")]
    for rec in log.of_kind("broadcast"):
        out += [f"buyer-bound delivery before verification: {rec['sender']} -> {receiver}, "
                f"msg_id {rec['msg_id'] + k}, delivered at seq {delivered[0]}"
                for k, (receiver, _, *delivered) in enumerate(rec["to"])
                if delivered and delivered[0] < phase4_seq and receiver.startswith("buyer:")]
    return out
