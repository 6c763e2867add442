"""Three-phase lottery: ticket purchasing, ticket agreement, winner
determination.

Players commit their m-bit tickets to every miner, later open to every
miner, miners agree on the full ticket list and append it, and the
winning ticket is the XOR of all agreed tickets. Revenue falls with the
Hamming distance to the winning ticket; shares use exact rationals and
sum to one.

A detected equivocator is handled by the configured policy: exclude
(default - drop the cheater, recompute over the remaining tickets) or
abort the run. Either way the agreed list, statuses included, is what
lands on the ledger, so the outcome stays a pure function of the ledger
record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bits import BitString, xor_all
from .consensus import BOT
from .encoding import decode_ticket_list, encode
from .errors import ConfigError, EncodingError, QbsimError
from .parties import PartyId, miner, player
from .runtime import (
    FinalizedRun,
    Policy,
    RunParams,
    count_violations,
    finalize,
    make_context,
    parse_policy,
    policy_violations,
    run_violations,
    scripted_values,
)

CHEAT_POLICY_EXCLUDE = "exclude"
CHEAT_POLICY_ABORT = "abort"
CHEAT_POLICIES = (CHEAT_POLICY_EXCLUDE, CHEAT_POLICY_ABORT)


# ------------------------------------------------------- player policies

# each name with the placeholders of its values: `honest` draws a uniform
# ticket, `fixed` commits and opens a chosen one, `equivocate` commits one
# ticket and tries to open another
PLAYER_POLICIES = {"honest": (), "fixed": ("BITS",), "equivocate": ("BITS", "BITS")}


def parse_player_policy(text: str) -> Policy:
    return parse_policy(text, "player", PLAYER_POLICIES, BitString.from_text)


# ----------------------------------------------------------- pure pieces


def revenue_shares(distances, m: int) -> list[Fraction]:
    """share_i = (m - d_i + 1) / sum_j (m - d_j + 1), exact rationals.

    Strictly decreasing in distance, equal for equal distances, never
    zero, and the shares sum to exactly one.
    """
    distances = list(distances)
    for d in distances:
        if not 0 <= d <= m:
            raise QbsimError(f"distance {d} outside [0, {m}]")
    weights = [m - d + 1 for d in distances]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@dataclass(frozen=True)
class LotteryOutcome:
    """Winner determination applied to one agreed ticket list."""

    ticket_bits: int
    entries: tuple  # (player_index, status, BitString|None), ascending index
    cheat_policy: str
    aborted: bool
    included: tuple = ()
    excluded: tuple = ()
    winning: BitString | None = None
    distances: dict = field(default_factory=dict)
    revenues: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "aborted": self.aborted,
            "cheat_policy": self.cheat_policy,
            "ticket_bits": self.ticket_bits,
            "entries": [
                {"player": i, "status": status,
                 "ticket": ticket.text if ticket is not None else None}
                for i, status, ticket in self.entries
            ],
            "included": list(self.included),
            "excluded": list(self.excluded),
            "winning_ticket": self.winning.text if self.winning else None,
            "distances": {str(i): d for i, d in self.distances.items()},
            "revenues": {str(i): f"{r.numerator}/{r.denominator}"
                         for i, r in self.revenues.items()},
        }


def determine_outcome(entries, ticket_bits: int, cheat_policy: str) -> LotteryOutcome:
    """Pure function from an agreed ticket list to the outcome."""
    entries = tuple(entries)
    included = tuple(i for i, status, _ in entries if status == "opened")
    excluded = tuple(i for i, status, _ in entries if status != "opened")
    if excluded and cheat_policy == CHEAT_POLICY_ABORT:
        return LotteryOutcome(ticket_bits, entries, cheat_policy, aborted=True,
                              excluded=excluded)
    if not included:
        return LotteryOutcome(ticket_bits, entries, cheat_policy, aborted=True,
                              excluded=excluded)
    tickets = {i: ticket for i, status, ticket in entries if status == "opened"}
    winning = xor_all([tickets[i] for i in included])
    distances = {i: tickets[i].hamming_distance(winning) for i in included}
    shares = revenue_shares([distances[i] for i in included], ticket_bits)
    revenues = dict(zip(included, shares))
    for i in excluded:
        revenues[i] = Fraction(0)
    return LotteryOutcome(ticket_bits, entries, cheat_policy, aborted=False,
                          included=included, excluded=excluded, winning=winning,
                          distances=distances, revenues=revenues)


# -------------------------------------------------------------- protocol


@dataclass
class LotteryParams(RunParams):
    players: int
    ticket_bits: int
    policies: dict[int, Policy] = field(default_factory=dict)
    cheat_policy: str = CHEAT_POLICY_EXCLUDE


@dataclass(kw_only=True)
class LotteryRunResult(FinalizedRun):
    outcome: LotteryOutcome
    verdicts: dict  # miner -> LotteryOutcome recomputed from its ledger


def lottery_violations(params: LotteryParams) -> list[str]:
    """Every limit `params` breaks; the maxima are the encodings' field
    widths."""
    out = [*count_violations("players", params.players, 2),
           *count_violations("ticket_bits", params.ticket_bits, 1)]
    if params.cheat_policy not in CHEAT_POLICIES:
        out.append(f"cheat policy must be {'|'.join(CHEAT_POLICIES)}, got {params.cheat_policy!r}")
    bits = params.ticket_bits

    def ticket_violations(i, tickets):
        if not all(isinstance(t, BitString) for t in tickets):
            return [f"player {i}: policy tickets must be BitStrings, got {tickets!r}"]
        if any(len(t) != bits for t in tickets):
            return [f"player {i}: policy tickets must have length {bits}"]
        return []
    out += policy_violations("player", params.policies, params.players, PLAYER_POLICIES,
                             ticket_violations)
    return out + run_violations(params, party_blocks=2)  # commit notice and open


def run_lottery(params: LotteryParams) -> LotteryRunResult:
    """The lottery on `params`; first a `ConfigError` lists every limit
    `lottery_violations` finds. Every run is entered here."""
    ConfigError.check(lottery_violations(params))
    players = [player(i) for i in range(params.players)]
    miners = [miner(j) for j in range(params.miners)]
    ctx = make_context(params.seed, players + miners, params.key_budget, params.detail)
    commit_tickets, open_tickets = scripted_values(
        params.policies, params.players,
        lambda i: BitString.random(ctx.rng("player", i), params.ticket_bits))

    # phase 1: ticket purchasing - commit to every miner
    ctx.log.append("phase", protocol="lottery", phase=1, name="ticket_purchasing")
    commitment_ids = [ctx.commit_to(p, miners, commit_tickets[i], params.backend)
                      for i, p in enumerate(players)]
    ctx.network.drain()

    # phase 2a: every player opens to every miner
    ctx.log.append("phase", protocol="lottery", phase=2, name="ticket_agreement")
    for i, p in enumerate(players):
        if open_tickets[i] != commit_tickets[i]:
            ctx.log.append("equivocate_attempt", player=str(p))
        for m in miners:
            ctx.network.send_authenticated(
                p, m, encode("open", commitment_id=commitment_ids[i][m], claimed=open_tickets[i]))

    miner_views: dict[PartyId, dict[int, tuple[str, BitString | None]]] = {
        m: {} for m in miners}

    def on_open(delivery):
        result = ctx.adjudicate(delivery)
        if result is not None:
            miner_views[delivery.receiver][delivery.sender.index] = (
                ("opened", result.value) if result.accepted else ("cheat_detected", None))

    ctx.network.drain(on_open)

    # phase 2b: consensus on the ticket list, then append
    def ticket_list(m):
        return encode("ticket_list", entries=[(i, *miner_views[m].get(i, ("missing", None)))
                                              for i in range(params.players)])

    def decode_full_list(body):
        # a list an outcome can be read from: one entry per player, in
        # order, every opened ticket `ticket_bits` long
        entries = decode_ticket_list(body)
        if ([i for i, _, _ in entries] != list(range(params.players))
                or any(t is not None and len(t) != params.ticket_bits for _, _, t in entries)):
            raise EncodingError(f"ticket list is not {params.players} entries "
                                f"of {params.ticket_bits}-bit tickets")
        return entries

    consensus_result, ledgers, reference_miner = finalize(
        ctx, params, "lottery", 0, decode_full_list, ticket_list)
    decided_body = consensus_result.decisions[reference_miner]

    # phase 3: winner determination from each miner's own ledger copy
    ctx.log.append("phase", protocol="lottery", phase=3, name="winner_determination")
    verdicts = {}
    for m in miners:
        decided = consensus_result.decisions[m]
        if decided is None:
            continue
        if decided == BOT:  # no agreement: the run aborts, no list is fabricated
            verdicts[m] = LotteryOutcome(params.ticket_bits, (), params.cheat_policy,
                                         aborted=True)
            continue
        verdicts[m] = determine_outcome(
            decode_ticket_list(decided), params.ticket_bits, params.cheat_policy)

    outcome = verdicts[reference_miner]
    if outcome.excluded:
        ctx.log.append("cheat_policy_applied", policy=params.cheat_policy,
                       excluded=[i for i in outcome.excluded], aborted=outcome.aborted)

    cheaters = tuple(sorted(ctx.registry.cheat_detected_committers()))
    return LotteryRunResult(
        outcome=outcome,
        verdicts=verdicts,
        decided_body=decided_body,
        ledgers=ledgers,
        cheaters=cheaters,
        consensus=consensus_result,
        context=ctx,
    )
