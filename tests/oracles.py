"""Shared independent oracles used by unit and acceptance tests.

Everything here reimplements the checked computation from scratch
(struct-level parsing, straight-line arithmetic) so a transcription bug
in the package cannot hide behind its own code paths. The fixtures are
ExplicitDomain, a small consensus domain the tests can enumerate, the
numpy constructors of random states and commitment schemes, and the
shipped scheme files.
"""

import copy
import hashlib
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from qbsim.consensus import BOT
from qbsim.errors import DimensionMismatchError
from qbsim.qbc import DensityOperator, HilbertDims, OpenOperation, PureState, QbcScheme, load_scheme

SCHEMES = Path(__file__).resolve().parent.parent / "schemes"


class ExplicitDomain:
    """Finite candidate set; BOT is always a member."""

    def __init__(self, values):
        self.values = frozenset(bytes(v) for v in values) | {BOT}

    def contains(self, value: bytes) -> bool:
        return value in self.values


def recompute_lottery_from_ledger(body: bytes, ticket_bits: int, cheat_policy: str) -> dict:
    """Parse a ticket-list ledger body with a local parser and redo the
    XOR, distances and revenue shares from first principles."""
    tag, count = struct.unpack_from(">BH", body, 0)
    assert tag == 0x01
    pos = 3
    opened = {}
    for _ in range(count):
        idx, code = struct.unpack_from(">HB", body, pos)
        pos += 3
        if code == 0:
            (bitlen,) = struct.unpack_from(">H", body, pos)
            pos += 2
            nbytes = (bitlen + 7) // 8
            opened[idx] = int.from_bytes(body[pos:pos + nbytes], "big")
            pos += nbytes
    assert pos == len(body)
    if (cheat_policy == "abort" and len(opened) != count) or not opened:
        return {"aborted": True}
    acc = 0
    for value in opened.values():
        acc ^= value
    distances = {i: bin(value ^ acc).count("1") for i, value in opened.items()}
    weights = {i: ticket_bits - d + 1 for i, d in distances.items()}
    total = sum(weights.values())
    return {
        "aborted": False,
        "winning": acc,
        "distances": distances,
        "revenues": {i: Fraction(w, total) for i, w in weights.items()},
    }


def lottery_result_matches_ledger(result, ticket_bits: int, cheat_policy: str) -> bool:
    oracle = recompute_lottery_from_ledger(result.decided_body, ticket_bits, cheat_policy)
    out = result.outcome
    if oracle["aborted"] != out.aborted:
        return False
    if out.aborted:
        return True
    if oracle["winning"] != out.winning.value:
        return False
    if oracle["distances"] != out.distances:
        return False
    return all(out.revenues[i] == share for i, share in oracle["revenues"].items())


def reference_hash_payload(prime: int, r: int, payload: bytes) -> int:
    """Wegman-Carter polynomial hash by one shift and mask per chunk:
    chunks of bit_length(prime) - 2 bits, most significant first, the
    last one zero-padded, each with a constant high bit, then the byte
    length as a final coefficient, evaluated at r mod prime, reduced
    after every Horner step."""
    cb = prime.bit_length() - 2
    high = 1 << cb
    mask = high - 1
    nbits = len(payload) * 8
    nchunks = -(-nbits // cb) if nbits else 0
    padded = int.from_bytes(payload, "big") << (nchunks * cb - nbits) if nbits else 0
    acc = 0
    for i in range(nchunks - 1, -1, -1):
        acc = (acc * r + ((padded >> (i * cb)) & mask) + high) % prime
    return (acc * r + len(payload)) % prime


def records_before_phase(records: list[dict], phase: int) -> list[dict]:
    """The detail-log records before the record that opens `phase`."""
    end = next(i for i, rec in enumerate(records)
               if rec["event"] == "phase" and rec["phase"] == phase)
    return records[:end]


def auction_argmax(bids: dict) -> tuple[int, set]:
    """Brute-force winning bid and argmax set over {index: value}."""
    top = max(bids.values())
    return top, {i for i, v in bids.items() if v == top}


def report_v2(report: dict) -> dict:
    """The schema-2 report that a schema-3 report restates.

    Version 3 writes the messages of one broadcast as one record:
    `{event: broadcast, seq, msg_id, sender, payload, to}`, whose entry
    k, `[receiver, key_index]` plus the delivered seq if any, is the
    message that took seq `seq + k` and msg id `msg_id + k`. Version 2
    wrote each of them as its own `send` record; rebuilt here.
    """
    v2 = copy.deepcopy(report)
    v2["schema_version"] = 2
    if "event_log" not in report:  # a qbc_analyze report has no log
        return v2
    log = []
    for rec in v2["event_log"]:
        if rec["event"] != "broadcast":
            log.append(rec)
            continue
        for k, entry in enumerate(rec["to"]):
            send = {"seq": rec["seq"] + k, "event": "send", "sender": rec["sender"],
                    "receiver": entry[0], "msg_id": rec["msg_id"] + k,
                    "key_index": entry[1], "payload": rec["payload"]}
            if len(entry) == 3:
                send["delivered"] = entry[2]
            log.append(send)
    v2["event_log"] = log
    return v2


CONSENSUS_HEADER = ">BIBBBH"  # tag 0x22, instance, phase, round, undecided, value length


def report_v1(report: dict) -> dict:
    """The schema-1 report that a schema-2 report restates.

    Version 2 states each fact once; version 1 stated four of them
    twice. Rebuilt here: a `deliver` record for each send record's
    `delivered` seq, each send's `size`, `timing` from the event
    counters, and the consensus transcript from the first consensus
    send of each (phase, round, honest sender). One miner sends nothing,
    so its transcript is its own value, the decided body, in rounds 1-3.
    """
    v1 = copy.deepcopy(report)
    v1["schema_version"] = 1
    counters = report.get("event_counters", {})  # a qbc_analyze report has none
    v1["timing"] = {"events": sum(counters.values()), "messages_sent": counters.get("send", 0),
                    "messages_delivered": counters.get("deliver", 0)}
    if "consensus" not in report:
        return v1
    config = report["config"]
    byzantine = {f"miner:{index}" for index in config["byzantine_miners"]}
    log, transcript = [], {}
    for rec in v1["event_log"]:
        log.append(rec)
        if rec["event"] != "send":
            continue
        payload = bytes.fromhex(rec["payload"])
        rec["size"] = len(payload)
        if "delivered" in rec:
            log.append({"seq": rec.pop("delivered"), "event": "deliver", "sender": rec["sender"],
                        "receiver": rec["receiver"], "msg_id": rec["msg_id"]})
        if payload[:1] == b"\x22" and rec["sender"] not in byzantine:
            _, _, phase, round_, undecided, length = struct.unpack_from(CONSENSUS_HEADER, payload)
            start = struct.calcsize(CONSENSUS_HEADER)
            transcript.setdefault((phase, round_, rec["sender"]),
                                  None if undecided else payload[start:start + length].hex())
    v1["event_log"] = sorted(log, key=lambda rec: rec["seq"])
    if config["miners"] == 1 and config["detail_log"]:
        transcript = {(1, round_, "miner:0"): report["decided_body"] for round_ in (1, 2, 3)}
    v1["consensus"]["transcript"] = [{"phase": phase, "round": round_, "sender": sender,
                                      "value": value}
                                     for (phase, round_, sender), value in transcript.items()]
    return v1


def _numpy_seed_sequence(master_seed, *path) -> np.random.SeedSequence:
    entropy = []
    for item in path:
        if isinstance(item, (int, np.integer)):
            entropy.append(int(item) & 0xFFFFFFFF)
            entropy.append((int(item) >> 32) & 0xFFFFFFFF)
        else:
            digest = hashlib.sha256(str(item).encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:4], "big"))
            entropy.append(int.from_bytes(digest[4:8], "big"))
    return np.random.SeedSequence([master_seed & 0xFFFFFFFFFFFFFFFF] + entropy)


def numpy_generator(master_seed, *path) -> np.random.Generator:
    """A numpy generator keyed by a seed and a path, for test drivers
    that draw with numpy's `choice`: a path item is read as the entropy
    words of a SeedSequence."""
    return np.random.Generator(np.random.PCG64(_numpy_seed_sequence(master_seed, *path)))


# ------------------------------------------------ commitment-scheme oracles
# numpy constructors and measures the tests hold `qbsim.qbc` against; the
# package itself computes in pure Python.


def random_pure_state(dims: HilbertDims, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return PureState.normalized(dims, amps)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_scheme(dims: HilbertDims, rng: np.random.Generator) -> QbcScheme:
    """Two independent random commitments with the identity opening."""
    return QbcScheme(
        dims,
        random_pure_state(dims, rng),
        random_pure_state(dims, rng),
        OpenOperation.identity(dims.total),
    )


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Ginibre ensemble)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _psd_sqrt(matrix) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(np.asarray(matrix))
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def exactly_concealing_scheme(dim: int, rng: np.random.Generator) -> QbcScheme:
    """Both commitments purify the same B-state, so concealing is exact.

    c1 = (U x I) c0 for a random U on A, which is simultaneously the
    cheating unitary the binding measure must rediscover.
    """
    dims = HilbertDims(dim, dim)
    # Psi^T conj(Psi) = rho_b holds for Psi = sqrt(rho_b)^T.
    psi0 = _psd_sqrt(random_density_matrix(dim, rng)).T
    c0 = PureState.normalized(dims, psi0.reshape(-1))
    u = haar_unitary(dim, rng)
    c1 = PureState.normalized(dims, (u @ np.asarray(c0.as_matrix())).reshape(-1))
    return QbcScheme(dims, c0, c1, OpenOperation.identity(dims.total))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Square-root fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), as the
    nuclear norm of sqrt(rho) sqrt(sigma); 1 - F <= D <= sqrt(1 - F^2)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    product = _psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix)
    return float(np.clip(np.linalg.svd(product, compute_uv=False).sum(), 0.0, 1.0))


def shipped_scheme(name: str) -> QbcScheme:
    """The scheme file `schemes/<name>.json`: `bell_pair` and `product` are
    the textbook schemes at the two ends of the concealing/binding trade-off."""
    return load_scheme(str(SCHEMES / f"{name}.json"))
