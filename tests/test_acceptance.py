"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as
they print. The statistical criteria run at full scale (10,000 runs
where stated), so this module takes a few minutes on one core.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import minimize

from qbsim.auction import (
    AuctionParams,
    complaint_openings,
    posterior_privacy_violations,
    run_auction,
)
from qbsim.batch import run_batch
from qbsim.bits import BitString
from qbsim.commitment import IDEAL, CommitmentRegistry, parse_backend
from qbsim.consensus import SCRIPTS, run_consensus, tolerated_faults
from qbsim.eventlog import EventLog
from qbsim.keystore import KeyStore
from qbsim.lottery import LotteryParams, run_lottery
from qbsim.parties import miner, player, seller
from qbsim.qbc import (
    DensityOperator,
    HilbertDims,
    QbcScheme,
    binding_attack,
    concealing_defect,
    trace_distance,
)
from qbsim.rng import generator
from qbsim.runtime import Policy
from qbsim.scenario import ScenarioConfig, canonical_report_bytes, run_scenario
from qbsim.transport import Network

from oracles import (
    ExplicitDomain,
    auction_argmax,
    fidelity,
    lottery_result_matches_ledger,
    numpy_generator,
    random_density_matrix,
    random_scheme,
    shipped_scheme,
)


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL "
              f"[{time.perf_counter() - started:.1f}s]")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS "
          f"[{time.perf_counter() - started:.1f}s]")


def test_criterion_1_lottery_randomness():
    """One honest player among two fixed adversaries: every winning-ticket
    bit stays Bernoulli(1/2) over 10,000 runs, inside [0.485, 0.515] and
    chi-square p >= 0.001, in under 30 seconds."""
    with criterion(1, "lottery randomness"):
        config = ScenarioConfig(
            protocol="lottery", players=3, ticket_bits=8, miners=2, seed=20240801,
            player_policies={"1": "fixed:11110000", "2": "fixed:10101010"},
            detail_log=False)
        started = time.perf_counter()
        agg = run_batch(config, runs=10_000, workers=1)
        elapsed = time.perf_counter() - started
        assert agg["decided_runs"] == 10_000
        for freq in agg["bit_one_frequencies"]:
            assert 0.485 <= freq <= 0.515, agg["bit_one_frequencies"]
        for p in agg["bit_chi2_p_values"]:
            assert p >= 0.001, agg["bit_chi2_p_values"]
        assert elapsed < 30.0, f"10k runs took {elapsed:.1f}s"


def test_criterion_2_lottery_unforgeability():
    """Equivocators always rejected under the ideal backend; cheat-
    sensitive detection within half a percentage point of 1-(1/2)^8 over
    100,000 commitment-level trials."""
    with criterion(2, "lottery unforgeability"):
        rejected_runs = 0
        for i in range(1_000):
            params = LotteryParams(
                players=3, ticket_bits=8, miners=2, seed=37_000 + i, detail=False, policies={
                    1: Policy("equivocate", (BitString.from_text("00000000"),
                                             BitString.from_text("11111111")))})
            result = run_lottery(params)
            if player(1) in result.cheaters and 1 in result.outcome.excluded:
                rejected_runs += 1
        assert rejected_runs == 1_000

        log = EventLog(detail=False)
        registry = CommitmentRegistry(911, log)
        backend = parse_backend("cheat:0.5")
        committed = BitString.from_text("00000000")
        claimed = BitString.from_text("11111111")
        detections = 0
        trials = 100_000
        for _ in range(trials):
            cid = registry.commit(player(0), miner(0), committed, backend)
            if not registry.open(cid, player(0), claimed).accepted:
                detections += 1
        expected = 1 - 0.5 ** 8  # 0.99609375
        assert abs(detections / trials - expected) < 0.005, detections / trials


def test_criterion_3_lottery_verifiability():
    """Over 10,000 randomized runs the outcome equals an independent
    recomputation from the ledger record, and every honest miner holds a
    byte-identical ledger."""
    with criterion(3, "lottery verifiability"):
        rng = np.random.default_rng(555)
        matches = 0
        runs = 10_000
        for i in range(runs):
            players = int(rng.integers(2, 6))
            ticket_bits = int(rng.integers(1, 17))
            policies = {}
            roll = rng.random()
            if roll < 0.15:
                cheat_idx = int(rng.integers(0, players))
                first = BitString.random(rng, ticket_bits)
                second = first.flip(int(rng.integers(0, ticket_bits)))
                policies[cheat_idx] = Policy("equivocate", (first, second))
            elif roll < 0.3:
                fixed_idx = int(rng.integers(0, players))
                policies[fixed_idx] = Policy("fixed", (BitString.random(rng, ticket_bits),))
            cheat_policy = "abort" if rng.random() < 0.1 else "exclude"
            params = LotteryParams(
                players=players, ticket_bits=ticket_bits,
                miners=int(rng.integers(1, 4)), seed=int(rng.integers(0, 2**60)),
                backend=IDEAL, policies=policies,
                cheat_policy=cheat_policy, detail=False)
            result = run_lottery(params)
            ok = lottery_result_matches_ledger(result, ticket_bits, cheat_policy)
            consistent, _ = result.honest_ledgers_consistent
            matches += ok and consistent
        assert matches == runs, f"{matches}/{runs}"


def test_criterion_4_auction_winner_correctness():
    """Winner and bid match a brute-force argmax oracle in 10,000
    randomized honest runs; two-way ties split 50/50 within 3 sigma over
    10,000 runs."""
    with criterion(4, "auction winner correctness"):
        rng = np.random.default_rng(777)
        runs = 10_000
        good = 0
        for i in range(runs):
            m = int(rng.integers(2, 6))
            values = [int(v) for v in rng.integers(1, 2**16, size=m)]
            params = AuctionParams(
                buyers=m, miners=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**60)),
                bid_width=16, detail=False,
                buyer_policies={i: Policy("fixed", (v,)) for i, v in enumerate(values)})
            result = run_auction(params)
            top, argmax = auction_argmax(dict(enumerate(values)))
            out = result.outcome
            losing = sorted(values)
            losing.remove(top)
            good += (out.valid and out.winning_bid == top
                     and out.winner.index in argmax
                     and sorted(out.losing_bids) == losing)
        assert good == runs, f"{good}/{runs}"

        wins = {0: 0, 1: 0}
        for i in range(10_000):
            result = run_auction(AuctionParams(
                buyers=2, miners=1, seed=91_000_000 + i, bid_width=8, detail=False,
                buyer_policies={0: Policy("fixed", (4,)), 1: Policy("fixed", (4,))}))
            wins[result.outcome.winner.index] += 1
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(wins[0] - 5_000) <= 3 * sigma, wins


def test_criterion_5_cheating_seller_detection():
    """wrong-winner, inflate and drop-loser sellers each caught in 1,000
    of 1,000 randomized runs: some honest miner outputs bot and the
    consensus ledger records bot(seller)."""
    with criterion(5, "cheating-seller detection"):
        rng = np.random.default_rng(999)
        for policy in ("wrong-winner", "inflate", "drop-loser"):
            detected = 0
            for i in range(1_000):
                m = int(rng.integers(2, 5))
                values = rng.choice(np.arange(1, 2**16), size=m, replace=False)
                params = AuctionParams(
                    buyers=m, miners=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**60)),
                    bid_width=17, detail=False, seller_policy=policy,
                    buyer_policies={i: Policy("fixed", (int(v),))
                                    for i, v in enumerate(values)})
                result = run_auction(params)
                assert not result.degenerate_policy, (policy, values)
                some_bot = any(not out.valid
                               for out in result.per_miner_outputs.values())
                ledger_bot = (not result.outcome.valid
                              and result.outcome.cheater == seller())
                detected += some_bot and ledger_bot
            assert detected == 1_000, f"{policy}: {detected}/1000"


def test_criterion_6_posterior_privacy():
    """Structural scan of 10,000 honest-run ledgers finds zero
    (losing-buyer identity, bid) associations and zero forced openings.
    Only the ledgers are scanned: what the miners receive in verification
    links every losing bid to its buyer, which
    `test_a_miner_links_every_losing_bid_to_its_buyer` pins."""
    with criterion(6, "posterior privacy"):
        rng = np.random.default_rng(1313)
        runs = 10_000
        clean = 0
        for i in range(runs):
            m = int(rng.integers(2, 5))
            params = AuctionParams(
                buyers=m, miners=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**60)),
                bid_width=12, detail=True)
            result = run_auction(params)
            clean += (posterior_privacy_violations(result) == []
                      and complaint_openings(result) == 0)
        assert clean == runs, f"{clean}/{runs}"


def test_criterion_7_consensus():
    """Agreement and validity hold with zero violations over 10,000
    randomized runs at n in {4, 7, 10} with f < n/3 Byzantine miners,
    and the stabilized decision phase never exceeds f+1."""
    with criterion(7, "consensus agreement/validity"):
        candidates = [b"alpha", b"beta", b"gamma", b"delta"]
        plan = [(4, 5_000), (7, 3_000), (10, 2_000)]
        violations = 0
        total = 0
        for n, runs in plan:
            f_tol = tolerated_faults(n)
            for i in range(runs):
                seed = 1_000_000 * n + i
                rng = numpy_generator(seed, "driver")
                miners = [miner(j) for j in range(n)]
                log = EventLog(detail=False)
                net = Network(miners, KeyStore(seed), scheduler_seed=seed, log=log)
                f = int(rng.integers(0, f_tol + 1))
                byz_idx = sorted(int(j) for j in rng.choice(n, size=f, replace=False))
                byz = frozenset(miner(j) for j in byz_idx)
                scripts = {}
                for k, b in enumerate(sorted(byz)):
                    name = ("silent", "garbage", "equivocate")[int(rng.integers(0, 3))]
                    scripts[b] = SCRIPTS[name](generator(seed, "byz", k), candidates)
                same = rng.random() < 0.5
                common = candidates[int(rng.integers(0, len(candidates)))]
                inputs = {}
                for mm in miners:
                    if mm in byz:
                        continue
                    inputs[mm] = (common if same
                                  else candidates[int(rng.integers(0, len(candidates)))])
                result = run_consensus(inputs, scripts, net, ExplicitDomain(candidates))
                total += 1
                decisions = {result.decisions[mm] for mm in result.honest}
                if len(decisions) != 1:
                    violations += 1
                    continue
                if same and decisions != {common}:
                    violations += 1
                    continue
                if result.decision_phase > result.f_actual + 1:
                    violations += 1
        assert total == 10_000
        assert violations == 0, f"{violations} violations"


def test_criterion_8_qbc_model():
    """Distinguishability inequality on 1,000 random pairs; the fully
    concealing scheme has a working cheat unitary while the fully
    revealing one is perfectly binding; the closed-form attack equals
    direct unitary maximization on 100 random schemes; all in <10s."""
    with criterion(8, "qbc model"):
        started = time.perf_counter()
        rng = np.random.default_rng(2025)
        for _ in range(1_000):
            dim = int(rng.integers(2, 5))
            rho = DensityOperator(random_density_matrix(dim, rng))
            sigma = DensityOperator(random_density_matrix(dim, rng))
            d = trace_distance(rho, sigma)
            f = fidelity(rho, sigma)
            assert 1 - f <= d + 1e-9
            assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9

        bell = shipped_scheme("bell_pair")
        assert concealing_defect(bell) <= 1e-10
        attack = binding_attack(bell)
        assert attack.strength <= 1e-6
        assert attack.witness_residual <= 1e-6  # witness maps c0 onto c1

        prod = shipped_scheme("product")
        assert abs(concealing_defect(prod) - 1.0) <= 1e-10
        assert abs(binding_attack(prod).strength - 1.0) <= 1e-6

        def search_max_overlap(scheme: QbcScheme) -> float:
            psi0, psi1 = np.asarray(scheme.c0.as_matrix()), np.asarray(scheme.c1.as_matrix())

            def overlap(angles):
                theta, phi, psi_ = angles
                c, s = np.cos(theta), np.sin(theta)
                u = np.array([[c * np.exp(1j * phi), s * np.exp(1j * psi_)],
                              [-s * np.exp(-1j * psi_), c * np.exp(-1j * phi)]])
                return abs(np.vdot(psi1.reshape(-1), (u @ psi0).reshape(-1)))

            best, best_angles = -1.0, None
            for theta in np.linspace(0, np.pi, 8):
                for phi in np.linspace(-np.pi, np.pi, 8, endpoint=False):
                    for psi_ in np.linspace(-np.pi, np.pi, 8, endpoint=False):
                        val = overlap((theta, phi, psi_))
                        if val > best:
                            best, best_angles = val, (theta, phi, psi_)
            res = minimize(lambda a: -overlap(a), best_angles, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            return max(best, -res.fun)

        for _ in range(100):
            scheme = random_scheme(HilbertDims(2, 2), rng)
            closed = binding_attack(scheme).best_overlap
            assert abs(closed - search_max_overlap(scheme)) <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"qbc criterion took {elapsed:.1f}s"


def test_criterion_9_determinism():
    """Same seed, byte-identical reports (lottery and auction, detailed
    logs included); batch aggregates independent of worker count."""
    with criterion(9, "determinism"):
        lottery_config = dict(protocol="lottery", players=4, ticket_bits=8,
                              miners=3, seed=424242,
                              player_policies={"2": "equivocate:00000000:00000001"})
        a = canonical_report_bytes(run_scenario(ScenarioConfig(**lottery_config)))
        b = canonical_report_bytes(run_scenario(ScenarioConfig(**lottery_config)))
        assert a == b

        auction_config = dict(protocol="auction", buyers=4, miners=2, seed=424243,
                              seller_policy="drop-loser",
                              buyer_policies={"0": "fixed:10", "1": "fixed:20",
                                              "2": "fixed:30", "3": "fixed:40"})
        c = canonical_report_bytes(run_scenario(ScenarioConfig(**auction_config)))
        d = canonical_report_bytes(run_scenario(ScenarioConfig(**auction_config)))
        assert c == d

        batch_config = ScenarioConfig(protocol="lottery", players=3, ticket_bits=4,
                                      miners=2, seed=31337, detail_log=False)
        seq = run_batch(batch_config, runs=60, workers=1)
        par = run_batch(batch_config, runs=60, workers=2)
        assert canonical_report_bytes(seq) == canonical_report_bytes(par)

        tie_config = ScenarioConfig(protocol="auction", buyers=2, miners=1,
                                    seed=31338, detail_log=False,
                                    buyer_policies={"0": "fixed:4", "1": "fixed:4"})
        seq = run_batch(tie_config, runs=40, workers=1)
        par = run_batch(tie_config, runs=40, workers=2)
        assert canonical_report_bytes(seq) == canonical_report_bytes(par)
