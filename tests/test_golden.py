"""Golden run reports: the sha256 of each canonical report is pinned.

Every config below covers one policy, backend, Byzantine script or
protocol; a refactor that leaves the program's behaviour alone keeps
every hash. A change that moves a hash changes report bytes and has to
say which field changed and why. The `qbc_analyze` reports carry
floating-point results of `qbsim.qbc.linalg`, which uses correctly
rounded binary64 operations only, in a fixed order, so their hashes
hold on every CPython build.

Each config pins three hashes: `GOLDEN_V3` the run's report itself,
`GOLDEN_V2` the schema-2 report rebuilt from it by `oracles.report_v2`,
and `GOLDEN` the schema-1 report rebuilt from that by
`oracles.report_v1`. The schema-1 and schema-2 hashes predate the
versions after them, so they show that no later version dropped a fact
of an earlier one.

`GOLDEN_STATS` pins the canonical aggregate of a serial batch, the
bytes `qbsim lottery|auction stats` prints, for configs chosen so that
every aggregate field moves in some of them. Each entry also states the
case it exists for as a predicate on its aggregate, checked before the
digest, so a regenerated digest cannot silently drop the case.
"""

import hashlib
from pathlib import Path

import pytest

from oracles import report_v1, report_v2
from qbsim.batch import run_batch
from qbsim.scenario import ScenarioConfig, canonical_report_bytes, run_scenario

ROOT = Path(__file__).resolve().parent.parent

LOTTERY = dict(protocol="lottery", players=3, ticket_bits=8, miners=2)
AUCTION = dict(protocol="auction", buyers=3, bid_width=8, miners=2)
FIXED_BIDS = {"0": "fixed:30", "1": "fixed:200", "2": "fixed:90"}

GOLDEN = {
    "lottery-exclude-honest-ideal": (
        dict(LOTTERY, seed=1),
        "76d213e95e5e24b714461a02505d09223b26a30f2dbed9b55e7adab577f39b4d",
    ),
    "lottery-exclude-fixed-equivocate-cheat": (
        dict(LOTTERY, seed=2, backend="cheat:0.5",
             player_policies={"0": "fixed:11110000",
                              "2": "equivocate:00000000:11111111"}),
        "51227ea57530766751d055f6f01bc4cfa31a4e26306a1250d5387ed175de4623",
    ),
    "lottery-abort-equivocate-ideal": (
        dict(LOTTERY, seed=3, cheat_policy="abort",
             player_policies={"1": "equivocate:10101010:01010101"}),
        "10b37246677b620ce991d6da3f65c9c0bc94dd48a9adaad80c733c8d97e9262a",
    ),
    "lottery-abort-fixed-cheat": (
        dict(LOTTERY, seed=4, cheat_policy="abort", backend="cheat:0.5",
             player_policies={"1": "fixed:00000001"}),
        "cf5cad330ccb2375bfc651c433e54583beeab2efdeffd1e507c1680292145084",
    ),
    "auction-honest": (
        dict(AUCTION, seed=5),
        "bb1bece08159590d8d6d16751b5d57e9cb500c05dd0a0fa3923b8cd7d92e7a9b",
    ),
    "auction-wrong-winner": (
        dict(AUCTION, seed=6, seller_policy="wrong-winner", buyer_policies=FIXED_BIDS),
        "c2a6129bed7844401baad9c517458e7761efcab491d995be492b0c4df5cffa98",
    ),
    "auction-inflate": (
        dict(AUCTION, seed=7, seller_policy="inflate", buyer_policies=FIXED_BIDS),
        "2afec244a70e4fbc25c0f93f1bed547713001db3af9de719b4116c804a58ca98",
    ),
    "auction-drop-loser": (
        dict(AUCTION, seed=8, seller_policy="drop-loser", buyer_policies=FIXED_BIDS),
        "ce4fd0bc548738024102401e47c736ce0940cb47bffdc7f3ad97de9bcdb7200a",
    ),
    "auction-change-ideal": (
        dict(AUCTION, seed=9, buyer_policies={"0": "change:40:250", "1": "fixed:100"}),
        "ee8cd3a2b15e780f33be58b959eeda05b5c4160e1a8d57dc422f2d508826570f",
    ),
    "auction-change-cheat": (
        dict(AUCTION, seed=10, backend="cheat:0.5",
             buyer_policies={"2": "change:10:20"}),
        "0f7f0cdcf76543a7672903e5670d4e607e0a50bb52f1e6eddb44663892fd4529",
    ),
    "auction-complain": (
        dict(AUCTION, seed=11, buyer_policies={"0": "complain:50", "1": "fixed:60"}),
        "ad1f31422e52932c341881d4b3b626105b89a963cb66ad2d37bbf00d563886d9",
    ),
    "lottery-byzantine-silent": (
        dict(LOTTERY, seed=12, miners=4, byzantine_miners={"1": "silent"}),
        "2f953536a4fac3ba213e9e39758e2013ff9b29c4fed1d4b51cff12a1bb08a63c",
    ),
    "auction-byzantine-garbage": (
        dict(AUCTION, seed=13, miners=4, byzantine_miners={"3": "garbage"}),
        "8da27dd109d1b7e717654a8a9085a628ab02d567460dfef5e0073e1e5feb3b4e",
    ),
    "lottery-byzantine-equivocate": (
        dict(LOTTERY, seed=14, miners=4, byzantine_miners={"0": "equivocate"},
             player_policies={"2": "equivocate:00001111:11110000"}),
        "4f98e623d62b326a27a70a0ffd5ea817392f47ca700d4c91d1acfb56e6c8271a",
    ),
    "lottery-boundary-guarantees-void": (
        dict(LOTTERY, seed=15, miners=3, byzantine_miners={"1": "garbage"}),
        "c3da320fd115c19ab9c33cc3879543785b40cd336cc193dd8891e0ddde3ebe2b",
    ),
    "auction-boundary-guarantees-void": (
        dict(AUCTION, seed=18, miners=3, byzantine_miners={"0": "garbage"}),
        "5f4e5c838ac77704f92e8157c2536da1a25ae20728b1fe11b14c4a29d71934bd",
    ),
    "lottery-summary-log": (
        dict(LOTTERY, seed=16, detail_log=False,
             player_policies={"0": "equivocate:00000000:11111111"}),
        "1279be3edde4a1ed20f3f4534cbde04a342e2089cb5c94b055d4f832e5961ce5",
    ),
    "auction-summary-log": (
        dict(AUCTION, seed=17, detail_log=False, seller_policy="drop-loser",
             buyer_policies=FIXED_BIDS),
        "580611554c0883cd2ec745363712bfd73e281db43a9cadae10169b47706a24e4",
    ),
    "lottery-equivocate-cheat-1": (
        dict(LOTTERY, seed=19, backend="cheat:1",
             player_policies={"1": "equivocate:11001100:00110011"}),
        "93f49ed65496ead18e50183d743a39bd954b4e2a6b836b89eef1df961db2bfef",
    ),
    "auction-change-cheat-1": (
        dict(AUCTION, seed=20, backend="cheat:1",
             buyer_policies={"1": "change:70:140", "2": "fixed:90"}),
        "3745ab3d5d85c8fe19fb68e07bea29bb69bade4a6582f4264b35396208b25557",
    ),
    "lottery-one-miner": (
        dict(LOTTERY, seed=21, miners=1),
        "554f0e60123ff50c3d9917285620da56e1fb77a3bae04b78f644b5fae1330859",
    ),
    "auction-one-miner": (
        dict(AUCTION, seed=22, miners=1),
        "854ebf7e327bc3ab0ad8eba8346063298c15d824d672889f3bc4a352a5993720",
    ),
    "qbc-bell-pair": (
        dict(protocol="qbc_analyze", scheme_file="schemes/bell_pair.json"),
        "f6410fc3d1023dcbf845ea5aeb139e8ba36077f1b55647432380add593211b61",
    ),
    "qbc-concealing-dim3": (
        dict(protocol="qbc_analyze", scheme_file="schemes/concealing_dim3.json"),
        "498a13bd008a31c4d817e6382f6b81ae304d438be0814ad8ad898beada3dc185",
    ),
    "qbc-product": (
        dict(protocol="qbc_analyze", scheme_file="schemes/product.json"),
        "7987dcc8559438bf8e0abb5731b1dfb8fcd37680bcb1427730683b69a661ee6c",
    ),
}

GOLDEN_V2 = {
    "lottery-exclude-honest-ideal":
        "23ed58fecbf4d8fe8215c447a7be051338a64b312868654f04886daadc39c01f",
    "lottery-exclude-fixed-equivocate-cheat":
        "ca351c8302c80bfe08aa24cc6f82e096fc5528201b0055794d717201b6bab8fa",
    "lottery-abort-equivocate-ideal":
        "a5a6a3a4667063c4694835c919e1340d5b6d6d0df5d60cf0ad82c4f9eada7db9",
    "lottery-abort-fixed-cheat":
        "a1d380a04a0704a4316b4505e9a3d7b3c5768246b6481f7ad5d4b6b76a506e0d",
    "auction-honest":
        "bdc91fd329edfc30569e860b24121403a2c697afc354d66ff83ee6116b4dea30",
    "auction-wrong-winner":
        "112f714b3526ee4e7771af3c1c7f19526a617843c8e3f929ad62ac3ae5424d94",
    "auction-inflate":
        "4e9be8b0029114f4cece2537a23a53aed35d55d421b718ffca3e768b37b26c0e",
    "auction-drop-loser":
        "0e7fe27558d7f9422ef4fefb6b62ff3a3d00d1a838e2c8e10c0dac95b3cde6c3",
    "auction-change-ideal":
        "df1975ea2fc15647526041c3c62ac9b1068633abedfdf712acdce58bfc9f4589",
    "auction-change-cheat":
        "c062f7d09a71511f62ec55f35f42a73ed5b9ec154bb24568e249783b6c175f1b",
    "auction-complain":
        "30279e2ca7bc8f86917261329b50c82cce56fa61055bc486421b82c4344e3e6e",
    "lottery-byzantine-silent":
        "78a9a98b5ba13cf3ebc554da9873d2f8dd97a16aefc24f6e56956dfce1cf69e0",
    "auction-byzantine-garbage":
        "34b7d22e78cc66e11fcc14933566c896955c130ab24ac11ac85a707b33771ff9",
    "lottery-byzantine-equivocate":
        "705141c93f9ff0621a3831f72b39bc617bd14dbf55512e28da8e93b1f5d6d427",
    "lottery-boundary-guarantees-void":
        "7effa88fcc65eb7f1bbbe3fa8f95925d27c07c1861509fb6261970b528e1b2d9",
    "auction-boundary-guarantees-void":
        "aba71a93026093bb5d5e02848bca92c857d54aa1c1f437b3957ae150f7dcfec9",
    "lottery-summary-log":
        "86197df3aa13944245d283ad6d7a6d498db14237988937074cb6880f58fe4b1e",
    "auction-summary-log":
        "e4f924b239c29e5375ed7d369e2554e34de72e8ce08af77d2e91e511adb955c2",
    "lottery-equivocate-cheat-1":
        "ef003551d7a06d206817a4cf61fc8f200d22fe8a493e7fe8b75434ff2f70aa80",
    "auction-change-cheat-1":
        "4dd48a6673077f3a55d71d4b1300b751d7f13b1c5cf78cf2128b181e3f4bcec8",
    "lottery-one-miner":
        "481ec9ff473d01c275f16db7969c836c0561bfd73b88be7ee7349ed2e4419268",
    "auction-one-miner":
        "f5665f6ac1206de666e4f0d80bc31be2f279867edd7a718152e9a0d2f6a097c2",
    "qbc-bell-pair":
        "937dfc5e837704a59c982ed2516ff3c9e9453a34271e81a09da7dd8f033df2bb",
    "qbc-concealing-dim3":
        "7564f82f1d767e5d7c1a8f280a5da181d16c3b408dc119be7a813ddc87288912",
    "qbc-product":
        "4b457cc4cf48312ea0bc66dbdf8ebfc134ad05e8bfb9ef06b5be8b224787e7ee",
}


GOLDEN_V3 = {
    "lottery-exclude-honest-ideal":
        "0dbaf441fdb6ad24ffcbf70e5f64123c800bd006b6980d0c310532df4279967a",
    "lottery-exclude-fixed-equivocate-cheat":
        "defeaf0480c6571af733c0af858925f35ae84a9a2a48a031de46a73d0487cc55",
    "lottery-abort-equivocate-ideal":
        "97cd56b7a81abe5cd1797c949646a6162cb9e31f656c385f968cb0caeba810f2",
    "lottery-abort-fixed-cheat":
        "862ea67b822ae028f9982957ba222ee679bf1f2187890b4c6d68cc4ee7be8a45",
    "auction-honest":
        "b0a9faa4edef4df74cada336fa4d3b25a3cbcfe0f85197d87ec372933d44d0ca",
    "auction-wrong-winner":
        "70383bd87f031821f12f20bd7bf4670fad0aa256504ba6ddaf59200d4f156aab",
    "auction-inflate":
        "4903320d0ffa199e0e2643bae5fc6cfa98384bfb023f9fedcb0f9cb6c966431d",
    "auction-drop-loser":
        "7c25c8a5233bdc65953c31eb2fc2d828fbf409e107f01ae39c6ce27db98b2690",
    "auction-change-ideal":
        "ebd977a1556a11a0e2b20a25df6b4d44b9acd87d607a54ddb55d0bbe3fdf024b",
    "auction-change-cheat":
        "2a60600f39c34c2202684e315f6bee81ba278858a9505e18345e76b87ddf9893",
    "auction-complain":
        "e7bc0f4786cfb7a5cdc259fd7466d3b53d06b42252541def80584f62c8f0a93f",
    "lottery-byzantine-silent":
        "88f45bc85463ea4c4480caaae67438c07f9ce02d65b318b845dafb405b77b1e0",
    "auction-byzantine-garbage":
        "51d40d2c140e5c21f936e4e041a221eb05bc4e6c11caf0f1029e967e7d36c8d7",
    "lottery-byzantine-equivocate":
        "4afa5ad3693ccb516968c524fe875923022793938272688daaca6b2d65b9333e",
    "lottery-boundary-guarantees-void":
        "4a15fdb10ec7202c0ce5d4f6ab82439fedbabb2be7bd1c0b33f8669b6c26334c",
    "auction-boundary-guarantees-void":
        "705daf1ee9bfd2e12a9f6840478b7ef66b7947e14fec4ee207a41d2afb61ebfb",
    "lottery-summary-log":
        "5e1751f7e98e4e9d352199b44f5aefb6c24293aaa60838c8e324a3faa752874b",
    "auction-summary-log":
        "9776f2421aa78d031a6e8b9b91ab13ebb0dca18c78499fcd4cb2df739ba539e3",
    "lottery-equivocate-cheat-1":
        "1cdf7232900dd9dd93af90a4aeb6cd74f15c9ccccf88eb9abe2e1b914fb5500e",
    "auction-change-cheat-1":
        "5fed45c55f61cab90bc928b362b1494779c5cfe8d363f4c9365fd278b8e5b04b",
    "lottery-one-miner":
        "76c8c8bbecec1814048865dec5800849674370d23916cefef39c973c4436bf54",
    "auction-one-miner":
        "e61c06f28748e41246618ed055bb9d350be3782ae1a281ae80c60e0a78ff149d",
    "qbc-bell-pair":
        "0df4ad20d0318ac0ad4107d6190003b93f792d67521954a9d8a29f8f9a36d4b7",
    "qbc-concealing-dim3":
        "a73553969053e809f964b60882b9fc2ae7ab022555bce963f684fbe7b9eeff22",
    "qbc-product":
        "338c850ddab1035f598f0edda34beed6f8591687246fcd862503c8bfc2a04913",
}


def digest(report: dict) -> str:
    return hashlib.sha256(canonical_report_bytes(report)).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # scheme files are named relative to the checkout
    data, v1_digest = GOLDEN[name]
    report = run_scenario(ScenarioConfig.from_dict(dict(data)))
    assert digest(report) == GOLDEN_V3[name]
    v2 = report_v2(report)
    assert digest(v2) == GOLDEN_V2[name]
    assert digest(report_v1(v2)) == v1_digest


STATS_RUNS = 100
# name -> (config, the case the entry exists for as a predicate on its
# aggregate, digest); a regeneration that loses the case fails the test
GOLDEN_STATS = {
    # every run decides and names no cheater
    "lottery-honest": (
        dict(LOTTERY, seed=21),
        lambda agg: agg["decided_runs"] == agg["runs"] and agg["runs_with_cheaters"] == 0,
        "32308a4386e254fcd050570f7363d7bca95529044a411c76c0f279a12db1ec6e",
    ),
    # the equivocator is named and excluded, so runs still decide
    "lottery-equivocate-cheat": (
        dict(LOTTERY, seed=22, backend="cheat:0.5",
             player_policies={"1": "equivocate:00000000:11111111"}),
        lambda agg: agg["runs_with_cheaters"] > 0 and agg["decided_runs"] > 0,
        "dbf636a95e3accdf1cb3444f564c2dbb9e87eddcd75cf40c3a1917ce4c45aa54",
    ),
    # every run aborts: no decided run, so no frequencies or p-values
    "lottery-abort-undecided": (
        dict(LOTTERY, seed=23, cheat_policy="abort",
             player_policies={"0": "equivocate:00001111:11110000"}),
        lambda agg: agg["decided_runs"] == 0 and "bit_one_frequencies" not in agg,
        "4eb14d78944c575524f63117e23c0e730c173482f3626f66b50c2816c0291b2a",
    ),
    # undetected equivocations decide, detected ones abort: both kinds sum
    "lottery-abort-some-decide": (
        dict(LOTTERY, seed=27, cheat_policy="abort", backend="cheat:0.1",
             player_policies={"2": "equivocate:00000000:11111111"}),
        lambda agg: agg["decided_runs"] > 0 and agg["aborted"] > 0,
        "8ccccb7c084b7145abbc3175b5e9cfdc3da417babe996c871efb691bca9082d7",
    ),
    # every run has a winner and names no cheater
    "auction-honest": (
        dict(AUCTION, seed=24),
        lambda agg: agg["bot_runs"] == 0 and agg["runs_with_cheaters"] == 0,
        "90f5f024f6b893f551697748fc31e0cae3705e19505be73e5d2d70c2226fbdee",
    ),
    # every buyer is excluded: no bids, no winner
    "auction-no-bids": (
        dict(AUCTION, seed=25, buyer_policies={"0": "change:4:5", "1": "change:6:7",
                                               "2": "change:8:9"}),
        lambda agg: agg["winner_counts"] == {},
        "f743cfcea746117721fa8bcaf6984106cbfb2c8e76dc3858a1c2dc82277b1b5d",
    ),
    # two-bit bids tie often, which leaves drop-loser nothing to forge
    "auction-drop-loser-byzantine": (
        dict(AUCTION, seed=26, buyers=2, bid_width=2, miners=4, seller_policy="drop-loser",
             byzantine_miners={"3": "equivocate"}),
        lambda agg: agg["degenerate_runs"] > 0 and agg["bot_runs"] > 0,
        "218076323e2b1afc789b70b63ff3faaf260df3b74bac5a20199fa02ef2a1cdf1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STATS))
def test_golden_stats_bytes(name):
    data, case, expected = GOLDEN_STATS[name]
    agg = run_batch(ScenarioConfig.from_dict(dict(data)), runs=STATS_RUNS, workers=1)
    assert case(agg), agg
    assert digest(agg) == expected
