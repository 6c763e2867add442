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
every aggregate field moves in some of them.
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
        "a4fda4e2d27a4e2525059c87557e3a55b30694088864b54a9744895844d93058",
    ),
    "lottery-exclude-fixed-equivocate-cheat": (
        dict(LOTTERY, seed=2, backend="cheat:0.5",
             player_policies={"0": "fixed:11110000",
                              "2": "equivocate:00000000:11111111"}),
        "9d75f6befb52be3c9449a4dcf0310dde1208e14576918d2d345b808a29e5a234",
    ),
    "lottery-abort-equivocate-ideal": (
        dict(LOTTERY, seed=3, cheat_policy="abort",
             player_policies={"1": "equivocate:10101010:01010101"}),
        "598148769837e5e5acf1eedba3ea23ed69dd48d235c8b9fc4c659ddd6149f2aa",
    ),
    "lottery-abort-fixed-cheat": (
        dict(LOTTERY, seed=4, cheat_policy="abort", backend="cheat:0.5",
             player_policies={"1": "fixed:00000001"}),
        "813bec14ec916b59f519d63c3678e6a137f75ebe77b9730bee915b18715ab8d5",
    ),
    "auction-honest": (
        dict(AUCTION, seed=5),
        "f0cfb991aafda193359f827a82fe0421b93b969dce8d3a209b801159ad5dde65",
    ),
    "auction-wrong-winner": (
        dict(AUCTION, seed=6, seller_policy="wrong-winner", buyer_policies=FIXED_BIDS),
        "4b76ee830897716e48cec1076b945eba4716848d17ecd8d36f4abc75539d12b0",
    ),
    "auction-inflate": (
        dict(AUCTION, seed=7, seller_policy="inflate", buyer_policies=FIXED_BIDS),
        "5d00245e20e0484c698fb4a22af274c6d2622629a41bea4d4d7d463a43e436a6",
    ),
    "auction-drop-loser": (
        dict(AUCTION, seed=8, seller_policy="drop-loser", buyer_policies=FIXED_BIDS),
        "8e4b363fe6a199910ccdebe04570672a2257161b216348e4cd6f26effc335faa",
    ),
    "auction-change-ideal": (
        dict(AUCTION, seed=9, buyer_policies={"0": "change:40:250", "1": "fixed:100"}),
        "4400baf076d168e2f1f86c027818fe248389795c658f5042d93f16d6dfbf66cf",
    ),
    "auction-change-cheat": (
        dict(AUCTION, seed=10, backend="cheat:0.5",
             buyer_policies={"2": "change:10:20"}),
        "7380a041e6d8a339200a5c43f23accfd4b1221c9f56f3b582d9264af47965ed7",
    ),
    "auction-complain": (
        dict(AUCTION, seed=11, buyer_policies={"0": "complain:50", "1": "fixed:60"}),
        "ef86775261d13a6ba571fc73436d3dff9174747f8e3832e338976c3ab7c8d4df",
    ),
    "lottery-byzantine-silent": (
        dict(LOTTERY, seed=12, miners=4, byzantine_miners={"1": "silent"}),
        "322e58b4890ea1eba6d60f79397e4b7955f235ef8fe78bd665bcd8f6f8336e3b",
    ),
    "auction-byzantine-garbage": (
        dict(AUCTION, seed=13, miners=4, byzantine_miners={"3": "garbage"}),
        "97c9e1cc484be4d4494494f3fd63dbe20428268ad45b2666d613c2a4eeb99f37",
    ),
    "lottery-byzantine-equivocate": (
        dict(LOTTERY, seed=14, miners=4, byzantine_miners={"0": "equivocate"},
             player_policies={"2": "equivocate:00001111:11110000"}),
        "0b0e88e64ddc83ba349c95d502eef62328e6254c82263dba9ba3eef0aa557061",
    ),
    "lottery-boundary-guarantees-void": (
        dict(LOTTERY, seed=15, miners=3, byzantine_miners={"1": "garbage"}),
        "ab1ac9b6001af22276c551073c64cce2836b104c2187c6dea9a7c43045dff3f6",
    ),
    "auction-boundary-guarantees-void": (
        dict(AUCTION, seed=18, miners=3, byzantine_miners={"0": "garbage"}),
        "7f733b5f774a1e84230c4826abce4a3999e239e8d998a8051a39dc10772aa49f",
    ),
    "lottery-summary-log": (
        dict(LOTTERY, seed=16, detail_log=False,
             player_policies={"0": "equivocate:00000000:11111111"}),
        "da454a90914137a886254b81403db5c962cdf6147525f4764e204c6dea5e8f0a",
    ),
    "auction-summary-log": (
        dict(AUCTION, seed=17, detail_log=False, seller_policy="drop-loser",
             buyer_policies=FIXED_BIDS),
        "580611554c0883cd2ec745363712bfd73e281db43a9cadae10169b47706a24e4",
    ),
    "lottery-equivocate-cheat-1": (
        dict(LOTTERY, seed=19, backend="cheat:1",
             player_policies={"1": "equivocate:11001100:00110011"}),
        "638447d9ae4e62c8feb921856a4e5879debe22a07c4b85af7b9cfc7efca3866d",
    ),
    "auction-change-cheat-1": (
        dict(AUCTION, seed=20, backend="cheat:1",
             buyer_policies={"1": "change:70:140", "2": "fixed:90"}),
        "1885918f7050f46c063c0d051d848b8761bebdc453ce060ff5c34bed4b20f77e",
    ),
    "lottery-one-miner": (
        dict(LOTTERY, seed=21, miners=1),
        "9e166d04da91cebdd72c816d13bb18ecb1d7e64b2143e6908fb81f6890eff323",
    ),
    "auction-one-miner": (
        dict(AUCTION, seed=22, miners=1),
        "3836c10cda093653a3f0db487da11a1a7fff3d1533f3d02178dfdb49ce53844c",
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
        "5b19e5035c40285e82b0188985c8659b0ad51ddb8784c9325b683b80b83fd29c",
    "lottery-exclude-fixed-equivocate-cheat":
        "292f01229eee9e65941544d5d41267286ed803b27ad2c1c35e106f011bb5ee56",
    "lottery-abort-equivocate-ideal":
        "be7c3826793c2c7de8b28b3f589cae0d3fb0b186c386728f40f2ee27eb829ec6",
    "lottery-abort-fixed-cheat":
        "a3b8f0c43eb2627247396e0a284ce369894e1dd4e54f1fb3e67db1b730b0a84c",
    "auction-honest":
        "9559e5354e07fcf5448725e7db0df973d72f5f744735814efe2e014a956a0828",
    "auction-wrong-winner":
        "c255b85c6cb9d015b2f760883192ec5fb5a5eb57dd7e2cbadde16b482fbdc309",
    "auction-inflate":
        "8af702ca63e56d319293d8dd879ecb3640c2f5462b49f09471ca7ce2485c9604",
    "auction-drop-loser":
        "7f0751b7a3a20e4c348ac7c6193b60dcb72c11142e93524e503865001d5a9cc4",
    "auction-change-ideal":
        "10e97b77904976ed7f2c1f11c4c18aee73b75e4c963ed85635b030f4fbe46474",
    "auction-change-cheat":
        "f686d6bce3f10c60d3d8e9c4a79468b9d66a19036eb6acda38725851f459e6bd",
    "auction-complain":
        "5bb7dfa0e3096f3420445600f70ff970f244a9fe3b1148ee83cbc6eb3418be3a",
    "lottery-byzantine-silent":
        "db15c9b5cef2101f046b88f72769a296c99d2be1c65d48f32d0df83a03823227",
    "auction-byzantine-garbage":
        "3407f75a016bdba3e79c3f3bd5c47edb03700a7eb271a4f97fb444811ce17b11",
    "lottery-byzantine-equivocate":
        "c55d377f234b4847d52edda7df15c200554ea1875a4cda737dd8e6bd751daab8",
    "lottery-boundary-guarantees-void":
        "a1d1c402ee7e3d77ba7a7e6dc65239656ea897c8987099723d0a3a651d623f50",
    "auction-boundary-guarantees-void":
        "05101406ad2ef9828daf98f74360bb160f6e31ba358af103378f27547bdc13fd",
    "lottery-summary-log":
        "e6d8704544d8cd7f1859fdd2385f434c567530749eebb3a3a4d70df0cd14330c",
    "auction-summary-log":
        "e4f924b239c29e5375ed7d369e2554e34de72e8ce08af77d2e91e511adb955c2",
    "lottery-equivocate-cheat-1":
        "b946718884ecdd0ce52a54293a5dab4274f8489fba83c9d0bda31064f8abdd15",
    "auction-change-cheat-1":
        "df00571dcafbcab3102054f468878cff0a52f9c672ec0de04f27ea66ca70e672",
    "lottery-one-miner":
        "5d7ab0db8c84510cf51caa01e01b1222f47c801d8c1354bfebac2cfd1504d644",
    "auction-one-miner":
        "1d01c9c7ee8c091eb0d84d0ccd35f41584af4785e6638fa805a4adc821f0a429",
    "qbc-bell-pair":
        "937dfc5e837704a59c982ed2516ff3c9e9453a34271e81a09da7dd8f033df2bb",
    "qbc-concealing-dim3":
        "7564f82f1d767e5d7c1a8f280a5da181d16c3b408dc119be7a813ddc87288912",
    "qbc-product":
        "4b457cc4cf48312ea0bc66dbdf8ebfc134ad05e8bfb9ef06b5be8b224787e7ee",
}


GOLDEN_V3 = {
    "lottery-exclude-honest-ideal":
        "646b7d3c692215de70baafb261576f81d3c00e3fb99ee6b3adf57ce324a22531",
    "lottery-exclude-fixed-equivocate-cheat":
        "34d245735ff043c586e9597661a7fb22f211dc2c2d9e13f73a7fd56acf7b7bbd",
    "lottery-abort-equivocate-ideal":
        "575dadad7fda696e695a30e639cd8afc3b9406fb811f1ecabef3f9aee4437d3e",
    "lottery-abort-fixed-cheat":
        "e58962e2ba95c98f9bd98b832d630efd82b100e980f613aaf590b1800d1d1c2d",
    "auction-honest":
        "63b646a10d203a63d7d5a9064936a8baa24c0ddf69a52f5fb0184c02bd9abd97",
    "auction-wrong-winner":
        "b511f9dd73958264a7a106b3438e5100b6ef0b863c5beb998769bd3fe66997ce",
    "auction-inflate":
        "216bd06d5da0f318c98111d6697ba02d98a57591ce9603f48e5bfd60590799df",
    "auction-drop-loser":
        "029763e0487ca200f59689bbcbe8ce5157c3f164e1108ec67f14be7555a4196a",
    "auction-change-ideal":
        "1e850e88d7c513676e50eec8e6eabbe7cd303ee61d363086d64be9abf6c7d7f2",
    "auction-change-cheat":
        "b7d93f73dfdf1b43bb16bef876a0cfb1098fe1c38863b253f16670dcee0a71fb",
    "auction-complain":
        "20888eedc76670082246d41275294b5553a161130b9f2c588c4f9def9f1fe489",
    "lottery-byzantine-silent":
        "1ed4b03d5add0906ecc1bd4f8c3f8013ac29d0d40217ed612ab7870c9c01727e",
    "auction-byzantine-garbage":
        "5f8799eac0bc8920723229dcb447c95dbcaa825c9e187e31357f4e11f2054f67",
    "lottery-byzantine-equivocate":
        "583a13a4f43a3dd4885f23e92f1041dfbedfc59bfea908f0460739fe376bedc8",
    "lottery-boundary-guarantees-void":
        "8312a965c40e140eee139bc1e8ae77ae4937d10d29f051e00eb40051a8ea66b3",
    "auction-boundary-guarantees-void":
        "134b3e2a97201fc2673532d4e779bcf525a07495c684054ef126c36ee9901557",
    "lottery-summary-log":
        "1b0a816de2fd6221a0c38f950281442f1fbb23949049a1c949b84e06694299ce",
    "auction-summary-log":
        "9776f2421aa78d031a6e8b9b91ab13ebb0dca18c78499fcd4cb2df739ba539e3",
    "lottery-equivocate-cheat-1":
        "42be26e07455208d7fcb483d9f8d7353291c264be926d70a147d72ea1e318de9",
    "auction-change-cheat-1":
        "37531f47676b31e9f51a3fd357e070389b96f2a027d3c9ae5d39676370099db9",
    "lottery-one-miner":
        "5b668cdd8b1d7a84d9a833c15f37a8abc72e39865aa40643f73e7b8ffd921f6a",
    "auction-one-miner":
        "5b4440693e43a05608c9a8b4d53987d32a47fa9e2df4ba58408c76e7294f1376",
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
GOLDEN_STATS = {
    "lottery-honest": (
        dict(LOTTERY, seed=21),
        "1e2ca316fded32074743747ada614a5a056e1254723c00c7b118e6362ea9682b",
    ),
    "lottery-equivocate-cheat": (
        dict(LOTTERY, seed=22, backend="cheat:0.5",
             player_policies={"1": "equivocate:00000000:11111111"}),
        "dddeae324944f19107b591061f2f6ab691ed36416555c8a5535c4bf8c69a4d14",
    ),
    # every run aborts: no decided run, so no frequencies or p-values
    "lottery-abort-undecided": (
        dict(LOTTERY, seed=23, cheat_policy="abort",
             player_policies={"0": "equivocate:00001111:11110000"}),
        "4eb14d78944c575524f63117e23c0e730c173482f3626f66b50c2816c0291b2a",
    ),
    # undetected equivocations decide, detected ones abort: both kinds sum
    "lottery-abort-some-decide": (
        dict(LOTTERY, seed=27, cheat_policy="abort", backend="cheat:0.1",
             player_policies={"2": "equivocate:00000000:11111111"}),
        "e9a223fa6be0c7374cc354f42d08d7095b551586aecfeac0078ac037adc59a61",
    ),
    "auction-honest": (
        dict(AUCTION, seed=24),
        "c4f18642bd24071cf819ab150f7600c8c56beee2e38946b43fc5e78d2a05fba7",
    ),
    # every buyer is excluded: no bids, no winner
    "auction-no-bids": (
        dict(AUCTION, seed=25, buyer_policies={"0": "change:4:5", "1": "change:6:7",
                                               "2": "change:8:9"}),
        "f743cfcea746117721fa8bcaf6984106cbfb2c8e76dc3858a1c2dc82277b1b5d",
    ),
    # two-bit bids tie often, which leaves drop-loser nothing to forge
    "auction-drop-loser-byzantine": (
        dict(AUCTION, seed=26, buyers=2, bid_width=2, miners=4, seller_policy="drop-loser",
             byzantine_miners={"3": "equivocate"}),
        "1353f65b2835d89afe9563eca4ec4e9a83ee1fa64eed69cb728e89bf43c3a7e7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STATS))
def test_golden_stats_bytes(name):
    data, expected = GOLDEN_STATS[name]
    agg = run_batch(ScenarioConfig.from_dict(dict(data)), runs=STATS_RUNS, workers=1)
    assert digest(agg) == expected
