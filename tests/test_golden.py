"""Golden run reports: the sha256 of each canonical report is pinned.

Every config below covers one policy, backend, Byzantine script or
protocol; a refactor that leaves the program's behaviour alone keeps
every hash. A change that moves a hash changes report bytes and has to
say which field changed and why. The `qbc_analyze` reports carry
floating-point results of numpy's linear algebra, so their hashes hold
for one numpy/LAPACK build only.

Each config pins two hashes: `GOLDEN` the schema-1 report, rebuilt
from the run's schema-2 report by `oracles.report_v1`, and `GOLDEN_V2`
the schema-2 report itself. The schema-1 hashes predate version 2, so
they show that version 2 dropped no fact of version 1.
"""

import hashlib
from pathlib import Path

import pytest

from oracles import report_v1
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
        "a7efbaf1758019f455e0d3ecabf32a31d5b555e591f4537149ed7467716c30b7",
    ),
    "qbc-concealing-dim3": (
        dict(protocol="qbc_analyze", scheme_file="schemes/concealing_dim3.json"),
        "eb6ad6e5ab1405a57e44c9709def780f7c40fa648265465729731f3e77fd3f2e",
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
        "61af33a5cb2f61a390c03c8243ddef931108cacf796f615452d197424ae2810b",
    "qbc-concealing-dim3":
        "e10074e296f408bde6896bddfc3cdafb37eb91d54adae3d81409ca6910a3550d",
    "qbc-product":
        "4b457cc4cf48312ea0bc66dbdf8ebfc134ad05e8bfb9ef06b5be8b224787e7ee",
}


def digest(report: dict) -> str:
    return hashlib.sha256(canonical_report_bytes(report)).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # scheme files are named relative to the checkout
    data, v1_digest = GOLDEN[name]
    report = run_scenario(ScenarioConfig.from_dict(dict(data)))
    assert digest(report) == GOLDEN_V2[name]
    assert digest(report_v1(report)) == v1_digest
