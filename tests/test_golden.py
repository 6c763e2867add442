"""Golden run reports: the sha256 of each canonical report is pinned.

Every config below covers one policy, backend, Byzantine script or
protocol; a refactor that leaves the program's behaviour alone keeps
every hash. A change that moves a hash changes report bytes and has to
say which field changed and why. The `qbc_analyze` reports carry
floating-point results of numpy's linear algebra, so their hashes hold
for one numpy/LAPACK build only.
"""

import hashlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # scheme files are named relative to the checkout
    data, digest = GOLDEN[name]
    report = canonical_report_bytes(run_scenario(ScenarioConfig.from_dict(dict(data))))
    assert hashlib.sha256(report).hexdigest() == digest
