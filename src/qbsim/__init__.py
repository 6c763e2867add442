"""qbsim: deterministic lottery/auction protocol simulator on an
authenticated quantum-blockchain stack, plus a numerical model of the
underlying bit-commitment primitive.

Library entry points: `qbsim.scenario.run_scenario` (full configured
run -> report, with `ScenarioConfig`), `qbsim.lottery.run_lottery` /
`qbsim.auction.run_auction` (protocol-level), `qbsim.batch.run_batch`
(statistics), and the `qbsim.qbc` subpackage for the commitment
numerics.
"""

__version__ = "0.1.0"
