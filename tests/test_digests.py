"""The fast configs keep their metrics CSVs byte for byte.

Runs scripts/preset_digests.py (which pins BLAS to one thread) on each
config and compares the sha256 of every file `goalrba compare` writes with
the value recorded when the config was added here. A change that moves a
single float of these CSVs fails this test; a change that means to move
them records the new digests and says why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "preset_digests.py"

# (preset, --set overrides, sha256 of channel, hybrid, summary, utility .csv)
CASES = {
    "admm": ("admm.yaml", ["rounds=20"], (
        "d47ee80bb8899b1905711037e174b927c7a519818de3bc5ee6d2b47bfbe9b93b",
        "57207936a447660eecd174860991e40931a126adec16e10b7d330ef915505d34",
        "fd608b88202859034f042be6583f05e429a347c8d1d7fdba9bc9e2000ce76ad6",
        "ff10c5229e5fec125756c5acbbdc7a030e5645dbccae6d1c7181155aeeb8e615",
    )),
    # every local solve stops at the iteration cap, every round
    "admm_capped": ("admm.yaml", ["rounds=10", "params.solver_cap=40"], (
        "3ef52a46ee76942f169867fadd302cb5023feff1e6277a98f57fad6c4a046936",
        "501c445aa542009d5ffc3083a6dbf9b2d375fbdc8dfe41905abff2f4171bbd8c",
        "9e3770738177451e042550636cc143caaa8c38174915954bc044523fa2236eb4",
        "603b196fdc7484a10f03b298b038ebf3179d47b5b083e5391d2726974917db3c",
    )),
    "demand_response": ("demand_response.yaml", [], (
        "66c96032cf2c7118a1fdbf3821f2dd6c83b4ae2201257efd67251274bb55bb57",
        "299a1d0a175f10ac67eb0aed8de02007d2883826a29d6f60b53c007d8f78e5fa",
        "9b2e85a6dbe25b3900375151fe41897b1efabf6c247b5545a2171cf6fbacf0ac",
        "825caf70d7f7360834f44556282fea738afa678f0f6df92be773753565fe0465",
    )),
    # paper scale, J = 15000
    "demand_response_paper": ("demand_response.yaml", ["rounds=10", "params.num_eds=15000"], (
        "01a95eb29a299260ce693fb7dbe0970a60a12861753ba7115484eb01f39ee01e",
        "f268d4f813591c7619ad772883544b4a2bcffb3c6333f917e7c4b3344b4adeae",
        "cc1cfbeb31476f529e2bcb7ae129a2db559c43d23c746670be882ca4d5b97685",
        "be22b08c52199ace526773033cbf19de9eef90b8e6f9ae95d96cbfeb3b1ab8a6",
    )),
    "demand_response_expected": (
        "demand_response.yaml",
        ["rounds=5", "utility_mode=expected", "utility_samples=32"],
        (
            "6d1455b8f37027a70095cd757a7c9808f0838049fecb58334add253f35a1b06b",
            "553092f5bb8f81b619f7d3cf93bf5d46fdb73b3444ed3adaf90215557fe65180",
            "37ffd8a8ecbcf7ace2244bdefa244a942206df57181ceaa64c1967742e747d5b",
            "34d7207ae3f11d72491a94d24259d011159ed8dda76224713882f899eff152c2",
        ),
    ),
    # 30 rounds of reveals: expected mode replays many history rows
    "demand_response_expected_long": (
        "demand_response.yaml",
        ["rounds=30", "utility_mode=expected", "utility_samples=8"],
        (
            "c46c98f03eb102fe13e5194582d151602b02b4f6bd16af9992b748b1cfd21713",
            "dcb500c2a7f0e06f7a67dc646a1a276dfefc57b62c6b5eca2160749df2694a97",
            "31209e5c87c7a336bb2bf8533a56c1d959b264664cff21ea802c88ffcb2977ba",
            "83c7854576e0f71d41df3b83f7c50fd056787ea2c50a9e78a071fb726dd2570a",
        ),
    ),
    # paper scale in expected mode: the initial history block is read back
    # from the generator, and the draws are gathered from the gain table
    "demand_response_expected_paper": (
        "demand_response.yaml",
        ["params.num_eds=15000", "utility_mode=expected", "utility_samples=32", "rounds=5"],
        (
            "4f208d8642aae66020116f40a1102eb1b18cce50080e3e83b68ddd5209f6ad20",
            "288baa38811b30ecd22c8b445f2dfe38b621d087884730d05bbb0a8ca3821513",
            "2860527c2520fcb54eaea3cc0eda0eb77f66bd21ec8b5f9859c7abcffe67d0f0",
            "7667cb7b85a15ee8ed6565c3ae36c348a2df0db0b6db0fa3b3107d57d8e1fb7b",
        ),
    ),
    "edge_learning": ("edge_learning.yaml", ["rounds=10"], (
        "56844f253de977b95e5203228f9129298461354c7d5e49a09c0bba8abd069f77",
        "0db99a529b3a9912841e124bfc355e758d9760bc38b784eb962491184ebc5c08",
        "c602ba062c0692c800c47afc89baac351938fe8992ff78431269d7e06a88c2e7",
        "3bf217afd7216c7c6b4a7a7219e94f5cb32d292c618094132aabd84378f631fb",
    )),
    "federated": ("federated.yaml", ["rounds=10"], (
        "98fb675dfcfe557dd9669d150f988f90e7303fb19d822f887ccd65bb7e65ca19",
        "53f379fff4abb70a30535059680491b650b63108cf60fb640c840379828b2bdd",
        "97e0d140bc239187812764521c97d1ddf11311f880ececaaca73167598d9d0be",
        "b53122af7d6475954c54ed8dad386ebc16004f06e1d3833d71c9c781c42dfcaa",
    )),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_decision_configs_keep_their_digests(case):
    preset, overrides, digests = CASES[case]
    sets = [arg for override in overrides for arg in ("--set", override)]
    res = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT / "configs" / preset), *sets],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    names = ["channel.csv", "hybrid.csv", "summary.csv", "utility.csv"]
    expected = [f"{preset} {name} {digest}" for name, digest in zip(names, digests)]
    assert res.stdout.splitlines() == expected
