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
        "4445e8d214029585cda6d6e3434e1fc713eb168ff332a47a7cba7c57242b158d",
        "ff10c5229e5fec125756c5acbbdc7a030e5645dbccae6d1c7181155aeeb8e615",
    )),
    # every local solve stops at the iteration cap, every round
    "admm_capped": ("admm.yaml", ["rounds=10", "params.solver_cap=40"], (
        "3ef52a46ee76942f169867fadd302cb5023feff1e6277a98f57fad6c4a046936",
        "501c445aa542009d5ffc3083a6dbf9b2d375fbdc8dfe41905abff2f4171bbd8c",
        "3f91c65ab17818a531469b872913e2b64a1e4a5fb835fc8706506bf410bb2aa0",
        "603b196fdc7484a10f03b298b038ebf3179d47b5b083e5391d2726974917db3c",
    )),
    "demand_response": ("demand_response.yaml", [], (
        "66c96032cf2c7118a1fdbf3821f2dd6c83b4ae2201257efd67251274bb55bb57",
        "299a1d0a175f10ac67eb0aed8de02007d2883826a29d6f60b53c007d8f78e5fa",
        "44625cc4482042ede653f5c8e0c3a6b9971e583b7b2c97eae88a9304594f7217",
        "825caf70d7f7360834f44556282fea738afa678f0f6df92be773753565fe0465",
    )),
    # paper scale, J = 15000
    "demand_response_paper": ("demand_response.yaml", ["rounds=10", "params.num_eds=15000"], (
        "01a95eb29a299260ce693fb7dbe0970a60a12861753ba7115484eb01f39ee01e",
        "f268d4f813591c7619ad772883544b4a2bcffb3c6333f917e7c4b3344b4adeae",
        "dadac1f3e3a9b66a92dd31c942bcd68fa301b102714ffde5938263ad602d5595",
        "be22b08c52199ace526773033cbf19de9eef90b8e6f9ae95d96cbfeb3b1ab8a6",
    )),
    "demand_response_expected": (
        "demand_response.yaml",
        ["rounds=5", "utility_mode=expected", "utility_samples=32"],
        (
            "6d1455b8f37027a70095cd757a7c9808f0838049fecb58334add253f35a1b06b",
            "e6697ead04be99b1248b51a3bbb6ade11ec817c6b8c5df18ee3adb72aefedcd1",
            "d84d0f42432aeae380dee935ff16957e65628d22b69735afb20ca9f24dcf6c53",
            "7d897e639361cd061a2ac11abbd4bf191a4bfcfcb4365abbbed7d80112634629",
        ),
    ),
    # 30 rounds of reveals: expected mode replays many history rows
    "demand_response_expected_long": (
        "demand_response.yaml",
        ["rounds=30", "utility_mode=expected", "utility_samples=8"],
        (
            "c46c98f03eb102fe13e5194582d151602b02b4f6bd16af9992b748b1cfd21713",
            "6ac4af7303501295acd9fea8ebb9c4ff95e962158a4fb734125b34b287bf5d75",
            "3e9697c5f737477b59e9165041acbf4aa9fa47026d9fa97483b23ea0ae133f77",
            "36cba9c5a442a8b96e62175a899c92aa8e2792819f5943b1d9a967373737c422",
        ),
    ),
    # paper scale in expected mode: the initial history block is read back
    # from the generator, and the draws are gathered from the gain table
    "demand_response_expected_paper": (
        "demand_response.yaml",
        ["params.num_eds=15000", "utility_mode=expected", "utility_samples=32", "rounds=5"],
        (
            "4f208d8642aae66020116f40a1102eb1b18cce50080e3e83b68ddd5209f6ad20",
            "56258f92047ef69cea5ce588dfc4f39823bc4a8924bc2cefbffd88d57d876905",
            "784f8b1d0e01963ba339b2bd8202cf6ad2d18cca5af3f3ce864259858be69fff",
            "7c2c1fdade28204f0acfdb20f8c7f793afa99f45e9ba7521cba22ee9fd9cc548",
        ),
    ),
    "edge_learning": ("edge_learning.yaml", ["rounds=10"], (
        "56844f253de977b95e5203228f9129298461354c7d5e49a09c0bba8abd069f77",
        "0db99a529b3a9912841e124bfc355e758d9760bc38b784eb962491184ebc5c08",
        "00e8f96c8a40d93ae7481cc228918db35c018f01b5c12ff9718885e1d65738c5",
        "3bf217afd7216c7c6b4a7a7219e94f5cb32d292c618094132aabd84378f631fb",
    )),
    "federated": ("federated.yaml", ["rounds=10"], (
        "98fb675dfcfe557dd9669d150f988f90e7303fb19d822f887ccd65bb7e65ca19",
        "53f379fff4abb70a30535059680491b650b63108cf60fb640c840379828b2bdd",
        "b188f87fb346b85b6559e367bf49b7012e8f9f8149773b940c675002717605c0",
        "b53122af7d6475954c54ed8dad386ebc16004f06e1d3833d71c9c781c42dfcaa",
    )),
    "routing": ("routing.yaml", [], (
        "e1cb114c313961751f343d545205f5267a141cce7a944b479cefe2e73d800415",
        "f8da8f4d13263e8ec4dae1dcacb8507c4d070909961035e713cf1a99fcd9a71e",
        "e15710e976d4fb4dd38da42e1f4b5aae8d81def91ca468fa5fe7fa8d7735e78d",
        "cfa6c62b386d58574009298641e0e61bb7bd4b7bd394412c245ab66a540c16f7",
    )),
    "routing_expected": (
        "routing.yaml",
        ["utility_mode=expected", "utility_samples=16"],
        (
            "e1cb114c313961751f343d545205f5267a141cce7a944b479cefe2e73d800415",
            "7a679444d388dbd262afd298347cf74e2f4d1d13443202de40da0c07537a44db",
            "18ff9afd3c1eca44acabfb7c64cc66158b71c75d816ec4c65cf59811d470f6b4",
            "cfa6c62b386d58574009298641e0e61bb7bd4b7bd394412c245ab66a540c16f7",
        ),
    ),
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
