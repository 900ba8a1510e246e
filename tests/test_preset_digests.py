"""scripts/preset_digests.py: `--set` values are read as a config reads them.

No `goalrba compare` is run here; test_digests.py runs the script end to end.
"""

import argparse
from pathlib import Path

import pytest

from goalrba.harness import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("text, keys, value", [
    ("params.lr=1e-3", ["params", "lr"], 0.001),
    ("params.num_eds=15000", ["params", "num_eds"], 15000),
    ("rounds=25", ["rounds"], 25),
    ("utility_mode=expected", ["utility_mode"], "expected"),
    ("params.cost_range=[0.0, 5.0]", ["params", "cost_range"], [0.0, 5.0]),
    ("params.pi_min=null", ["params", "pi_min"], None),
])
def test_parse_override_reads_the_value_as_a_config_does(preset_digests, text, keys, value):
    parsed_keys, parsed = preset_digests.parse_override(text)
    assert parsed_keys == keys
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize("text", ["rounds", "=3", "params..lr=1", "params.=1", "rounds=[1"])
def test_parse_override_rejects_a_malformed_override(preset_digests, text):
    with pytest.raises(argparse.ArgumentTypeError):
        preset_digests.parse_override(text)


def test_an_overridden_config_carries_a_float_written_without_an_exponent_sign(
        preset_digests, tmp_path):
    override = preset_digests.parse_override("params.lr=1e-3")
    path = preset_digests.overridden(CONFIGS / "edge_learning.yaml", [override], tmp_path)
    assert load_config(path).params["lr"] == 0.001


def test_an_override_leaves_a_config_that_is_not_a_mapping_to_goalrba(preset_digests, tmp_path):
    config = tmp_path / "list.yaml"
    config.write_text("- 1\n")
    override = preset_digests.parse_override("rounds=2")
    assert preset_digests.overridden(config, [override], tmp_path / "out") == config
