"""README.md's shell commands are real, checked without running any of them.

Each ```sh block is read line by line. A `NAME=value` line sets a variable
for the rest of its block, and `$NAME` or `${NAME}` expands it; `#` starts
a comment. Every other line must be one of these commands:

- `goalrba ...`, parsed by the CLI's own parser, its `--config` loaded with
  `load_config` and the line's `--set` overrides;
- `python3 scripts/preset_digests.py ...`, parsed by the script's parser,
  each config loaded with `load_config` and the line's `--set` overrides;
- `python3 scripts/<name>.py ...`, `pytest ...` or `pip install ...`.

On every line, each `scripts/*.py` and `tests/*.py` path must exist. The CI
workflow is checked here too: it runs ROADMAP's tier-1 command.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
import yaml

from goalrba import cli
from goalrba.harness import ConfigError, load_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

ASSIGNMENT = re.compile(r"[A-Za-z_]\w*=\S*")
VARIABLE = re.compile(r"\$(?:\{(\w+)\}|(\w+))")
LOCAL_SCRIPT = re.compile(r"(?:scripts|tests)/[\w/.-]+\.py(?:::\S*)?")


def commands(markdown):
    """(line, argv) of every command in the sh blocks, variables expanded.

    An unset variable raises KeyError.
    """
    for block in re.findall(r"^```sh\n(.*?)^```", markdown, re.S | re.M):
        variables = {}
        for line in block.splitlines():
            argv = [VARIABLE.sub(lambda m: variables[m[1] or m[2]], arg)
                    for arg in shlex.split(line, comments=True)]
            if len(argv) == 1 and ASSIGNMENT.fullmatch(argv[0]):
                name, value = argv[0].split("=", 1)
                variables[name] = value
            elif argv:
                yield line, argv


def _parse(parser, args):
    """parser.parse_args(args), or the message it exits with as a string."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            return parser.parse_args(args)
    except SystemExit as exc:
        return f"rejected ({exc.code}): {stderr.getvalue().strip()}"


def _load(path, overrides):
    """load_config(path, overrides)'s ConfigError as a list of one problem, else []."""
    try:
        load_config(path, overrides)
    except ConfigError as exc:
        return [f"config error: {exc}"]
    return []


def problems(argv, preset_digests):
    """What is wrong with one README command; an empty list if nothing is."""
    found = [f"no such file: {arg}" for arg in argv
             if LOCAL_SCRIPT.fullmatch(arg) and not (ROOT / arg.split("::")[0]).is_file()]
    program, args = argv[0], argv[1:]
    if program == "goalrba":
        parsed = _parse(cli._build_parser(), args)
        if isinstance(parsed, str):
            return found + [parsed]
        if getattr(parsed, "config", None):
            found += _load(ROOT / parsed.config, parsed.overrides)
    elif program == "python3" and args and args[0] == "scripts/preset_digests.py":
        parsed = _parse(preset_digests._build_parser(), args[1:])
        if isinstance(parsed, str):
            return found + [parsed]
        for config in parsed.configs or sorted((ROOT / "configs").glob("*.yaml")):
            if not (ROOT / config).is_file():
                found.append(f"no such config: {config}")
                continue
            found += _load(ROOT / config, parsed.overrides)
    elif program == "python3" and args and LOCAL_SCRIPT.fullmatch(args[0]):
        pass
    elif program == "pytest" or argv[:2] == ["pip", "install"]:
        pass
    else:
        found.append(f"not a command of this project: {program}")
    return found


def readme_problems(markdown, preset_digests):
    return [f"{line.strip()} -> {problem}"
            for line, argv in commands(markdown)
            for problem in problems(argv, preset_digests)]


def test_every_readme_command_parses_and_loads_its_configs(preset_digests):
    markdown = README.read_text()
    programs = [argv[:2] for _, argv in commands(markdown)]
    # the blocks were found: each kind of command is there
    for program in (["goalrba", "run"], ["goalrba", "compare"], ["goalrba", "claims"],
                    ["goalrba", "verify"], ["python3", "scripts/preset_digests.py"],
                    ["python3", "scripts/bench_pairs.py"], ["pytest"]):
        assert any(p[:len(program)] == program for p in programs), program
    assert readme_problems(markdown, preset_digests) == []


BAD_BLOCK = """
Some prose.

```sh
DR=configs/demand_response.yaml
goalrba claims --config $DR --seeds 1 2      # fine
goalrba run --config configs/missing.yaml --out out.csv
goalrba run --config ${DR} --polcy hybrid --out out.csv
goalrba claims --config $DR --set rounds=abc
python3 scripts/preset_digests.py $DR --set params.num_ed=15000
python3 scripts/no_such_script.py
pytest tests/test_no_such_file.py -q
make all
```
"""


def test_the_check_fails_on_a_missing_config_and_on_a_bad_flag(preset_digests):
    found = readme_problems(BAD_BLOCK, preset_digests)
    assert len(found) == 7, found
    missing, flag, value, key, script, test, make = found
    assert missing.startswith("goalrba run --config configs/missing.yaml")
    assert "config error: config file not found: " in missing
    assert "rejected (1): " in flag and "--polcy" in flag
    assert value.endswith("config error: rounds must be int, got 'abc'")
    assert "unknown key 'num_ed' in demand_response block" in key
    assert script.endswith("no such file: scripts/no_such_script.py")
    assert test.endswith("no such file: tests/test_no_such_file.py")
    assert make.endswith("not a command of this project: make")


def test_a_variable_holds_only_within_its_block():
    first = "```sh\nDR=configs/demand_response.yaml\ngoalrba claims --config $DR\n```\n"
    assert [argv for _, argv in commands(first)] == [
        ["goalrba", "claims", "--config", "configs/demand_response.yaml"]]
    with pytest.raises(KeyError, match="DR"):
        list(commands(first + "\n```sh\ngoalrba claims --config $DR\n```\n"))


def test_ci_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    [tier1] = re.findall(r"^\*\*Tier-1 verify:\*\* `(.+)`$", roadmap, re.M)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    [job] = workflow["jobs"].values()
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"',
                      (ROOT / "pyproject.toml").read_text())[1]
    assert job["strategy"]["matrix"]["python-version"] == [floor, "3.11"]
    runs = [step for step in job["steps"] if "run" in step]
    assert 'pip install -e ".[test]"' in runs[0]["run"]
    assert runs[-1]["run"] == tier1
    assert runs[-1]["env"] == {"OPENBLAS_NUM_THREADS": "1"}
