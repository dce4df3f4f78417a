"""The ``repro run`` campaign table (repro.runner.registry)."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner.registry import CAMPAIGNS, campaigns_taking

CI = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"
SRC = Path(repro.__file__).resolve().parents[1]


def test_option_gates_follow_the_table():
    centricity = ("t2-uy", "t2-anicuy", "t2-googleco")
    assert campaigns_taking("faults") == centricity + ("ddos", "push")
    assert campaigns_taking("predict") == centricity
    assert campaigns_taking("snapshot_every") == centricity


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_scenario_takes_every_option_it_is_fed(name):
    module, _, function = CAMPAIGNS[name].scenario.partition(":")
    scenario = getattr(__import__(module, fromlist=[function]), function)
    accepted = set(inspect.signature(scenario).parameters)
    common = {"seed", "parallelism", "run_dir", "progress", "profile"}
    assert common | set(CAMPAIGNS[name].options) <= accepted


def test_ci_campaign_smoke_covers_every_campaign():
    text = CI.read_text(encoding="utf-8")
    job = text[text.index("  campaign-smoke:"):]
    job = job[: job.index("\n  perf-smoke:")]
    assert set(re.findall(r"^\s+campaign: (\S+)$", job, re.M)) == set(CAMPAIGNS)


def test_importing_the_cli_leaves_scenarios_unloaded():
    code = (
        "import sys, repro.cli; repro.cli.build_parser(); "
        "print('repro.core.scenarios' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "False"
