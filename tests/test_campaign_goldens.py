"""Byte-for-byte goldens for every ``repro run`` campaign.

Each case runs one campaign at a small size through
:func:`repro.cli.main` and compares its stdout report and its sim-domain
``--metrics`` JSON with the files under ``tests/goldens/``.  The goldens
pin results, not code: a refactor of the campaign plumbing must leave
every byte in place.

``goldens/rundirs/`` holds run directories checkpointed by an earlier
layout of the campaign plumbing (two shard spills each).  Resuming one
must either reproduce the golden bytes or be refused with
``CheckpointMismatch`` — never merge into different results.

Regenerate the goldens only for a change that is meant to alter
results::

    PYTHONPATH=src python -m tests.test_campaign_goldens
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"
PLAN = str(GOLDENS / "plan.json")

#: case name -> ``repro run`` arguments (``--metrics``/``--quiet`` added).
CASES: dict[str, list[str]] = {
    "t2-uy": ["t2-uy", "--probes", "16", "--duration", "1200", "--shards", "4"],
    "t2-uy-faults-predict": [
        "t2-uy", "--probes", "12", "--duration", "1200", "--shards", "4",
        "--faults", PLAN, "--predict",
    ],
    "t2-anicuy": ["t2-anicuy", "--probes", "16", "--duration", "1200", "--shards", "4"],
    "t2-googleco": ["t2-googleco", "--probes", "16", "--duration", "1200", "--shards", "4"],
    "t10-controlled": ["t10-controlled", "--probes", "8", "--duration", "1200"],
    "crawl": ["crawl", "--scale", "0.0002", "--shards", "4"],
    "ddos": ["ddos", "--duration", "1800"],
    "ddos-faults": ["ddos", "--duration", "1800", "--faults", PLAN],
    "prefetch": ["prefetch", "--duration", "300"],
    "ecs": ["ecs", "--duration", "300"],
    "push": ["push", "--duration", "600"],
    "push-faults": ["push", "--duration", "600", "--faults", PLAN],
}


#: Checkpointed run dirs -> whether this code resumes them (True) or
#: refuses them as a different campaign (False): the matrix fingerprints
#: of ddos and t10-controlled now name their cells like every matrix.
PRIOR_RUN_DIRS = {
    "t2-uy": True,
    "t10-controlled": False,
    "ddos": False,
    "prefetch": True,
    "ecs": True,
    "push": True,
}


def run_case(name: str, metrics_path: Path, *extra: str, status: int = 0) -> str:
    """Run one case; returns its stdout (the metrics land in the file)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["run", *CASES[name], *extra, "--quiet", "--metrics", str(metrics_path)]
        )
    assert code == status
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_matches_golden(name, tmp_path):
    metrics = tmp_path / "metrics.json"
    report = run_case(name, metrics)
    assert report == (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    assert metrics.read_bytes() == (GOLDENS / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(PRIOR_RUN_DIRS))
def test_prior_run_dir_resumes_identically_or_is_refused(name, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDENS / "rundirs" / name, run_dir)
    metrics = tmp_path / "metrics.json"
    if PRIOR_RUN_DIRS[name]:
        report = run_case(name, metrics, "--run-dir", str(run_dir))
        assert report == (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
        assert metrics.read_bytes() == (GOLDENS / f"{name}.json").read_bytes()
    else:
        report = run_case(name, metrics, "--run-dir", str(run_dir), status=2)
        assert report == ""
        assert "different campaign" in capsys.readouterr().err
        assert not metrics.exists()


def test_every_campaign_has_a_golden():
    from repro.runner.registry import CAMPAIGNS

    assert {args[0] for args in CASES.values()} == set(CAMPAIGNS)


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            metrics = Path(tmp) / "metrics.json"
            report = run_case(name, metrics)
            (GOLDENS / f"{name}.txt").write_text(report, encoding="utf-8")
            (GOLDENS / f"{name}.json").write_bytes(metrics.read_bytes())
            print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
