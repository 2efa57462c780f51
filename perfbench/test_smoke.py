"""Smoke test of the benchmark harness, kept out of the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload on a tiny input, traced and untraced, so the harness,
its oracles and its tracer cannot rot unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent



def _run(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_smoke_runs_every_workload_and_oracle():
    summary = json.loads(_run("--smoke")[-1])["smoke"]
    assert set(summary) == {"families", "ladder", "search"}
    for name, result in summary.items():
        assert result["attempted"] > 0, name
        assert result["failures"] == {}, (name, result["failures"])
        assert "verifier.verify_nice_s" in result["metrics"], name


def test_result_line_follows_the_output_contract():
    lines = _run("--workload", "families", "--seed", "7", "--seconds", "0.5", "--trace", "0")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {
        "setup_s", "cmd_p50_s", "cmd_tail_s", "cmds_per_s", "peak_rss_mb",
    }
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(lines[-2])
    assert detail["environment"]["seed"] == 7
    # The box := cake forgery runs once, untimed, on every spec; whether
    # verify rejects it is reported, not asserted (ROADMAP.md item 1).
    probe = detail["known_defects"]["box_is_cake_rejected"]
    assert probe["certificates"] == len(detail["inputs"]["specs"])


def test_outside_a_checkout_it_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
