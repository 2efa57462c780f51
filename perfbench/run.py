"""Benchmark of the mirrorcut CLI.

    python3 perfbench/run.py --workload families|ladder|search \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  One closed-loop client in this process runs
passes of ``mirrorcut.cli.main(argv)`` calls, one at a time, which is
what a CLI user runs minus interpreter start.  Interpreter start is
measured separately, in fresh subprocesses started one at a time, as
``setup_s``.  A run keeps starting passes while the next one, if it takes
as long as the last, ends less than half a pass after ``--seconds``, so a
run measures ``--seconds`` give or take half a pass; it always runs at
least one pass, so a run of the ladder lasts one pass.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, in which every command runs untraced and then traced, back to back;
it reports per-pass medians and the tracing overhead.  The line before
it records the environment, the inputs and the breakdowns behind the
metrics.  ``--smoke`` runs every workload on a tiny input, traced and
untraced, and reports every oracle failure.

The timed passes hold only operations that succeed on a correct program.
A known defect is checked once per run, after the passes and untimed, and
reported under ``known_defects`` in the detail line.

Exit code 0 means the run finished (oracle failures are reported in the
result, not by the exit code); 2 means it could not run, for example
outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Optional

from tracing import Tracer
from workloads import WORKLOADS, Command, Runner, read_pins

SETUP_SAMPLES = 9
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mirrorcut.cli\n"
    "print(time.perf_counter() - t)\n"
)

# Per-layer metrics: name -> (key in the reduced layer stats, unit).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.self_s": ("cli.main_self_s", "s"),
    "constructions.build_calls": ("constructions.build_calls", "count"),
    "constructions.build_self_s": ("constructions.build_self_s", "s"),
    "verifier.verify_nice_calls": ("verifier.verify_nice_calls", "count"),
    "verifier.verify_nice_s": ("verifier.verify_nice_s", "s"),
    "verifier.verify_partition_s": ("verifier.verify_partition_s", "s"),
    "verifier.recover_motions_s": ("verifier.recover_motions_s", "s"),
    "verifier.not_nice": ("verifier.not_nice", "count"),
    "verifier.theorem1_s": ("verifier.theorem1_s", "s"),
    "verifier.claims_s": ("verifier.claims_s", "s"),
    "geom.polygon_builds": ("geom.polygon_build_calls", "count"),
    "geom.polygon_build_s": ("geom.polygon_build_s", "s"),
    "geom.intersection_area_calls": ("geom.intersection_area_calls", "count"),
    "geom.intersection_area_s": ("geom.intersection_area_s", "s"),
    "geom.triangulate_calls": ("geom.triangulate_calls", "count"),
    "geom.triangulate_s": ("geom.triangulate_s", "s"),
    "geom.find_motion_calls": ("geom.find_motion_calls", "count"),
    "geom.find_motion_s": ("geom.find_motion_s", "s"),
    "geom.find_motion_misses": ("geom.find_motion_misses", "count"),
    "relations.find_integer_relation_calls": ("relations.find_integer_relation_calls", "count"),
    "relations.find_integer_relation_s": ("relations.find_integer_relation_s", "s"),
    "relations.is_multiple_s": ("relations.is_multiple_s", "s"),
    "invariants.j_classic_calls": ("invariants.j_classic_calls", "count"),
    "invariants.j_classic_s": ("invariants.j_classic_s", "s"),
    "certificate.parse_s": ("certificate.parse_s", "s"),
    "certificate.serialize_s": ("certificate.serialize_s", "s"),
    "certificate.bytes": ("certificate.bytes", "B"),
    "svg.render_s": ("svg.render_s", "s"),
    "svg.bytes": ("svg.bytes", "B"),
    "search.split_s": ("search.split_s", "s"),
    "search.scan_s": ("search.scan_s", "s"),
    "search.dedupe_s": ("search.dedupe_s", "s"),
    "search.refine_s": ("search.refine_s", "s"),
    "search.certify_s": ("search.certify_s", "s"),
    "search.splits": ("search.splits", "count"),
    "search.split_calls": ("search.split_by_params_calls", "count"),
    "search.split_degenerate": ("search.split_degenerate", "count"),
    "search.refine_candidates": ("search.refine_candidates", "count"),
    "search.certify_calls": ("search.certify_calls", "count"),
    "search.hits": ("search.hits", "count"),
}
# Reported per ladder rung as well, e.g. verifier.verify_nice_s.n40.
RUNG_METRICS = (
    "cli.self_s",
    "verifier.verify_nice_s",
    "verifier.verify_partition_s",
    "geom.polygon_build_s",
    "geom.intersection_area_s",
    "geom.triangulate_s",
    "geom.find_motion_s",
    "certificate.parse_s",
)
LADDER_RUNGS = (5, 10, 20, 40)
# Per-layer metrics derived from the ones above or measured outside the spans.
DERIVED_UNITS = {
    "cli.import_s": "s",
    "cli.verify_nice_per_construct": "ratio",
    "search.certify_rejected": "count",
    "search.hits_per_certify": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# ROADMAP.md baseline for the largest rung (Python 3.11.7, one core).
ROADMAP_BASELINE = {
    "wheel.n40.construct_s": 8.2,
    "wheel.n40.verify_s": 3.7,
    "wheel.n40.verify_nice_s": 4.0,
}


class SetupError(Exception):
    """The benchmark cannot run here (not a checkout, broken import)."""


def _fail_setup(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _locate(root: Path) -> tuple[Path, Path]:
    src = root / "src"
    acceptance = root / "tests" / "test_acceptance.py"
    if not (src / "mirrorcut" / "cli.py").is_file():
        raise SetupError(f"no src/mirrorcut/cli.py under {root}; run from a checkout root")
    if not acceptance.is_file():
        raise SetupError(f"no {acceptance.relative_to(root)}; the pinned tolerances live there")
    return src, acceptance


def _import_mirrorcut(src: Path) -> dict[str, Any]:
    sys.path.insert(0, str(src))
    import mirrorcut.cli as cli  # noqa: E402
    from mirrorcut import constructions, geom, search, verifier

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"imported mirrorcut from {cli.__file__}, not from {src}")
    return {"cli": cli, "constructions": constructions, "verifier": verifier,
            "geom": geom, "search": search}


def measure_setup(src: Path, samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter importing mirrorcut.cli, and the import
    alone as the child measures it; subprocesses run one at a time."""
    walls, imports = [], []
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(src)],
            capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SetupError(f"importing mirrorcut.cli failed:\n{done.stderr}")
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    return walls, imports


def tail(passes: list[list[float]]) -> dict[str, Any]:
    """The highest percentile of command time with ten samples beyond it.

    Below 100 samples that percentile sits under p90, among the ordinary
    commands of a pass rather than in its tail.  Every pass runs the same
    commands, so the mean of each pass's slowest tenth (those beyond p90,
    at least one) is taken instead, averaged over the passes.
    """
    xs = sorted(x for p in passes for x in p)
    n = len(xs)
    rank = n - 10  # 1-based nearest rank with ten samples beyond it
    if 100.0 * rank / n >= 90.0:
        return {"value": xs[rank - 1], "statistic": f"p{100.0 * rank / n:.2f}",
                "samples": n, "samples_beyond": 10}
    slowest = [sorted(p)[len(p) - math.ceil(len(p) / 10):] for p in passes]
    return {"value": statistics.fmean(statistics.fmean(s) for s in slowest),
            "statistic": "mean beyond p90 per pass", "samples": n,
            "samples_averaged": sum(len(s) for s in slowest)}


def _median_by_tag(commands: list[Command]) -> dict[str, float]:
    groups: defaultdict[str, list[float]] = defaultdict(list)
    for c in commands:
        groups[c.tag].append(c.seconds)
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def _failures(commands: list[Command]) -> dict[str, Any]:
    failed = [c for c in commands if not c.ok]
    return {
        "by_oracle": dict(Counter(c.failed_oracle for c in failed)),
        "examples": [
            {"tag": c.tag, "oracle": c.failed_oracle, "code": c.code, "out": c.out[-300:]}
            for c in failed[:3]
        ],
    }


def _sum_layers(commands: list[Command]) -> defaultdict[str, float]:
    total: defaultdict[str, float] = defaultdict(float)
    for c in commands:
        for k, v in c.layers.items():
            total[k] += v
    return total


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, the per-rung copies included."""
    units = {name: unit for name, (_, unit) in LAYER_METRICS.items()} | DERIVED_UNITS
    for name in RUNG_METRICS:
        for n in LADDER_RUNGS:
            units[f"{name}.n{n}"] = units[name]
    return units


def layer_metrics(commands: list[Command]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    raw = _sum_layers(commands)
    out = {name: raw.get(key, 0.0) for name, (key, _) in LAYER_METRICS.items()}
    constructs = [c for c in commands if c.kind == "construct"]
    out["cli.verify_nice_per_construct"] = (
        _sum_layers(constructs).get("verifier.verify_nice_calls", 0.0) / len(constructs)
        if constructs else 0.0
    )
    out["search.certify_rejected"] = out["search.certify_calls"] - out["search.hits"]
    out["search.hits_per_certify"] = (
        out["search.hits"] / out["search.certify_calls"] if out["search.certify_calls"] else 0.0
    )
    for n in LADDER_RUNGS:
        rung = _sum_layers([c for c in commands if c.rung == n])
        for name in RUNG_METRICS:
            out[f"{name}.n{n}"] = rung.get(LAYER_METRICS[name][0], 0.0)
    return out


def by_command(commands: list[Command]) -> dict[str, dict[str, float]]:
    """Layer seconds and counts of one traced pass, per command tag."""
    out: dict[str, dict[str, float]] = {}
    for c in commands:
        row = out.setdefault(c.tag, defaultdict(float))
        row["wall_s"] += c.seconds
        for name, (key, _) in LAYER_METRICS.items():
            if c.layers.get(key):
                row[name] += c.layers[key]
    return {tag: dict(row) for tag, row in out.items()}


def cross_check(untraced: list[Command], traced: Optional[list[Command]]) -> dict[str, Any]:
    """Ladder numbers for the largest wheel rung beside the ROADMAP.md baseline."""
    measured: dict[str, float] = {}
    per_tag = _median_by_tag(untraced)
    for cmd in ("construct", "verify"):
        if f"wheel.n40.{cmd}" in per_tag:
            measured[f"wheel.n40.{cmd}_s"] = per_tag[f"wheel.n40.{cmd}"]
    if traced:
        calls = [c for c in traced if c.tag == "wheel.n40.verify"]
        n_calls = sum(c.layers.get("verifier.verify_nice_calls", 0.0) for c in calls)
        if n_calls:
            measured["wheel.n40.verify_nice_s"] = (
                sum(c.layers.get("verifier.verify_nice_s", 0.0) for c in calls) / n_calls
            )
    out: dict[str, Any] = {}
    for key, value in measured.items():
        base = ROADMAP_BASELINE[key]
        ratio = value / base
        note = "agrees within 25%" if 0.75 <= ratio <= 1.25 else (
            f"disagrees: {ratio:.2f}x the baseline; hardware or load differs, or the code changed"
        )
        out[key] = {"measured_s": round(value, 4), "roadmap_s": base,
                    "ratio": round(ratio, 3), "note": note}
    return out


def environment(seed: int, workload: str) -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
    }


def run_passes(
    workload: str, inputs: dict[str, Any], make_runner, seconds: float
) -> tuple[list[Runner], list[float]]:
    """Run whole passes while the next, if it takes as long as the last, ends
    less than half a pass after seconds; return the passes' runners and wall
    times."""
    wl = WORKLOADS[workload]
    runners, walls = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runner = make_runner()
        wl.run_pass(runner, inputs)
        now = time.perf_counter()
        runners.append(runner)
        walls.append(now - pass_start)
        if now - start + walls[-1] / 2 >= seconds:
            return runners, walls


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
    root: Path, modules: dict[str, Any], pins: dict[str, Any], src: Path,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; return (detail record, result object)."""
    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(seed, pins, smoke)
    setup_walls, import_times = measure_setup(src, 2 if smoke else SETUP_SAMPLES)

    workdir = root / ".bench_work" / f"{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(modules) if trace else None
    try:
        try:
            runners, walls = run_passes(
                workload, inputs, lambda: Runner(modules["cli"].main, workdir, pins, tracer),
                seconds,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        known_defects = (
            wl.probe(Runner(modules["cli"].main, workdir, pins), inputs) if wl.probe else {}
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    commands = [c for r in runners for c in r.commands + r.twins]
    untraced = [c for r in runners for c in (r.twins if trace else r.commands)]
    failed = sum(not c.ok for c in commands)
    detail: dict[str, Any] = {
        "environment": environment(seed, workload),
        "inputs": wl.describe(inputs),
        "passes": {"count": len(runners), "traced": trace,
                   "pass_s": [round(w, 4) for w in walls]},
        "failures": _failures(commands),
        "known_defects": known_defects,
        "command_median_s": _median_by_tag(untraced),
    }
    if workload == "ladder":
        detail["cross_check"] = cross_check(untraced, runners[-1].commands if trace else None)

    if trace:
        per_pass = [layer_metrics(r.commands) for r in runners]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["cli.import_s"] = statistics.median(import_times)
        traced_s = [sum(c.seconds for c in r.commands) for r in runners]
        untraced_s = [sum(c.seconds for c in r.twins) for r in runners]
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
        metrics["trace.overhead_frac"] = (sum(traced_s) - sum(untraced_s)) / sum(untraced_s)
        detail["trace"] = {
            "per_command": by_command(runners[-1].commands),
            "untraced_layers": tracer.missing,
            "note": "layer values are per pass, medians over the traced passes; each "
                    "command ran untraced and then traced, back to back",
        }
        units = layer_units()
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        times = [c.seconds for c in untraced]
        tail_info = tail([[c.seconds for c in r.commands] for r in runners])
        detail["cmd_tail"] = tail_info
        detail["setup_s_samples"] = [round(w, 4) for w in setup_walls]
        result_metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "cmd_p50_s": {"value": statistics.median(times), "unit": "s"},
            "cmd_tail_s": {"value": tail_info["value"], "unit": "s"},
            "cmds_per_s": {"value": len(untraced) / sum(walls), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": result_metrics,
    }
    return detail, result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload on a tiny input, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    try:
        src, acceptance = _locate(root)
        modules = _import_mirrorcut(src)
        pins = read_pins(acceptance)
    except (SetupError, ValueError, ImportError, SyntaxError) as exc:
        return _fail_setup(str(exc))

    try:
        if args.smoke:
            summary: dict[str, Any] = {}
            for name in WORKLOADS:
                detail, result = run_workload(name, 0, 0.0, True, True, root, modules, pins, src)
                print(json.dumps({"workload": name, "failures": detail["failures"]}))
                summary[name] = {"attempted": result["attempted"], "failed": result["failed"],
                                 "failures": detail["failures"]["by_oracle"],
                                 "known_defects": detail["known_defects"],
                                 "metrics": sorted(result["metrics"])}
            print(json.dumps({"smoke": summary}))
            return 0
        detail, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), False,
            root, modules, pins, src,
        )
    except SetupError as exc:
        return _fail_setup(str(exc))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
