"""Command line interface, run in process through main(argv)."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from mirrorcut import cli, constructions
from mirrorcut.certificate import serialize_certificate
from mirrorcut.cli import main
from mirrorcut.constructions import cut_median
from mirrorcut.geom import TriangleSpec
from test_acceptance import SEARCH_MATCH_TOL
from test_verifier import FORGERIES


def test_construct_verify_render(tmp_path: Path, capsys) -> None:
    cert = tmp_path / "wheel.json"
    svg = tmp_path / "wheel.svg"
    assert main([
        "construct", "--family", "wheel", "--alpha", "30", "--beta", "20",
        "--n", "2", "--out", str(cert), "--svg", str(svg),
    ]) == 0
    assert cert.exists() and svg.exists()
    out = capsys.readouterr().out
    assert "wheel" in out

    assert main(["verify", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "NICE" in out

    out_svg = tmp_path / "again.svg"
    assert main(["render", str(cert), "--out", str(out_svg)]) == 0
    assert out_svg.read_text().startswith("<svg")


def test_construct_verifies_once(tmp_path: Path, capsys, monkeypatch) -> None:
    # The builder certifies the dissection; construct does not redo it.
    calls: list[str] = []

    def counted(module):
        real = module.verify_nice

        def verify_nice(*args, **kwargs):
            calls.append(module.__name__)
            return real(*args, **kwargs)

        return verify_nice

    for module in (cli, constructions):
        monkeypatch.setattr(module, "verify_nice", counted(module))
    cert = tmp_path / "wheel.json"
    assert main([
        "construct", "--family", "wheel", "--alpha", "30", "--beta", "20",
        "--n", "2", "--out", str(cert),
    ]) == 0
    assert calls == ["mirrorcut.constructions"]
    assert capsys.readouterr().out == f"wheel(n=2): 2 pieces -> {cert}\n"


def test_construct_infers_wheel_n(tmp_path: Path, capsys) -> None:
    cert = tmp_path / "wheel.json"
    assert main([
        "construct", "--family", "wheel", "--alpha", "40", "--beta", "30",
        "--out", str(cert),
    ]) == 0
    assert "n=3" in capsys.readouterr().out


def test_construct_precondition_failure_exits_3(tmp_path: Path, capsys) -> None:
    code = main([
        "construct", "--family", "median", "--alpha", "80", "--beta", "40",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 3
    assert "rejected" in capsys.readouterr().err


def test_degenerate_angles_exit_3(tmp_path: Path, capsys) -> None:
    code = main([
        "construct", "--family", "incenter3", "--alpha", "120", "--beta", "60",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "wheel", "--alpha", "30", "--beta", "20", "--n", "0"],
        ["--family", "median", "--alpha", "90", "--beta", "55", "--side", "1e-300"],
        ["--family", "incenter3", "--alpha", "80", "--beta", "60", "--side", "1e300"],
        ["--family", "scissors", "--alpha", "30", "--beta", "20", "--side", "1e-160"],
    ],
    ids=["wheel-n0", "median-tiny", "incenter3-huge", "scissors-tiny"],
)
def test_builder_value_error_exits_3(tmp_path: Path, capsys, argv: list[str]) -> None:
    # A builder's plain ValueError (TriangulationError is one) is a
    # rejected construction, not a crash or a failed verification.
    out = tmp_path / "x.json"
    assert main(["construct", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("construction rejected: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_theorem1_and_claims(tmp_path: Path, capsys) -> None:
    cert = tmp_path / "gear.json"
    main([
        "construct", "--family", "gear", "--alpha", "30", "--beta", "20",
        "--out", str(cert),
    ])
    capsys.readouterr()
    assert main(["verify", str(cert), "--theorem1", "--claims"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out
    assert "rotation angle" in out


def test_verify_failing_certificate_exits_1(tmp_path: Path, capsys) -> None:
    cert = tmp_path / "median.json"
    main([
        "construct", "--family", "median", "--alpha", "90", "--beta", "55",
        "--out", str(cert),
    ])
    capsys.readouterr()
    obj = json.loads(cert.read_text())
    # Replace both motions with identity-like translations; pieces then
    # fail to tile the box.
    obj["motions"] = [{"kind": "translation", "vector": [0.0, 0.0]}] * 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    assert "NOT NICE" in capsys.readouterr().out


def _huge_center(obj: dict) -> None:
    obj["motions"][1]["center"][1] = 1e308


def _huge_vector(obj: dict) -> None:
    assert obj["motions"][0]["kind"] == "translation"
    obj["motions"][0]["vector"] = [1e16, 0.0]


# Finite motions so large that a moved piece is no valid polygon: its
# vertices overflow, or round onto each other.
HOSTILE_MOTIONS = {"huge-center": _huge_center, "huge-vector": _huge_vector}


def _hostile_wheel(tmp_path: Path, name: str) -> Path:
    cert = tmp_path / "wheel.json"
    assert main([
        "construct", "--family", "wheel", "--alpha", "30", "--beta", "20",
        "--n", "2", "--out", str(cert),
    ]) == 0
    obj = json.loads(cert.read_text())
    HOSTILE_MOTIONS[name](obj)
    cert.write_text(json.dumps(obj))
    return cert


@pytest.mark.parametrize("flags", [[], ["--theorem1", "--claims"]], ids=["plain", "claims"])
@pytest.mark.parametrize("name", sorted(HOSTILE_MOTIONS))
def test_verify_hostile_motion_is_not_nice(
    tmp_path: Path, capsys, name: str, flags: list[str]
) -> None:
    cert = _hostile_wheel(tmp_path, name)
    capsys.readouterr()
    assert main(["verify", str(cert), *flags]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^box partition\s*: FAILED$", out, re.MULTILINE), out
    assert out.endswith("verdict        : NOT NICE\n")


@pytest.mark.parametrize("name", sorted(HOSTILE_MOTIONS))
def test_render_refuses_hostile_motion(tmp_path: Path, capsys, name: str) -> None:
    cert = _hostile_wheel(tmp_path, name)
    capsys.readouterr()
    svg = tmp_path / "wheel.svg"
    assert main(["render", str(cert), "--out", str(svg)]) == 2
    assert capsys.readouterr().err.startswith("bad certificate: a moved piece")
    assert not svg.exists()


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_verify_rejects_forgery(tmp_path: Path, capsys, name: str) -> None:
    cert = tmp_path / f"{name}.json"
    cert.write_text(serialize_certificate(FORGERIES[name](cut_median(TriangleSpec(90.0, 55.0)))))
    if name == "quadrilateral_cake":
        # The paper's cake is a triangle: no other cake parses.
        assert main(["verify", "--theorem1", str(cert)]) == 2
        assert "bad certificate: cake: expected a triangle" in capsys.readouterr().err
        return
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "NOT NICE" in out
    failed = "cake scalene" if name == "isosceles_cake" else "box is mirror"
    assert re.search(rf"^{failed}\s*: FAILED$", out, re.MULTILINE), out


def test_verify_malformed_exits_2(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "broken.json"
    bad.write_text("{]")
    assert main(["verify", str(bad)]) == 2
    assert "bad certificate" in capsys.readouterr().err


def test_verify_missing_file_exits_2(tmp_path: Path, capsys) -> None:
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_usage_error_exits_2(capsys) -> None:
    assert main(["bogus"]) == 2
    assert main(["construct", "--family", "wheel"]) == 2


def test_help_exits_0(capsys) -> None:
    assert main(["--help"]) == 0


def test_relation_output(capsys) -> None:
    assert main(["relation", "--alpha", "90", "--beta", "55"]) == 0
    out = capsys.readouterr().out
    assert "1*alpha + -1*beta + -1*gamma" in out

    assert main(["relation", "--alpha", "57.2957795130823", "--beta", "41.2310562561766"]) == 0
    out = capsys.readouterr().out
    assert "no integer relation" in out


def test_invariant_command(tmp_path: Path, capsys) -> None:
    poly = tmp_path / "poly.json"
    poly.write_text("[[0,0],[4,0],[4,3],[0,3]]")
    assert main(["invariant", "--poly", str(poly), "--line", "0,0,1,0"]) == 0
    out = capsys.readouterr().out
    assert "J = 0" in out  # top and bottom edges cancel

    assert main(["invariant", "--poly", str(poly), "--line", "0,0,cat,0"]) == 2


def test_invariant_rejects_nan_vertex(tmp_path: Path, capsys) -> None:
    poly = tmp_path / "poly.json"
    poly.write_text("[[0,0],[1,0],[NaN,1]]")
    assert main(["invariant", "--poly", str(poly), "--line", "0,0,1,0"]) == 2
    assert "bad polygon" in capsys.readouterr().err


def test_search_command(tmp_path: Path, capsys) -> None:
    out_file = tmp_path / "cands.json"
    assert main([
        "search", "--alpha", "90", "--beta", "55", "--grid", "24",
        "--refine", "--out", str(out_file),
    ]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["candidates"]
    assert set(payload) == {"alpha", "beta", "side_c", "candidates"}
    first = payload["candidates"][0]
    assert first["s"] == pytest.approx(0.0, abs=1e-6)


def test_search_empty_prints_caveat(tmp_path: Path, capsys) -> None:
    out_file = tmp_path / "cands.json"
    assert main([
        "search", "--alpha", "83.7", "--beta", "41.9", "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "tolerance" in out
    payload = json.loads(out_file.read_text())
    assert payload["candidates"] == []
    assert "caveat" in payload


def test_search_default_finds_the_median_cut(capsys) -> None:
    assert main(["search", "--alpha", "90", "--beta", "55"]) == 0
    assert "cut s=0.000000000" in capsys.readouterr().out


def test_search_finds_the_alpha_3beta_cut_whatever_the_grid(capsys) -> None:
    # The cut joins A to the point of BC at distance c / (2 cos beta) from B.
    assert main(["search", "--alpha", "75", "--beta", "25", "--grid", "128"]) == 0
    out = capsys.readouterr().out
    alpha, beta = math.radians(75.0), math.radians(25.0)
    per = 1.0 + (math.sin(alpha) + math.sin(beta)) / math.sin(alpha + beta)
    t_cut = 1.0 + 0.5 / math.cos(beta)

    def gap(x: float, y: float) -> float:
        g = abs(x - y) % per
        return min(g, per - g)

    cuts = [(float(s), float(t)) for s, t in re.findall(r"cut s=(\S+) t=(\S+)", out)]
    assert any(
        gap(s, 0.0) <= SEARCH_MATCH_TOL * per and gap(t, t_cut) <= SEARCH_MATCH_TOL * per
        for s, t in cuts
    ), out


@pytest.mark.parametrize("alpha, beta", [("90", "55"), ("75", "25"), ("83.7", "41.9")])
def test_search_ignores_grid_and_refine(tmp_path: Path, capsys, alpha: str, beta: str) -> None:
    # --grid 64 --refine is the benchmark's command line.
    seen = []
    for extra in ([], ["--grid", "64", "--refine"]):
        out_file = tmp_path / f"cands{len(seen)}.json"
        argv = ["search", "--alpha", alpha, "--beta", beta, "--out", str(out_file)]
        assert main(argv + extra) == 0
        seen.append((capsys.readouterr().out, out_file.read_text()))
    assert seen[0] == seen[1]


def test_search_rejects_isosceles_cake(capsys) -> None:
    assert main(["search", "--alpha", "70", "--beta", "70", "--grid", "20", "--refine"]) == 2
    assert "bad search parameters" in capsys.readouterr().err


def test_search_refine_at_loose_tolerance(capsys) -> None:
    assert main([
        "search", "--alpha", "90", "--beta", "55", "--grid", "16",
        "--refine", "--tol", "1e-2",
    ]) == 0
    assert "cut s=0.000000000" in capsys.readouterr().out


# A NaN, infinite, zero or negative --tol used to give a wrong verdict
# with exit 0; argparse now rejects it before the command runs.
_BAD_TOLERANCES = ["inf", "nan", "0", "-1"]


def test_verify_rejects_bad_tolerance(tmp_path: Path, capsys) -> None:
    cert = tmp_path / "median.json"
    main([
        "construct", "--family", "median", "--alpha", "90", "--beta", "55",
        "--out", str(cert),
    ])
    for tol in _BAD_TOLERANCES:
        capsys.readouterr()
        assert main(["verify", str(cert), "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err


def test_search_rejects_bad_tolerance(capsys) -> None:
    for tol in _BAD_TOLERANCES:
        argv = ["search", "--alpha", "90", "--beta", "55", "--grid", "16", "--refine"]
        assert main(argv + ["--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err


def test_relation_rejects_bad_tolerance(capsys) -> None:
    for tol in _BAD_TOLERANCES:
        assert main(["relation", "--alpha", "83.7", "--beta", "41.9", "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err
