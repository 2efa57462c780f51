"""Boundary-parameter splitting and the exact straight-cut solver."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorcut.constructions import (
    Dissection,
    cut_2beta_acute,
    cut_2beta_obtuse,
    cut_alpha_3beta,
    cut_median,
)
from mirrorcut.geom import (
    Point,
    Polygon,
    Polyline,
    TriangleSpec,
    construct_triangle,
    dist,
    mirror_polygon,
)
import mirrorcut
from mirrorcut.search import (
    RESOLUTION_CAVEAT,
    _corner_cuts,
    _dedupe,
    _vertex_cuts,
    _vertex_params,
    boundary_point,
    search_straight_cuts,
    split_by_params,
)
from mirrorcut.verifier import recover_motions, theorem1_check, verify_nice
from test_acceptance import SEARCH_MATCH_TOL


def _pt(x: float, y: float) -> Point:
    return Point(float(x), float(y))


# 3-4-5 right triangle: vertex parameters 0, 4, 9 on a perimeter of 12.
TRI_345 = Polygon((_pt(0, 0), _pt(4, 0), _pt(0, 3)))


class TestBoundaryPoint:
    def test_vertices(self) -> None:
        assert dist(boundary_point(TRI_345, 0.0), _pt(0, 0)) < 1e-12
        assert dist(boundary_point(TRI_345, 4.0), _pt(4, 0)) < 1e-12
        assert dist(boundary_point(TRI_345, 9.0), _pt(0, 3)) < 1e-12

    def test_midpoints(self) -> None:
        assert dist(boundary_point(TRI_345, 2.0), _pt(2, 0)) < 1e-12
        # 2.5 along the hypotenuse from (4, 0) toward (0, 3).
        assert dist(boundary_point(TRI_345, 6.5), _pt(2, 1.5)) < 1e-12

    def test_wraparound(self) -> None:
        assert dist(boundary_point(TRI_345, 12.0), _pt(0, 0)) < 1e-12
        assert dist(boundary_point(TRI_345, 14.0), _pt(2, 0)) < 1e-12


class TestSplitByParams:
    def test_areas_by_shoelace_oracle(self) -> None:
        split = split_by_params(TRI_345, 2.0, 6.5)
        assert split is not None
        first, second = split
        # First piece is the triangle (2,0), (4,0), (2,1.5).
        assert first.area == pytest.approx(1.5, abs=1e-12)
        assert second.area == pytest.approx(4.5, abs=1e-12)
        assert first.area + second.area == pytest.approx(TRI_345.area, abs=1e-12)

    def test_vertex_anchored_split(self) -> None:
        split = split_by_params(TRI_345, 0.0, 6.5)
        assert split is not None
        first, second = split
        assert len(first.vertices) == 3
        assert len(second.vertices) == 3
        assert first.area == pytest.approx(3.0, abs=1e-12)

    def test_both_params_on_one_side_degenerate(self) -> None:
        assert split_by_params(TRI_345, 1.0, 2.0) is None

    def test_chord_equal_to_side_degenerate(self) -> None:
        assert split_by_params(TRI_345, 0.0, 4.0) is None

    def test_coincident_params_degenerate(self) -> None:
        assert split_by_params(TRI_345, 5.0, 5.0) is None

    def test_snapping_near_vertex(self) -> None:
        split = split_by_params(TRI_345, 1e-13, 6.5)
        assert split is not None
        first, _ = split
        assert any(dist(v, _pt(0, 0)) < 1e-12 for v in first.vertices)

    def test_pieces_in_ccw_order(self) -> None:
        split = split_by_params(TRI_345, 2.0, 6.5)
        assert split is not None
        for piece in split:
            assert piece.area > 0


class TestSearchStraightCuts:
    def test_median_triangle_found(self) -> None:
        spec = TriangleSpec(90.0, 55.0)
        tri = construct_triangle(spec)
        hypot = dist(tri.vertices[1], tri.vertices[2])
        cands = search_straight_cuts(spec)
        assert cands
        best = min(cands, key=lambda c: c.residual)
        assert best.s == pytest.approx(0.0, abs=1e-6)
        assert best.t == pytest.approx(1.0 + hypot / 2.0, abs=1e-6)
        assert best.residual <= 1e-7 * tri.perimeter

    def test_results_deterministic(self) -> None:
        spec = TriangleSpec(90.0, 55.0)
        a = search_straight_cuts(spec)
        b = search_straight_cuts(spec)
        assert a == b

    def test_generic_triangle_comes_up_empty(self) -> None:
        cands = search_straight_cuts(TriangleSpec(83.7, 41.9))
        assert cands == []

    def test_caveat_wording(self) -> None:
        # An empty result is a statement about straight two-piece cuts at
        # the tolerance, not a proof that the cake has no nice cut.
        assert "tolerance" in RESOLUTION_CAVEAT and "may still exist" in RESOLUTION_CAVEAT

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tol: float) -> None:
        with pytest.raises(ValueError, match="tol"):
            search_straight_cuts(TriangleSpec(90.0, 55.0), tol=tol)

    def test_tolerance_is_keyword_only(self) -> None:
        # An old caller's grid size, passed positionally, must not bind
        # silently as a tolerance of 64 and certify near-cuts.
        with pytest.raises(TypeError):
            search_straight_cuts(TriangleSpec(90.0, 55.0), 64)  # type: ignore[misc]
        with pytest.raises(TypeError):
            search_straight_cuts(TriangleSpec(90.0, 55.0), grid_n=64)  # type: ignore[call-arg]

    def test_rejects_isosceles_cake(self) -> None:
        # An isosceles cake is its own mirror image: every split of it
        # would certify, so the search refuses it.
        with pytest.raises(ValueError, match="scalene"):
            search_straight_cuts(TriangleSpec(70.0, 70.0))

    @pytest.mark.parametrize("tol", [1e-7, 1e-12])
    def test_rejects_cake_isosceles_within_solver_precision(self, tol: float) -> None:
        # Scalene by is_scalene, but within the solver's floating-point
        # margin of an isosceles cake, whose cuts form a continuum; the
        # margin does not depend on the search tolerance.
        spec = TriangleSpec(70.0, 70.0 + 1e-8)
        assert spec.is_scalene()
        with pytest.raises(ValueError, match="continuum"):
            search_straight_cuts(spec, tol=tol)

    def test_near_isosceles_cake_is_searched(self) -> None:
        # 1e-6 degrees from isosceles is far outside the solver's margin.
        assert search_straight_cuts(TriangleSpec(70.0, 70.0 + 1e-6)) == []

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.07])
    def test_loose_tolerance_keeps_the_exact_cut(self, tol: float) -> None:
        # The tolerance gates residuals only; the solver's screens are
        # fixed, so a loose tolerance still finds the median cut.
        spec = TriangleSpec(90.0, 55.0)
        tri = construct_triangle(spec)
        hypot = dist(tri.vertices[1], tri.vertices[2])
        cands = search_straight_cuts(spec, tol=tol)
        assert any(
            c.s == pytest.approx(0.0, abs=1e-9)
            and c.t == pytest.approx(1.0 + hypot / 2.0, abs=1e-9)
            and c.residual <= 1e-12
            for c in cands
        ), cands

    def test_progress_callback_runs(self) -> None:
        # The four stages are reported in order; split and scan are
        # zero-length stages.
        calls: list[tuple[str, float]] = []
        search_straight_cuts(
            TriangleSpec(83.7, 41.9),
            progress=lambda stage, frac: calls.append((stage, frac)),
        )
        assert calls == [
            ("split", 0.0), ("split", 1.0), ("scan", 0.0), ("scan", 1.0),
            ("refine", 0.0), ("refine", 1.0), ("done", 1.0),
        ]

    def test_candidate_splits_are_congruent_pairs(self) -> None:
        # Re-derive the certification facts from the public pieces: the
        # cake split and the mirrored box split must have matching piece
        # areas under the reported assignment.
        spec = TriangleSpec(90.0, 55.0)
        tri = construct_triangle(spec)
        for c in search_straight_cuts(spec):
            cake_split = split_by_params(tri, c.s, c.t)
            box_split = split_by_params(tri, c.s_box, c.t_box)
            assert cake_split is not None and box_split is not None
            first, second = (1, 0) if c.crossed else (0, 1)
            assert cake_split[0].area == pytest.approx(
                box_split[first].area, abs=1e-6
            )
            assert cake_split[1].area == pytest.approx(
                box_split[second].area, abs=1e-6
            )

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_scaling_side_scales_results_exactly(self, scale: float) -> None:
        # Multiplying by a power of two is exact in floating point, so every
        # parameter and residual must scale exactly with side_c.
        base = search_straight_cuts(TriangleSpec(90.0, 55.0))
        scaled = search_straight_cuts(TriangleSpec(90.0, 55.0, scale))
        assert base
        assert scaled == [
            dataclasses.replace(
                c,
                s=c.s * scale,
                t=c.t * scale,
                s_box=c.s_box * scale,
                t_box=c.t_box * scale,
                residual=c.residual * scale,
            )
            for c in base
        ]

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (90.0, 55.0),
            (75.0, 25.0),
            (100.0, 50.0),
            (114.6, 38.2),
            # Two cuts each: median and alpha = 3 beta; two alpha = 2 beta cuts.
            (90.0, 30.0),
            (60.0, 30.0),
            # gamma = alpha + 2 beta, a family with no construction here.
            (45.0, 30.0),
            (75.0, 10.0),
        ],
    )
    def test_hits_satisfy_theorem1(self, alpha: float, beta: float) -> None:
        # Re-assemble each hit from public pieces: the dissection must be
        # nice and its triangle must carry an integer angle relation.
        spec = TriangleSpec(alpha, beta)
        cake = construct_triangle(spec)
        axis = spec.side_c / 2.0
        cands = search_straight_cuts(spec)
        assert cands
        for c in cands:
            pieces = split_by_params(cake, c.s, c.t)
            box_split = split_by_params(cake, c.s_box, c.t_box)
            assert pieces is not None and box_split is not None
            if c.crossed:
                box_split = (box_split[1], box_split[0])
            motions = recover_motions(
                list(pieces),
                [mirror_polygon(p, axis) for p in box_split],
                tol=max(10.0 * c.residual, 1e-9 * cake.diameter),
            )
            assert motions is not None
            d = Dissection(
                cake=cake,
                box=mirror_polygon(cake, axis),
                pieces=pieces,
                motions=tuple(motions),
                cut=Polyline((pieces[0].vertices[0], pieces[0].vertices[-1])),
                family="straight",
            )
            assert verify_nice(d, tol=1e-7).passed  # the search's default tol
            assert theorem1_check(d) is not None


def _boundary_param(cake: Polygon, p: Point) -> float:
    """Counterclockwise arc length from A of a point on the cake's boundary."""
    cum = _vertex_params(cake)
    for k, a in enumerate(cake.vertices):
        b = cake.vertices[(k + 1) % 3]
        if abs(dist(a, p) + dist(p, b) - dist(a, b)) <= 1e-12 * cum[-1]:
            return cum[k] + dist(a, p)
    raise AssertionError(f"{p} is not on the boundary")


# Every straight family's cut must be found.
@pytest.mark.parametrize(
    "construct, alpha, beta",
    [
        (cut_median, 90.0, 55.0),
        (cut_alpha_3beta, 75.0, 25.0),
        (cut_alpha_3beta, 114.6, 38.2),
        (cut_alpha_3beta, 126.0, 42.0),
        (cut_2beta_acute, 80.0, 40.0),
        (cut_2beta_obtuse, 100.0, 50.0),
        (cut_2beta_obtuse, 110.0, 55.0),
        (cut_2beta_obtuse, 104.0, 52.0),
        # alpha == 90 == 3 beta: both cuts, as two candidates.
        (cut_median, 90.0, 30.0),
        (cut_alpha_3beta, 90.0, 30.0),
        (cut_median, 90.0, 20.0),
        (cut_alpha_3beta, 60.0, 20.0),
        (cut_2beta_acute, 60.0, 30.0),
        (cut_2beta_acute, 70.0, 35.0),
    ],
)
def test_search_finds_every_family_cut(construct, alpha: float, beta: float) -> None:
    spec = TriangleSpec(alpha, beta)
    d = construct(spec)
    per = d.cake.perimeter
    ends = {_boundary_param(d.cake, p) for p in d.cut.vertices}
    tol = SEARCH_MATCH_TOL * per

    def close(x: float, y: float) -> bool:
        g = abs(x - y) % per
        return min(g, per - g) <= tol

    found = search_straight_cuts(spec)
    assert any(
        all(any(close(e, x) for x in (c.s, c.t)) for e in ends) for c in found
    ), found


@pytest.mark.parametrize(
    "alpha, beta", [(90.0, 55.0), (75.0, 25.0), (100.0, 50.0), (45.0, 30.0), (83.7, 41.9)]
)
def test_mirror_image_cake_gives_the_mirror_cuts(alpha: float, beta: float) -> None:
    # TriangleSpec(beta, alpha) is the reflection of TriangleSpec(alpha, beta)
    # across the perpendicular bisector of AB, which sends arc length s
    # from A to side_c - s.  The search must not depend on handedness.
    spec = TriangleSpec(alpha, beta)
    per = construct_triangle(spec).perimeter
    tol = SEARCH_MATCH_TOL * per

    def close(x: float, y: float) -> bool:
        g = abs(x - y) % per
        return min(g, per - g) <= tol

    here = search_straight_cuts(spec)
    there = search_straight_cuts(TriangleSpec(beta, alpha))
    assert len(here) == len(there)
    for c in here:
        ends = (spec.side_c - c.s, spec.side_c - c.t)
        assert any(
            all(any(close(e, x) for x in (m.s, m.t)) for e in ends) for m in there
        ), (c, there)


@pytest.mark.parametrize("gate", ["split_by_params", "recover_motions", "verify_nice"])
def test_every_hit_passes_the_module_level_certification(monkeypatch, gate: str) -> None:
    # Solutions are certified through these names on mirrorcut.search,
    # looked up at call time; a gate that refuses everything leaves no
    # hit, and the cut found without it is genuine.
    import mirrorcut.search as search_module

    spec = TriangleSpec(90.0, 55.0)
    assert search_straight_cuts(spec)
    refuse = {
        "split_by_params": lambda *a, **k: None,
        "recover_motions": lambda *a, **k: None,
        "verify_nice": lambda *a, **k: dataclasses.make_dataclass(
            "Report", [("passed", bool)]
        )(False),
    }[gate]
    monkeypatch.setattr(search_module, gate, refuse)
    assert search_straight_cuts(spec) == []


def test_search_internals_left_the_top_level_namespace() -> None:
    # boundary_point and split_by_params stay in mirrorcut.search only.
    for name in ("boundary_point", "split_by_params"):
        assert name not in mirrorcut.__all__
        assert not hasattr(mirrorcut, name)
        assert name in mirrorcut.search.__all__


def test_search_runs_without_numpy() -> None:
    # A fresh interpreter: no runtime path loads numpy, which is no longer
    # a dependency, whatever flags the search command gets.
    script = (
        "import sys\n"
        "import mirrorcut.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "for extra in ([], ['--grid', '64', '--refine']):\n"
        "    argv = ['search', '--alpha', '90', '--beta', '55'] + extra\n"
        "    assert mirrorcut.cli.main(argv) == 0\n"
        "    assert 'numpy' not in sys.modules, extra\n"
    )
    src = str(Path(mirrorcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_solver_reports_free_chord_angle() -> None:
    # On an isosceles cake the corner triangle at the apex matches its
    # mirror image for every chord angle: the angle equations have rank
    # one and hold on a line, which the solver reports, never skips.
    cake = construct_triangle(TriangleSpec(40.0, 70.0))
    z = [complex(v.x, v.y) for v in cake.vertices]
    theta = [math.radians(x) for x in (40.0, 70.0, 70.0)]
    with pytest.raises(ValueError, match="free chord angle"):
        _corner_cuts(z, _vertex_params(cake), theta)
    with pytest.raises(ValueError, match="free foot"):
        _vertex_cuts(z, _vertex_params(cake))


@pytest.mark.parametrize("radius", [0.05, 0.7, 1.6])
def test_dedupe_keeps_the_rows_of_a_full_comparison(radius: float) -> None:
    # 1.6 exceeds every cyclic distance on the perimeter 3.
    per = 3.0

    def reference(rows: list) -> list:
        def close(a: float, b: float) -> bool:
            d = abs(a - b) % per
            return min(d, per - d) < radius

        kept: list = []
        for h in sorted(rows, key=lambda h: h[5]):
            if not any(
                h[4] == k[4] and all(close(h[x], k[x]) for x in range(4)) for k in kept
            ):
                kept.append(h)
        return kept

    rng = random.Random(7)
    # Clusters straddling the wrap-around at per, rows about one radius
    # apart, and scattered rows.
    centres = [[rng.uniform(0, per) for _ in range(4)] for _ in range(12)]
    centres += [[per - 0.01, 0.01, per - 0.02, 1.0], [0.0, per - 1e-9, 0.5, 2.9]]
    rows = [
        tuple((x + rng.uniform(-1.5, 1.5) * radius) % per for x in c)
        + (rng.random() < 0.5, rng.random())
        for c in centres
        for _ in range(40)
    ]
    expected = reference(rows)
    assert 1 < len(expected) < len(rows)
    assert _dedupe(rows, radius, per) == expected
