"""Boundary-parameter splitting, the exact straight-cut solver and the grid scan."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
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
from mirrorcut import _grid
from mirrorcut._grid import _batched_residual, _grid_hits, _scan_bounds, _self_join
from mirrorcut.search import (
    RESOLUTION_CAVEAT,
    _centred,
    _corner_cuts,
    _cyclic_residual,
    _dedupe,
    _make_split,
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
        cands = search_straight_cuts(spec, grid_n=24, refine=True)
        assert cands
        best = min(cands, key=lambda c: c.residual)
        assert best.s == pytest.approx(0.0, abs=1e-6)
        assert best.t == pytest.approx(1.0 + hypot / 2.0, abs=1e-6)
        assert best.residual <= 1e-7 * tri.perimeter

    def test_results_deterministic(self) -> None:
        spec = TriangleSpec(90.0, 55.0)
        a = search_straight_cuts(spec, grid_n=24, refine=True)
        b = search_straight_cuts(spec, grid_n=24, refine=True)
        assert a == b

    # The brute-force path screens every pair with the scalar residual; it
    # is the oracle for the sorted self-join and the batched residuals.
    @pytest.mark.parametrize(
        "alpha, beta", [(90.0, 55.0), (75.0, 25.0), (83.7, 41.9)]
    )
    def test_join_returns_the_screened_brute_force_hits(self, alpha: float, beta: float) -> None:
        # Every grid hit, before the tolerance filter, clustering and the
        # exact solver, which would hide a hit that one scan dropped.  The
        # join must keep exactly the brute-force hits that pass its screen,
        # here re-evaluated pair by pair from the pieces.
        spec = TriangleSpec(alpha, beta)
        cake = construct_triangle(spec)
        axis = spec.side_c / 2.0
        per = cake.perimeter
        params = sorted({i * per / 16 for i in range(16)} | set(_vertex_params(cake)[:3]))
        splits = [
            sp
            for i, s in enumerate(params)
            for t in params[i + 1 :]
            if (sp := _make_split(cake, axis, s, t)) is not None
        ]
        step = per / 16
        _, slack_area, slack_len = _scan_bounds(cake, step)

        def features(s: float, t: float, swap: bool) -> list[float]:
            sp = _make_split(cake, axis, s, t)
            assert sp is not None
            pieces = sp.pieces[::-1] if swap else sp.pieces
            edges = [sorted(p.edge_lengths()) + [0.0] * (4 - len(p)) for p in pieces]
            return [pieces[0].area, pieces[1].area] + edges[0] + edges[1]

        def screened(h: tuple) -> bool:
            limits = [slack_area] * 2 + [slack_len] * 8
            return all(
                abs(x - y) <= lim
                for x, y, lim in zip(features(h[0], h[1], False), features(h[2], h[3], h[4]), limits)
            )

        joined = _grid_hits(cake, axis, splits, step, prefilters=True)
        brute = _grid_hits(cake, axis, splits, step, prefilters=False)
        kept = [h for h in brute if screened(h)]
        # The screen is a real filter on these grids.
        assert len(splits) < len(kept) < len(brute)
        assert joined == kept

    @pytest.mark.parametrize(
        "alpha, beta", [(90.0, 55.0), (75.0, 25.0), (83.7, 41.9)]
    )
    def test_prefilters_do_not_change_results(self, alpha: float, beta: float) -> None:
        # Without refine, and at a tol that lets every grid hit through the
        # residual filter, so that both sides cluster and certify every hit
        # their scan returned.
        spec = TriangleSpec(alpha, beta)
        cake = construct_triangle(spec)
        per = cake.perimeter
        grid_tol, _, _ = _scan_bounds(cake, per / 16)
        tol = 1.01 * grid_tol / per
        assert tol * per >= grid_tol
        with_pf = search_straight_cuts(spec, grid_n=16, tol=tol)
        without_pf = search_straight_cuts(spec, grid_n=16, tol=tol, prefilters=False)
        assert with_pf == without_pf

    def test_generic_triangle_comes_up_empty(self) -> None:
        cands = search_straight_cuts(TriangleSpec(83.7, 41.9), grid_n=16)
        assert cands == []

    def test_caveat_wording(self) -> None:
        assert "not" in RESOLUTION_CAVEAT and "resolution" in RESOLUTION_CAVEAT

    def test_rejects_tiny_grid(self) -> None:
        with pytest.raises(ValueError):
            search_straight_cuts(TriangleSpec(90.0, 55.0), grid_n=2)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_positive(
        self, tol: float, refine: bool
    ) -> None:
        with pytest.raises(ValueError, match="tol"):
            search_straight_cuts(TriangleSpec(90.0, 55.0), grid_n=16, tol=tol, refine=refine)

    def test_rejects_isosceles_cake(self) -> None:
        # An isosceles cake is its own mirror image: every split of it
        # would certify, so the search refuses it.
        with pytest.raises(ValueError, match="scalene"):
            search_straight_cuts(TriangleSpec(70.0, 70.0), grid_n=20, refine=True)

    @pytest.mark.parametrize("tol", [1e-7, 1e-12])
    def test_rejects_cake_isosceles_within_solver_precision(self, tol: float) -> None:
        # Scalene by is_scalene, but within the solver's floating-point
        # margin of an isosceles cake, whose cuts form a continuum; the
        # margin does not depend on the search tolerance.
        spec = TriangleSpec(70.0, 70.0 + 1e-8)
        assert spec.is_scalene()
        with pytest.raises(ValueError, match="continuum"):
            search_straight_cuts(spec, grid_n=8, tol=tol, refine=True)

    def test_near_isosceles_cake_is_searched(self) -> None:
        # 1e-6 degrees from isosceles is far outside the solver's margin.
        assert search_straight_cuts(TriangleSpec(70.0, 70.0 + 1e-6), grid_n=8, refine=True) == []

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.07])
    def test_loose_tolerance_keeps_the_exact_cut(self, tol: float) -> None:
        # The tolerance gates residuals only; the solver's screens are
        # fixed, so a loose tolerance still finds the median cut.
        spec = TriangleSpec(90.0, 55.0)
        tri = construct_triangle(spec)
        hypot = dist(tri.vertices[1], tri.vertices[2])
        cands = search_straight_cuts(spec, grid_n=16, tol=tol, refine=True)
        assert any(
            c.s == pytest.approx(0.0, abs=1e-9)
            and c.t == pytest.approx(1.0 + hypot / 2.0, abs=1e-9)
            and c.residual <= 1e-12
            for c in cands
        ), cands

    @pytest.mark.parametrize("refine", [False, True])
    def test_progress_callback_runs(self, refine: bool) -> None:
        # The four stages are reported in order under either path; the
        # solver reports the grid's split and scan as zero-length stages.
        calls: list[tuple[str, float]] = []
        search_straight_cuts(
            TriangleSpec(83.7, 41.9),
            grid_n=8,
            refine=refine,
            progress=lambda stage, frac: calls.append((stage, frac)),
        )
        assert calls == [
            ("split", 0.0), ("split", 1.0), ("scan", 0.0), ("scan", 1.0),
            ("refine", 0.0), ("refine", 1.0), ("done", 1.0),
        ]

    def test_refine_does_not_scan_the_grid(self, monkeypatch) -> None:
        # The exact solver is the whole search with refine: it never builds
        # or scans the grid, so grid_n does not change its result.
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid scan ran")

        for name in ("grid_rows", "_grid_hits", "_self_join"):
            monkeypatch.setattr(_grid, name, no_grid)
        for alpha, beta in [(90.0, 55.0), (75.0, 25.0), (83.7, 41.9)]:
            spec = TriangleSpec(alpha, beta)
            coarse = search_straight_cuts(spec, grid_n=8, refine=True)
            assert search_straight_cuts(spec, grid_n=128, refine=True) == coarse
            assert bool(coarse) == (alpha != 83.7)

    def test_candidate_splits_are_congruent_pairs(self) -> None:
        # Re-derive the certification facts from the public pieces: the
        # cake split and the mirrored box split must have matching piece
        # areas under the reported assignment.
        spec = TriangleSpec(90.0, 55.0)
        tri = construct_triangle(spec)
        for c in search_straight_cuts(spec, grid_n=24, refine=True):
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
        base = search_straight_cuts(TriangleSpec(90.0, 55.0), grid_n=24, refine=True)
        scaled = search_straight_cuts(
            TriangleSpec(90.0, 55.0, scale), grid_n=24, refine=True
        )
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
        "alpha, beta, grid_n",
        [(90.0, 55.0, 24), (75.0, 25.0, 16), (100.0, 50.0, 16), (114.6, 38.2, 16)],
    )
    def test_hits_satisfy_theorem1(self, alpha: float, beta: float, grid_n: int) -> None:
        # Re-assemble each hit from public pieces: the dissection must be
        # nice and its triangle must carry an integer angle relation.
        spec = TriangleSpec(alpha, beta)
        cake = construct_triangle(spec)
        axis = spec.side_c / 2.0
        cands = search_straight_cuts(spec, grid_n=grid_n, refine=True)
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


# Every straight family's cut must be found on a coarse grid, whether or
# not its endpoints are grid points.
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

    found = search_straight_cuts(spec, grid_n=16, refine=True)
    assert any(
        all(any(close(e, x) for x in (c.s, c.t)) for e in ends) for c in found
    ), found


def test_numpy_is_imported_for_the_grid_scan_only() -> None:
    # A fresh interpreter: the CLI and the exact solver run without numpy,
    # and the first grid scan loads it.
    script = (
        "import sys\n"
        "import mirrorcut.cli\n"
        "from mirrorcut import TriangleSpec, search_straight_cuts\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "search_straight_cuts(TriangleSpec(90.0, 55.0), 8, refine=True)\n"
        "assert 'numpy' not in sys.modules, 'refine'\n"
        "search_straight_cuts(TriangleSpec(90.0, 55.0), 8)\n"
        "assert 'numpy' in sys.modules, 'grid'\n"
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


def _random_cycle(rng: random.Random, n: int) -> tuple[complex, ...]:
    return _centred([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)])


@pytest.mark.parametrize("n", [3, 4])
def test_batched_residual_is_bit_identical_to_scalar(n: int) -> None:
    rng = random.Random(n)
    pairs = [(_random_cycle(rng, n), _random_cycle(rng, n)) for _ in range(400)]
    # Near-congruent pairs (the ones the search keeps) and a zero cycle,
    # whose best-fit rotation falls back to the identity.
    for zp, _ in pairs[:100]:
        rot = complex(math.cos(1.3), math.sin(1.3))
        shift = rng.randrange(n)
        moved = [z * rot + complex(rng.gauss(0, 1e-9), rng.gauss(0, 1e-9)) for z in zp]
        pairs.append((zp, _centred(moved[shift:] + moved[:shift])))
    pairs.append((_centred([0j] * n), pairs[0][1]))
    batched = _batched_residual(
        np.array([zp for zp, _ in pairs]), np.array([zq for _, zq in pairs])
    )
    scalar = [_cyclic_residual(zp, zq) for zp, zq in pairs]
    assert batched.tolist() == scalar


@pytest.mark.parametrize("radius", [0.05, 0.7, 1.6])
def test_bucketed_dedupe_keeps_the_rows_of_a_full_comparison(radius: float) -> None:
    # 0.7 and 1.6 leave two cells and one cell on the perimeter 3.
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


def test_self_join_gives_the_pairs_of_an_all_pairs_mask() -> None:
    # Features on a grid of 1/8 with limits of 1/4 put many pairs exactly
    # on the slack boundary, where a window no wider than the slack would
    # drop partners.
    rng = np.random.default_rng(3)
    m = 300
    n1 = rng.integers(3, 5, m)
    n2 = rng.integers(3, 5, m)
    area1 = rng.integers(0, 40, m) / 8.0
    edges1 = np.sort(rng.integers(1, 6, (m, 4)) / 8.0, axis=1)
    edges2 = np.sort(rng.integers(1, 6, (m, 4)) / 8.0, axis=1)
    edges1[n1 == 3, 3] = 0.0
    edges2[n2 == 3, 3] = 0.0
    feats = np.column_stack([area1, 5.0 - area1, edges1, edges2])
    limits = np.array([0.25] * 2 + [0.25] * 8)

    rows, partners = [], []
    for i in range(m):
        for crossed in (False, True):
            if crossed:
                n_first, n_second, a_first, a_second = n2[i], n1[i], feats[i, 1], feats[i, 0]
                e_first, e_second = edges2[i], edges1[i]
            else:
                n_first, n_second, a_first, a_second = n1[i], n2[i], feats[i, 0], feats[i, 1]
                e_first, e_second = edges1[i], edges2[i]
            mask = (
                (n1 == n_first)
                & (n2 == n_second)
                & (np.abs(feats[:, 0] - a_first) <= 0.25)
                & (np.abs(feats[:, 1] - a_second) <= 0.25)
                & (np.abs(edges1 - e_first).max(axis=1) <= 0.25)
                & (np.abs(edges2 - e_second).max(axis=1) <= 0.25)
            )
            js = np.flatnonzero(mask)
            rows += [2 * i + crossed] * len(js)
            partners += js.tolist()

    blocks = list(_self_join(n1, n2, feats, limits))
    assert len(blocks) > 1
    assert len(rows) > m
    assert np.concatenate([r for r, _ in blocks]).tolist() == rows
    assert np.concatenate([p for _, p in blocks]).tolist() == partners
