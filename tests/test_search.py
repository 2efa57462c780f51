"""Boundary-parameter splitting and the exact straight-cut solver."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
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
    Polygon,
    Polyline,
    TriangleSpec,
    construct_triangle,
    dist,
    find_motion,
    is_mirror_symmetric,
    mirror_polygon,
)
import mirrorcut
from mirrorcut.cli import main
from mirrorcut.search import (
    _CORNER_TYPES,
    _EXACT,
    _VERTEX_BLOCKS,
    _VERTEX_TYPES,
    BAND,
    RESOLUTION_CAVEAT,
    _corner_cuts,
    _dedupe,
    _quad_candidates,
    _solve2,
    _vertex_cuts,
    _vertex_params,
    search_straight_cuts,
    split_by_params,
)
from mirrorcut.verifier import recover_motions, theorem1_check, verify_nice
from test_acceptance import SEARCH_MATCH_TOL


def _pt(x: float, y: float) -> complex:
    return complex(float(x), float(y))


# 3-4-5 right triangle: vertex parameters 0, 4, 9 on a perimeter of 12.
TRI_345 = Polygon((_pt(0, 0), _pt(4, 0), _pt(0, 3)))

# The search's one refusal of a cake too close to isosceles.
_REFUSAL = "must be scalene: it is within"


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
        # Just inside the band, where the solver's cuts of a right cake
        # near (90, 45, 45) include near-cuts; the band does not depend
        # on the search tolerance.
        spec = TriangleSpec(90.0, 45.008)
        cake = construct_triangle(spec)
        assert is_mirror_symmetric(cake, BAND * cake.diameter)
        assert not is_mirror_symmetric(cake, 0.98 * BAND * cake.diameter)
        with pytest.raises(ValueError, match=_REFUSAL):
            search_straight_cuts(spec, tol=tol)

    def test_near_isosceles_cake_is_searched(self) -> None:
        # Just outside the band the median cut is found, and only exact hits.
        spec = TriangleSpec(90.0, 45.0082)
        cake = construct_triangle(spec)
        assert not is_mirror_symmetric(cake, BAND * cake.diameter)
        assert is_mirror_symmetric(cake, 1.02 * BAND * cake.diameter)
        hits = search_straight_cuts(spec)
        assert hits and all(c.residual <= 1e-13 * cake.perimeter for c in hits)

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            # Solver continua, on cakes that verify_nice calls scalene.
            (40.0, 70.0 + 1e-7), (20.0, 80.0 + 3e-8), (50.0, 65.0 + 1e-7),
            # A thin cake, and a near-cut with residual 9.1e-9.
            (90.0, 89.9999), (10.315908, 84.842078),
        ],
    )
    def test_refuses_near_isosceles_cakes_with_one_message(
        self, alpha: float, beta: float, capsys
    ) -> None:
        with pytest.raises(ValueError, match=_REFUSAL):
            search_straight_cuts(TriangleSpec(alpha, beta))
        assert main(["search", "--alpha", repr(alpha), "--beta", repr(beta)]) == 2
        err = capsys.readouterr().err
        assert "must be scalene" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.07])
    def test_loose_tolerance_keeps_the_exact_cut(self, tol: float) -> None:
        # The tolerance gates residuals only; the solver's screens are
        # fixed, so a loose tolerance finds every exact cut again, scored
        # by its best fit and not by a looser alignment that it admits.
        for alpha, beta in [(90.0, 55.0), (75.0, 25.0), (60.0, 20.0), (96.0, 32.0), (100.0, 20.0)]:
            spec = TriangleSpec(alpha, beta)
            per = construct_triangle(spec).perimeter
            exact = search_straight_cuts(spec)
            assert exact, spec
            loose = search_straight_cuts(spec, tol=tol)
            for e in exact:
                assert any(
                    c.crossed == e.crossed
                    and all(
                        getattr(c, x) == pytest.approx(getattr(e, x), abs=1e-12 * per)
                        for x in ("s", "t", "s_box", "t_box")
                    )
                    and c.residual <= 1e-12
                    for c in loose
                ), (spec, e, loose)

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
        # Re-derive the certification facts from the public pieces: under
        # the reported assignment, each cake piece has the area of its
        # mirrored box piece, and a proper motion carries it there with
        # no vertex further off than the reported residual.
        triangles = [
            (90.0, 55.0), (75.0, 25.0), (100.0, 50.0), (90.0, 30.0), (60.0, 30.0),
            (45.0, 30.0), (80.0, 40.0), (60.0, 20.0), (100.0, 20.0),
        ]
        for (alpha, beta), side_c in itertools.product(triangles, [1.0, 0.73, 1.618]):
            spec = TriangleSpec(alpha, beta, side_c)
            tri = construct_triangle(spec)
            cands = search_straight_cuts(spec)
            assert cands, spec
            for c in cands:
                cake_split = split_by_params(tri, c.s, c.t)
                box_split = split_by_params(tri, c.s_box, c.t_box)
                assert cake_split is not None and box_split is not None
                if c.crossed:
                    box_split = (box_split[1], box_split[0])
                for piece, box_piece in zip(cake_split, box_split):
                    assert piece.area == pytest.approx(box_piece.area, abs=1e-6)
                    mirrored = mirror_polygon(box_piece, side_c / 2.0)
                    assert find_motion(piece, mirrored, tol=c.residual) is not None, (spec, c)

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


def _boundary_param(cake: Polygon, p: complex) -> float:
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
    # split_by_params stays in mirrorcut.search only; boundary_point,
    # which nothing called, is gone.
    assert "split_by_params" not in mirrorcut.__all__
    assert not hasattr(mirrorcut, "split_by_params")
    assert "split_by_params" in mirrorcut.search.__all__
    assert not hasattr(mirrorcut, "boundary_point")
    assert not hasattr(mirrorcut.search, "boundary_point")


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


def test_band_leaves_only_exact_hits() -> None:
    # A seeded slice of the sweep that set BAND: near-isosceles, thin and
    # near-isosceles-on-a-cut-line cakes raise nothing but the refusal,
    # and every hit outside the band is exact to rounding.
    rng = random.Random(22)
    gaps = [10.0 ** -k for k in range(13)]
    angles = []
    for x in [rng.uniform(1.0, 89.0) for _ in range(4)]:
        base = (x, x, 180.0 - 2.0 * x)
        angles += [(a, b + g) for a, b, _ in itertools.permutations(base) for g in gaps]
    for x in [rng.uniform(5.0, 170.0) for _ in range(3)]:
        angles += [(x, g) for g in gaps[1:10]] + [(g, x) for g in gaps[1:10]]
    for name, y0 in [("x=y+z", 45.0), ("x=2y", 36.0), ("x=3y", 36.0)]:
        line = _CUT_LINES[name][1]
        angles += [p[:2] for g in gaps[:7] for p in itertools.permutations(line(y0 + g))]
    refused = hits = 0
    for (alpha, beta), side_c in itertools.product(angles, (1e-3, 1e3)):
        spec = TriangleSpec(alpha, beta, side_c)
        try:
            found = search_straight_cuts(spec)
        except ValueError as exc:
            assert _REFUSAL in str(exc), spec
            refused += 1
            continue
        per = construct_triangle(spec).perimeter
        assert all(c.residual <= 1e-13 * per for c in found), (spec, found)
        hits += len(found)
    assert refused and hits


# -- the table of types ------------------------------------------------------


def test_the_table_has_every_type_once() -> None:
    assert len(_VERTEX_TYPES) == len(set(_VERTEX_TYPES)) == 162
    assert len(_VERTEX_BLOCKS) == len(set(_VERTEX_BLOCKS)) == 108
    assert len(_CORNER_TYPES) == len(set(_CORNER_TYPES)) == 108
    # Every block serves three types, as their first or second block.
    uses = [b for t in _VERTEX_TYPES for b in t[3:]]
    assert all(uses.count(b) == 3 for b in range(108))


# -- why the search may refuse only near-isosceles cakes --------------------
#
# The solver drops a type in two places where an isosceles cake would give
# a continuum of cuts: corner types whose angle rows have rank one, and
# vertex blocks whose three equalities vanish identically.  In exact
# arithmetic over the cake's angles or squared sides, each happens only on
# an isosceles cake, which the search refuses before solving.


def _rank(rows: list) -> int:
    """Rank of a list of equal-length rows of Fractions."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [x - f * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


def _forces_equal_pair(forms: list) -> bool:
    """Whether forms == 0 on (x0, x1, x2) implies xa == xb for some a != b:
    the solutions are a subspace, which lies in a union of hyperplanes
    only if it lies in one of them."""
    rank = _rank(forms)
    return any(
        _rank(forms + [tuple(Fraction(int(k == a) - int(k == b)) for k in range(3))]) == rank
        for a, b in itertools.combinations(range(3), 2)
    )


def _unit(k: int) -> tuple:
    return tuple(Fraction(int(x == k % 3)) for x in range(3))


def _angle_conditions(i: int, j: int, rows: tuple, pivot) -> list:
    """Linear forms in the cake's angles that vanish exactly where the
    angle rows of a corner type hold together; C_i is written in
    (theta_0, theta_1, theta_2), with pi their sum."""
    pi = (Fraction(1),) * 3

    def consts(i: int) -> tuple:
        th = _unit(i)
        zero = (Fraction(0),) * 3
        return (th, zero, tuple(p - t for p, t in zip(pi, th)), pi, _unit(i + 1), _unit(i + 2), th)

    c = [tuple(x - y for x, y in zip(consts(j)[m], consts(i)[k])) for _, _, k, m in rows]
    if pivot is None:
        # Row n is f times row p in (phi, phi_box), so it holds with row
        # p only where c_n == f * c_p.
        p = next(n for n, row in enumerate(rows) if row[:2] != (0, 0))
        a0, b0 = rows[p][:2]
        forms = []
        for (a, b, _, _), cn in zip(rows, c):
            f = Fraction(a * a0 + b * b0, a0 * a0 + b0 * b0)
            assert (a, b) == (f * a0, f * b0)
            forms.append(tuple(x - f * y for x, y in zip(cn, c[p])))
        return forms
    # Row n holds at the pivot rows' solution: det * c_n equals a_n times
    # det * phi plus b_n times det * phi_box.
    p, q, det = pivot
    (ap, bp), (aq, bq) = rows[p][:2], rows[q][:2]
    return [
        tuple(
            det * cn - a * (bq * cp - bp * cq) - b * (ap * cq - aq * cp)
            for cn, cp, cq in zip(c[n], c[p], c[q])
        )
        for n, (a, b, _, _) in enumerate(rows)
    ]


def test_rank_one_corner_types_hold_only_on_isosceles_cakes() -> None:
    assert sum(t[3] is None for t in _CORNER_TYPES) == 9
    for i, j, rows, pivot, _ in _CORNER_TYPES:
        rank = _rank([(Fraction(a), Fraction(b)) for a, b, _, _ in rows])
        assert (pivot is None) == (rank == 1)
        if pivot is None:
            assert _forces_equal_pair(_angle_conditions(i, j, rows, pivot)), (i, j, rows)


def test_singular_chord_offsets_need_an_isosceles_cake() -> None:
    # The offset rows are (e1, -f1), the x and x_box coefficients of
    # matched edges.  Every triangle edge has e1 > 0, so the rows have
    # rank one only if the quadrilateral's fixed edge V_i+1 V_i+2 (e1 = 0)
    # meets the box's fixed edge (f1 = 0).  In exact arithmetic that
    # needs an isosceles cake; the solver's threshold is a float margin.
    fixed = [t for t in _CORNER_TYPES if t[3] is not None and (1, 1, 1) in t[4]]
    assert len(fixed) == 18
    for i, j, rows, pivot, _ in fixed:
        assert _forces_equal_pair(_angle_conditions(i, j, rows, pivot)), (i, j, rows)


def test_vanishing_vertex_block_forces_two_equal_sides() -> None:
    # Squared edges as quadratics in u whose coefficients are linear forms
    # in the squared sides (s_0, s_1, s_2), side k running from vertex k;
    # 2 e.f = s_i+2 - s_i - s_i+1, as in _vertex_cuts.
    zero = (Fraction(0),) * 3
    pieces = []
    for i in range(3):
        ee, ff, gg = (_unit(i + k) for k in range(3))
        two_ef = tuple(g - e - f for e, f, g in zip(ee, ff, gg))
        chord = (ff, two_ef, ee)
        minus_two_ff = tuple(-2 * x for x in ff)
        pieces += [
            ((zero, zero, ee), (ff, zero, zero), chord),
            (chord, (ff, minus_two_ff, ff), (zero, zero, gg)),
        ]

    def flipped(q: tuple) -> tuple:
        a, b, c = q
        return (
            a,
            tuple(-2 * x - y for x, y in zip(a, b)),
            tuple(x + y + z for x, y, z in zip(a, b, c)),
        )

    for mine, theirs, crossed, match in _VERTEX_BLOCKS:
        q = pieces[theirs]
        q = tuple(map(flipped, q)) if crossed else q
        forms = [
            tuple(x - y for x, y in zip(pk[n], qm[n]))
            for pk, qm in zip(pieces[mine], (q[m] for m in match))
            for n in range(3)
        ]
        assert _forces_equal_pair(forms), (mine, theirs, crossed, match)


def _walked_vertex_cuts(z: list[complex], cum: list[float]) -> list:
    """Reference: _vertex_cuts as a walk over the 162 types one by one."""
    small = _EXACT * cum[-1] * cum[-1]
    pieces = []
    for i in range(3):
        e = z[(i + 1) % 3] - z[i]
        f = z[(i + 2) % 3] - z[(i + 1) % 3]
        g = z[i] - z[(i + 2) % 3]
        ee, ff, gg = (w.real * w.real + w.imag * w.imag for w in (e, f, g))
        chord = (ff, 2.0 * (e.real * f.real + e.imag * f.imag), ee)
        pieces.append((((0.0, 0.0, ee), (ff, 0.0, 0.0), chord), (chord, (ff, -2.0 * ff, ff), (0.0, 0.0, gg))))

    def foot(i: int, frac: float) -> float:
        k = (i + 1) % 3
        return cum[k] + frac * (cum[k + 1] - cum[k])

    def flipped(p: tuple) -> tuple:
        a, b, c = p
        return (a, -2.0 * a - b, a + b + c)

    cuts = []
    for i, j, crossed in itertools.product(range(3), range(3), (False, True)):
        if crossed:
            u1, u2 = (tuple(map(flipped, piece)) for piece in pieces[j])
            pairs = ((pieces[i][0], u2), (pieces[i][1], u1))
        else:
            pairs = ((pieces[i][0], pieces[j][0]), (pieces[i][1], pieces[j][1]))
        for r1, r2 in itertools.product(range(3), repeat=2):
            polys = [
                tuple(x - y for x, y in zip(p[k], q[(r - k - 1) % 3]))
                for (p, q), r in ((pairs[0], r1), (pairs[1], r2))
                for k in range(3)
            ]
            for p in [p for p in polys if max(map(abs, p)) > small]:
                for u in _quad_candidates(*p):
                    if 0.0 < u < 1.0 and all(abs((a * u + b) * u + c) <= small for a, b, c in polys):
                        w = 1.0 - u if crossed else u
                        cuts.append((cum[i], foot(i, u), cum[j], foot(j, w), crossed))
    return cuts


def _walked_corner_cuts(z: list[complex], cum: list[float], theta: list[float]) -> list:
    """Reference: _corner_cuts as a walk over the 108 types one by one,
    building and pivoting each type's angle rows afresh."""
    per = cum[-1]
    side = [abs(z[(k + 1) % 3] - z[k]) for k in range(3)]
    angles = []
    for i in range(3):
        th = theta[i]
        angles.append((
            ((0, th), (1, 0.0), (-1, math.pi - th)),
            ((-1, math.pi), (0, theta[(i + 1) % 3]), (0, theta[(i + 2) % 3]), (1, th)),
        ))

    def edges(i: int, phi: float) -> tuple:
        s_psi = math.sin(math.pi - theta[i] - phi)
        chord = math.sin(theta[i]) / s_psi
        back = math.sin(phi) / s_psi
        return (
            ((0.0, 1.0), (0.0, chord), (0.0, back)),
            ((side[i], -1.0), (side[(i + 1) % 3], 0.0), (side[(i + 2) % 3], -back), (0.0, chord)),
        )

    cuts = []
    for i, j in itertools.product(range(3), repeat=2):
        for rt, rq in itertools.product(range(3), range(4)):
            maps = ((0, rt, 3), (1, rq, 4))
            rows = [
                (a, -a2, c2 - c)
                for w, r, n in maps
                for k, (a, c) in enumerate(angles[i][w])
                for a2, c2 in (angles[j][w][(r - k) % n],)
            ]
            solved = _solve2(rows, 0.0)
            if solved is None:
                continue
            phi, phi_box = solved
            if not (0.0 < phi < math.pi - theta[i] and 0.0 < phi_box < math.pi - theta[j]):
                continue
            if any(abs(a * phi + b * phi_box - c) > _EXACT for a, b, c in rows):
                continue
            mine, theirs = edges(i, phi), edges(j, phi_box)
            rows = [
                (e1, -f1, f0 - e0)
                for w, r, n in maps
                for k, (e0, e1) in enumerate(mine[w])
                for f0, f1 in (theirs[w][(r - k - 1) % n],)
            ]
            scale = max(max(abs(a), abs(b)) for a, b, _ in rows)
            solved = _solve2(rows, 1e-9 * scale * scale)
            if solved is None:
                raise ValueError("corner cuts with a free chord offset form a continuum")
            x, x_box = solved
            y, y_box = x * mine[0][2][1], x_box * theirs[0][2][1]
            if not (
                0.0 < x < side[i] and 0.0 < y < side[(i + 2) % 3]
                and 0.0 < x_box < side[j] and 0.0 < y_box < side[(j + 2) % 3]
            ):
                continue
            if any(abs(a * x + b * x_box - c) > _EXACT * scale * per for a, b, c in rows):
                continue
            cuts.append((cum[i] - y, cum[i] + x, cum[j] - y_box, cum[j] + x_box, False))
    return cuts


def _outcome(solve) -> object:
    try:
        return solve()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "alpha, beta, side_c",
    [
        (90.0, 55.0, 1.0), (75.0, 25.0, 0.73), (83.7, 41.9, 1.618), (100.0, 50.0, 2.0),
        (45.0, 30.0, 0.5), (90.0, 30.0, 1.0), (60.0, 30.0, 1.0), (114.6, 38.2, 1.0),
        (50.0, 60.0, 1.0),
        # Isosceles, and isosceles within the solver's margin, which the
        # search refuses up front.
        (40.0, 70.0, 1.0), (70.0, 70.0 + 1e-8, 1.0), (30.0, 120.0, 1.0),
    ],
)
def test_table_gives_the_cuts_of_a_walk_over_every_type(alpha: float, beta: float, side_c: float) -> None:
    # Same floats, in the same order, and the same errors.
    spec = TriangleSpec(alpha, beta, side_c)
    cake = construct_triangle(spec)
    z = [complex(v.real, v.imag) for v in cake.vertices]
    cum = _vertex_params(cake)
    theta = [math.radians(x) for x in spec.angles()]
    assert _vertex_cuts(z, cum) == _walked_vertex_cuts(z, cum)
    assert _outcome(lambda: _corner_cuts(z, cum, theta)) == _outcome(
        lambda: _walked_corner_cuts(z, cum, theta)
    )


# -- which triangles have a straight cut ------------------------------------
#
# The solver finds a cut on four lines of angle triples (x, y, z), in any
# labelling of the cake's angles: x = y + z (the median cut), x = 3y,
# x = 2y and z = x + 2y.  Each line is parametrized by y in (0, hi).
_CUT_LINES = {
    "x=y+z": (90.0, lambda y: (90.0, y, 90.0 - y)),
    "x=3y": (45.0, lambda y: (3.0 * y, y, 180.0 - 4.0 * y)),
    "x=2y": (60.0, lambda y: (2.0 * y, y, 180.0 - 3.0 * y)),
    "z=x+2y": (60.0, lambda y: (90.0 - 1.5 * y, y, 90.0 + 0.5 * y)),
}


def _far_from_isosceles(angles: tuple[float, ...], margin: float) -> bool:
    return min(angles) > margin and all(
        abs(a - b) > margin for a, b in itertools.combinations(angles, 2)
    )


@pytest.mark.parametrize("line", sorted(_CUT_LINES))
def test_solver_finds_a_cut_on_every_line_in_every_labelling(line: str) -> None:
    hi, on_line = _CUT_LINES[line]
    rng = random.Random(sorted(_CUT_LINES).index(line))
    ys = []
    while len(ys) < 3:
        y = rng.uniform(0.0, hi)
        if _far_from_isosceles(on_line(y), 1.0):
            ys.append(y)
    for y in ys:
        for alpha, beta, _ in itertools.permutations(on_line(y)):
            assert search_straight_cuts(TriangleSpec(alpha, beta)), (line, y, alpha, beta)


def test_solver_finds_no_cut_off_the_lines() -> None:
    def gap(angles: tuple[float, float, float]) -> float:
        # Distance in degrees to the nearest line, in any labelling.
        return min(
            min(abs(x - y - z), abs(x - 3.0 * y), abs(x - 2.0 * y), abs(z - x - 2.0 * y))
            for x, y, z in itertools.permutations(angles)
        )

    rng = random.Random(16)
    checked = 0
    while checked < 60:
        alpha = rng.uniform(1.0, 178.0)
        beta = rng.uniform(1.0, 179.0 - alpha)
        angles = (alpha, beta, 180.0 - alpha - beta)
        if not _far_from_isosceles(angles, 0.5) or gap(angles) < 0.5:
            continue
        checked += 1
        assert search_straight_cuts(TriangleSpec(alpha, beta)) == [], angles
