"""Dissection families: geometry details and precondition failures."""

from __future__ import annotations

import math
import random
import re
from typing import Callable

import pytest

from mirrorcut.geom import (
    DegenerateSpecError,
    TriangleSpec,
    construct_triangle,
    dist,
    incenter,
    is_mirror_symmetric,
    unit,
)
from mirrorcut.verifier import verify_nice
from mirrorcut.constructions import (
    ANGLE_TOL,
    ClosureError,
    Dissection,
    WrongFamilyError,
    cut_2beta_acute,
    cut_2beta_obtuse,
    cut_alpha_3beta,
    cut_gear,
    cut_incenter3,
    cut_median,
    cut_scissors,
    cut_wheel,
)


def _assert_nice(d: Dissection) -> None:
    report = verify_nice(d)
    assert report.passed, report


def _assert_nice_or_refused(build: Callable[[], Dissection]) -> None:
    """build() returns a NICE dissection or refuses its spec through the
    family gates or _assemble's certification; no other error escapes."""
    try:
        d = build()
    except (DegenerateSpecError, WrongFamilyError):
        return
    except ClosureError as exc:
        assert re.search("failed verification|not directly congruent", str(exc)), exc
        return
    _assert_nice(d)


class TestIncenter3:
    def test_three_kites_tile(self) -> None:
        d = cut_incenter3(TriangleSpec(80.0, 55.0))
        assert len(d.pieces) == 3
        assert d.cut is None
        _assert_nice(d)

    def test_pieces_are_kites_through_incenter(self) -> None:
        spec = TriangleSpec(80.0, 55.0)
        d = cut_incenter3(spec)
        inc = incenter(d.cake)
        for piece in d.pieces:
            assert any(dist(v, inc) < 1e-12 for v in piece.vertices)
            assert is_mirror_symmetric(piece)

    def test_rejects_isosceles(self) -> None:
        # An isosceles cake is its own mirror image: no dissection of it
        # is nice, so the family needs a scalene cake like every other.
        with pytest.raises(DegenerateSpecError, match="scalene"):
            cut_incenter3(TriangleSpec(60.0, 60.0))

    @pytest.mark.parametrize("d", [1e-7, 1e-8, 2e-9])
    def test_rejects_cake_that_the_verifier_calls_isosceles(self, d: float) -> None:
        # Within verify_nice's length tolerance of isosceles: the family
        # gate refuses it for that reason, not as a failed verification.
        with pytest.raises(DegenerateSpecError, match="needs a scalene triangle"):
            cut_incenter3(TriangleSpec(70.0, 70.0 + d))

    def test_builds_cake_just_outside_the_verifier_tolerance(self) -> None:
        _assert_nice(cut_incenter3(TriangleSpec(70.0, 70.0 + 1e-6)))

    def test_rejects_flat(self) -> None:
        with pytest.raises(DegenerateSpecError):
            cut_incenter3(TriangleSpec(120.0, 60.0))


class TestMedian:
    def test_right_angle_required(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_median(TriangleSpec(80.0, 40.0))

    def test_rejects_isosceles_right(self) -> None:
        with pytest.raises(DegenerateSpecError):
            cut_median(TriangleSpec(90.0, 45.0))

    def test_cut_is_median_to_hypotenuse(self) -> None:
        spec = TriangleSpec(90.0, 55.0)
        d = cut_median(spec)
        b, c = d.cake.vertices[1], d.cake.vertices[2]
        mid = complex((b.real + c.real) / 2.0, (b.imag + c.imag) / 2.0)
        assert d.cut is not None
        assert any(dist(v, mid) < 1e-12 for v in d.cut.vertices)
        # Median to the hypotenuse equals half the hypotenuse, so both
        # pieces are isosceles and hence mirror-symmetric.
        for piece in d.pieces:
            assert is_mirror_symmetric(piece)
        _assert_nice(d)


class TestAlpha3Beta:
    def test_family_gate(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_alpha_3beta(TriangleSpec(80.0, 40.0))

    def test_pieces_isosceles(self) -> None:
        d = cut_alpha_3beta(TriangleSpec(75.0, 25.0))
        for piece in d.pieces:
            assert is_mirror_symmetric(piece)
        _assert_nice(d)

    def test_cut_endpoint_on_bc(self) -> None:
        spec = TriangleSpec(75.0, 25.0)
        d = cut_alpha_3beta(spec)
        assert d.cut is not None
        b, c = d.cake.vertices[1], d.cake.vertices[2]
        end = d.cut.vertices[-1]
        seg = dist(b, end) + dist(end, c)
        assert seg == pytest.approx(dist(b, c), abs=1e-9)


class TestTwoBeta:
    def test_acute_family_gate(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_2beta_acute(TriangleSpec(75.0, 25.0))
        with pytest.raises(WrongFamilyError):
            # alpha = 2*beta but alpha is not acute
            cut_2beta_acute(TriangleSpec(100.0, 50.0))

    def test_obtuse_family_gate(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_2beta_obtuse(TriangleSpec(80.0, 40.0))

    def test_acute_tiles(self) -> None:
        d = cut_2beta_acute(TriangleSpec(80.0, 40.0))
        assert len(d.pieces) == 2
        _assert_nice(d)

    def test_obtuse_tiles(self) -> None:
        d = cut_2beta_obtuse(TriangleSpec(100.0, 50.0))
        assert len(d.pieces) == 2
        _assert_nice(d)

    def test_obtuse_has_quad_and_triangle(self) -> None:
        d = cut_2beta_obtuse(TriangleSpec(100.0, 50.0))
        sizes = sorted(len(p.vertices) for p in d.pieces)
        assert sizes == [3, 4]


class TestWheel:
    @pytest.mark.parametrize("n,beta", [(1, 40.0), (2, 20.0), (3, 30.0), (4, 40.0)])
    def test_family_members_tile(self, n: int, beta: float) -> None:
        alpha = (n + 1) * beta / n
        d = cut_wheel(TriangleSpec(alpha, beta), n=n)
        assert d.n == n
        _assert_nice(d)

    def test_fan_piece_vertex_count(self) -> None:
        # The fan has A, B and the 2n broken-line vertices V_1..V_2n.
        n = 2
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=n)
        sizes = sorted(len(p.vertices) for p in d.pieces)
        assert sizes == [2 * n + 2, 2 * n + 2]

    def test_cut_chord_angles(self) -> None:
        # Every chord of the circular fan subtends the same turn, so all
        # cut segments have equal length.
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        assert d.cut is not None
        pts = d.cut.vertices
        lengths = [dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
        assert max(lengths) - min(lengths) < 1e-12

    def test_both_pieces_mirror_symmetric(self) -> None:
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        for piece in d.pieces:
            assert is_mirror_symmetric(piece)

    def test_rotation_is_angle_difference(self) -> None:
        spec = TriangleSpec(30.0, 20.0)
        d = cut_wheel(spec, n=2)
        phis = sorted(m.phi for m in d.motions)
        # One translation-or-identity motion and one rotation by
        # alpha - beta, possibly represented as its 360 complement.
        rot = [p for p in phis if min(p, 360.0 - p) > 1e-9]
        assert len(rot) == 1
        assert min(rot[0], 360.0 - rot[0]) == pytest.approx(10.0, abs=1e-9)

    def test_wrong_n_rejected(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_wheel(TriangleSpec(30.0, 20.0), n=3)

    def test_isosceles_rejected(self) -> None:
        # alpha == beta can never satisfy n*alpha == (n+1)*beta, so the
        # family gate itself rules isosceles input out.
        with pytest.raises(WrongFamilyError):
            cut_wheel(TriangleSpec(45.0, 45.0), n=1)


class TestGear:
    @pytest.mark.parametrize("n,beta", [(1, 40.0), (2, 20.0), (3, 30.0)])
    def test_family_members_tile(self, n: int, beta: float) -> None:
        alpha = (n + 1) * beta / n
        d = cut_gear(TriangleSpec(alpha, beta), n=n)
        _assert_nice(d)

    def test_saw_has_equal_segments(self) -> None:
        # The stored cut is the interior part of the saw, S_1 .. S_2n;
        # the first saw segment runs along AB and is not a cut.
        n = 2
        d = cut_gear(TriangleSpec(30.0, 20.0), n=n)
        assert d.cut is not None
        pts = d.cut.vertices
        assert len(pts) == 2 * n
        lengths = [dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
        assert max(lengths) - min(lengths) < 1e-12

    def test_saw_turn_angles(self) -> None:
        # Cut vertex i is saw vertex S_{i+1}, where the saw alternates
        # turning by -alpha (even saw index) and +beta (odd saw index).
        spec = TriangleSpec(30.0, 20.0)
        d = cut_gear(spec, n=2)
        assert d.cut is not None
        pts = d.cut.vertices
        for i in range(1, len(pts) - 1):
            prev = math.atan2(pts[i].imag - pts[i - 1].imag, pts[i].real - pts[i - 1].real)
            nxt = math.atan2(pts[i + 1].imag - pts[i].imag, pts[i + 1].real - pts[i].real)
            turn = math.degrees(nxt - prev)
            turn = (turn + 180.0) % 360.0 - 180.0
            expected = -spec.alpha if i % 2 == 1 else spec.beta
            assert turn == pytest.approx(expected, abs=1e-9)

    def test_wrong_n_rejected(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_gear(TriangleSpec(30.0, 20.0), n=1)


class TestFamilyEdges:
    """Specs at the edges of each family's angle range, with the family
    relation off by up to ANGLE_TOL: every build is NICE or refused."""

    @pytest.mark.parametrize("build", [cut_wheel, cut_gear])
    def test_wheel_and_gear_up_to_the_flat_limit(self, build) -> None:
        rng = random.Random(19)
        for n in (1, 2, 3, 4, 6, 9, 13, 20):
            limit = 180.0 * n / (2 * n + 1)  # alpha + beta == 180
            for gap in (1e-6, 10.0 ** rng.uniform(-5.0, math.log10(limit))):
                beta = limit - gap
                alpha = ((n + 1) * beta + rng.uniform(-ANGLE_TOL, ANGLE_TOL)) / n
                _assert_nice_or_refused(lambda: build(TriangleSpec(alpha, beta), n))

    @pytest.mark.parametrize("edge", [45.0, 60.0])
    def test_twobeta_near_its_edges(self, edge: float) -> None:
        # beta = 45 splits the acute from the obtuse family; beta = 60
        # makes gamma vanish.
        rng = random.Random(19)
        gaps = [rng.uniform(-1e-9, 1e-9) for _ in range(6)] + [-1e-6, 1e-6, -1e-3, 1e-3]
        for gap in gaps:
            beta = edge + gap
            alpha = 2.0 * beta + rng.uniform(-ANGLE_TOL, ANGLE_TOL)
            for build in (cut_2beta_acute, cut_2beta_obtuse):
                _assert_nice_or_refused(lambda: build(TriangleSpec(alpha, beta)))


class TestScissors:
    def test_only_one_triangle_admitted(self) -> None:
        with pytest.raises(WrongFamilyError):
            cut_scissors(TriangleSpec(30.0, 25.0))
        with pytest.raises(WrongFamilyError):
            cut_scissors(TriangleSpec(35.0, 20.0))

    def test_tiles(self) -> None:
        d = cut_scissors(TriangleSpec(30.0, 20.0))
        assert len(d.pieces) == 2
        _assert_nice(d)

    def test_cut_lands_on_ab_between_endpoints(self) -> None:
        # The cut runs K (on CA) -> L -> M (on AB).
        d = cut_scissors(TriangleSpec(30.0, 20.0))
        assert d.cut is not None
        assert len(d.cut.vertices) == 3
        m = d.cut.vertices[-1]
        assert m.imag == 0.0
        assert 0.0 < m.real < 1.0

    def test_cut_segments_equal_with_gamma_angles(self) -> None:
        d = cut_scissors(TriangleSpec(30.0, 20.0))
        assert d.cut is not None
        k, l, m = d.cut.vertices
        c = d.cake.vertices[2]
        legs = [dist(c, k), dist(k, l), dist(l, m)]
        assert max(legs) - min(legs) < 1e-9

    def test_pieces_mirror_symmetric(self) -> None:
        d = cut_scissors(TriangleSpec(30.0, 20.0))
        for piece in d.pieces:
            assert is_mirror_symmetric(piece)

    @pytest.mark.parametrize("side", [1.0, 0.73, 7.0])
    def test_cut_matches_bisection_reference(self, side: float) -> None:
        # Reference: bisect the height of M = C + s * (d0 + d1 + d2) over
        # s in [0, |CA|] until the bracket stops shrinking.
        spec = TriangleSpec(30.0, 20.0, side)
        a, _, c = construct_triangle(spec).vertices
        dirs = [unit(180.0 + spec.alpha + j * (180.0 - spec.gamma)) for j in range(3)]
        lo, hi = 0.0, dist(c, a)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if c.imag + mid * (dirs[0].imag + dirs[1].imag + dirs[2].imag) > 0.0:
                lo = mid
            else:
                hi = mid
        s = 0.5 * (lo + hi)
        k = c + s * dirs[0]
        l = k + s * dirs[1]
        m = complex((l + s * dirs[2]).real, 0.0)
        d = cut_scissors(spec)
        assert d.cut is not None
        for got, want in zip(d.cut.vertices, (k, l, m)):
            assert dist(got, want) <= 1e-12 * side
        assert dist(c, d.cut.vertices[0]) == pytest.approx(s, abs=1e-12 * side)

    def test_scaling_invariance(self) -> None:
        small = cut_scissors(TriangleSpec(30.0, 20.0, 1.0))
        big = cut_scissors(TriangleSpec(30.0, 20.0, 7.0))
        assert big.cake.area == pytest.approx(49.0 * small.cake.area, rel=1e-12)
        _assert_nice(big)


class TestDissectionInvariantsAcrossFamilies:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: cut_incenter3(TriangleSpec(80.0, 55.0)),
            lambda: cut_median(TriangleSpec(90.0, 55.0)),
            lambda: cut_alpha_3beta(TriangleSpec(75.0, 25.0)),
            lambda: cut_2beta_acute(TriangleSpec(80.0, 40.0)),
            lambda: cut_2beta_obtuse(TriangleSpec(100.0, 50.0)),
            lambda: cut_wheel(TriangleSpec(30.0, 20.0), n=2),
            lambda: cut_gear(TriangleSpec(30.0, 20.0), n=2),
            lambda: cut_scissors(TriangleSpec(30.0, 20.0)),
        ],
        ids=[
            "incenter3",
            "median",
            "alpha3beta",
            "twobeta_acute",
            "twobeta_obtuse",
            "wheel",
            "gear",
            "scissors",
        ],
    )
    def test_motions_are_proper_and_box_is_mirror(self, build) -> None:
        d = build()
        report = verify_nice(d)
        assert report.passed
        assert report.box_is_mirror and report.cake_scalene
        # The box is the reflection of the cake: same area, same edge
        # multiset, but no proper motion takes one to the other.
        assert d.box.area == pytest.approx(d.cake.area, rel=1e-12)
        assert sorted(d.box.edge_lengths()) == pytest.approx(
            sorted(d.cake.edge_lengths())
        )
