"""Geometry core: triangle construction, motions, areas, symmetry."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcut import geom
from mirrorcut.geom import (
    DegenerateSpecError,
    DirectedLine,
    Polygon,
    RigidMotion,
    TriangleSpec,
    apply_motion,
    construct_triangle,
    find_motion,
    incenter,
    intersection_area,
    is_mirror_symmetric,
    mirror_polygon,
    oriented_angle,
    signed_area,
    triangulate,
)


def _pt(x: float, y: float) -> complex:
    return complex(float(x), float(y))


RIGHT_345 = Polygon((_pt(0, 0), _pt(4, 0), _pt(0, 3)))


class TestTriangleSpec:
    def test_angles_sum(self) -> None:
        spec = TriangleSpec(80.0, 55.0)
        assert spec.gamma == pytest.approx(45.0)
        assert sum(spec.angles()) == pytest.approx(180.0)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 50.0), (50.0, 0.0), (-10.0, 50.0), (120.0, 60.0), (179.9, 0.2)],
    )
    def test_degenerate_rejected(self, alpha: float, beta: float) -> None:
        with pytest.raises(DegenerateSpecError):
            TriangleSpec(alpha, beta)


class TestConstructTriangle:
    def test_law_of_sines_oracle(self) -> None:
        # Independent oracle: place C by intersecting the two rays from A
        # and B rather than by the law of sines.
        alpha, beta, c = 75.0, 40.0, 2.0
        tri = construct_triangle(TriangleSpec(alpha, beta, c))
        a, b = tri.vertices[0], tri.vertices[1]
        assert (a.real, a.imag) == (0.0, 0.0)
        assert (b.real, b.imag) == (c, 0.0)
        # Ray from A at angle alpha, ray from B at angle 180 - beta.
        ta = math.tan(math.radians(alpha))
        tb = math.tan(math.radians(beta))
        x = c * tb / (ta + tb)
        y = x * ta
        assert tri.vertices[2].real == pytest.approx(x, abs=1e-12)
        assert tri.vertices[2].imag == pytest.approx(y, abs=1e-12)

    def test_interior_angles_roundtrip(self) -> None:
        tri = construct_triangle(TriangleSpec(83.7, 41.9))
        angles = tri.interior_angles()
        assert angles[0] == pytest.approx(83.7, abs=1e-9)
        assert angles[1] == pytest.approx(41.9, abs=1e-9)
        assert angles[2] == pytest.approx(54.4, abs=1e-9)

    def test_counterclockwise(self) -> None:
        tri = construct_triangle(TriangleSpec(30.0, 20.0))
        assert signed_area(tri.vertices) > 0


class TestPolygon:
    def test_area_shoelace(self) -> None:
        assert RIGHT_345.area == pytest.approx(6.0)
        assert RIGHT_345.perimeter == pytest.approx(12.0)

    def test_rejects_clockwise(self) -> None:
        with pytest.raises(ValueError):
            Polygon((_pt(0, 0), _pt(0, 3), _pt(4, 0)))

    def test_rejects_self_intersection(self) -> None:
        with pytest.raises(ValueError):
            Polygon((_pt(0, 0), _pt(2, 2), _pt(2, 0), _pt(0, 2)))

    def test_rejects_duplicate_vertex(self) -> None:
        with pytest.raises(ValueError):
            Polygon((_pt(0, 0), _pt(4, 0), _pt(4, 0), _pt(0, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vertex(self, bad: float) -> None:
        # A NaN outside the first vertex pair used to slip past the
        # diameter check.
        with pytest.raises(ValueError, match="finite"):
            Polygon((_pt(0, 0), _pt(1, 0), _pt(bad, 1)))
        with pytest.raises(ValueError, match="finite"):
            Polygon((_pt(0, 0), _pt(1, 0), _pt(1, bad), _pt(0, 1)))

    def test_interior_angles_with_reflex(self) -> None:
        # Arrowhead: one reflex vertex of 360 - 2*atan2(1,2) - wait, use
        # a known shape: square with a notch pushed in at the midpoint.
        poly = Polygon((_pt(0, 0), _pt(4, 0), _pt(4, 4), _pt(2, 1), _pt(0, 4)))
        angles = poly.interior_angles()
        assert sum(angles) == pytest.approx((len(angles) - 2) * 180.0)
        assert max(angles) > 180.0  # the pushed-in vertex is reflex


class TestMirrorAndIncenter:
    def test_mirror_involution(self) -> None:
        tri = construct_triangle(TriangleSpec(80.0, 40.0))
        back = mirror_polygon(mirror_polygon(tri, 0.7), 0.7)
        got = sorted((v.real, v.imag) for v in back.vertices)
        want = sorted((v.real, v.imag) for v in tri.vertices)
        for (gx, gy), (wx, wy) in zip(got, want):
            assert (gx, gy) == pytest.approx((wx, wy), abs=1e-12)

    def test_mirror_preserves_area(self) -> None:
        tri = construct_triangle(TriangleSpec(80.0, 40.0))
        assert mirror_polygon(tri, 0.3).area == pytest.approx(tri.area)

    def test_incenter_bisector_oracle(self) -> None:
        # Independent oracle: the incenter lies on the bisector from A,
        # which makes angle alpha/2 with AB, and on the bisector from B.
        spec = TriangleSpec(72.0, 48.0, 3.0)
        tri = construct_triangle(spec)
        inc = incenter(tri)
        ta = math.tan(math.radians(spec.alpha / 2.0))
        tb = math.tan(math.radians(spec.beta / 2.0))
        x = spec.side_c * tb / (ta + tb)
        y = x * ta
        assert inc.real == pytest.approx(x, abs=1e-12)
        assert inc.imag == pytest.approx(y, abs=1e-12)

    def test_incenter_equidistant_from_sides(self) -> None:
        tri = construct_triangle(TriangleSpec(65.0, 35.0))
        inc = incenter(tri)
        dists = []
        verts = tri.vertices
        for i in range(3):
            line = DirectedLine.through(verts[i], verts[(i + 1) % 3])
            dists.append(line.distance_to(inc))
        assert max(dists) - min(dists) == pytest.approx(0.0, abs=1e-12)


class TestRigidMotion:
    def test_rotation_about_fixes_center(self) -> None:
        center = _pt(1.3, -0.4)
        m = RigidMotion.rotation_about(center, 137.0)
        moved = m.apply(center)
        assert math.hypot(moved.real - center.real, moved.imag - center.imag) < 1e-15

    def test_rotation_center_recovered(self) -> None:
        m = RigidMotion.rotation_about(_pt(0.25, 2.0), 10.0)
        c = m.rotation_center()
        assert (c.real, c.imag) == pytest.approx((0.25, 2.0), abs=1e-12)

    def test_compose_against_pointwise(self) -> None:
        rng = random.Random(7)
        for _ in range(50):
            m1 = RigidMotion.rotation_about(
                _pt(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0, 360)
            )
            m2 = RigidMotion.rotation_about(
                _pt(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0, 360)
            )
            p = _pt(rng.uniform(-3, 3), rng.uniform(-3, 3))
            via_compose = m1.compose(m2).apply(p)
            direct = m1.apply(m2.apply(p))
            assert math.hypot(via_compose.real - direct.real, via_compose.imag - direct.imag) < 1e-12

    def test_inverse(self) -> None:
        m = RigidMotion(123.0, _pt(0.5, -1.5))
        p = _pt(2.0, 3.0)
        q = m.inverse().apply(m.apply(p))
        assert (q.real, q.imag) == pytest.approx((p.real, p.imag), abs=1e-12)

    def test_is_translation(self) -> None:
        assert RigidMotion(0.0, _pt(1.0, 2.0)).is_translation()
        assert not RigidMotion(90.0, _pt(0.0, 0.0)).is_translation()


class TestFindMotion:
    def test_recovers_random_motions(self) -> None:
        # The central recovery property: a motion applied to any of our
        # construction pieces is found again exactly (up to tolerance).
        tri = construct_triangle(TriangleSpec(77.0, 43.0))
        rng = random.Random(20240815)
        for _ in range(1000):
            phi = rng.uniform(0.0, 360.0)
            t = _pt(rng.uniform(-5, 5), rng.uniform(-5, 5))
            m = RigidMotion(phi, t)
            moved = apply_motion(m, tri)
            got = find_motion(tri, moved)
            assert got is not None
            for v in tri.vertices:
                a = got.apply(v)
                b = m.apply(v)
                assert math.hypot(a.real - b.real, a.imag - b.imag) < 1e-9

    def test_rejects_reflection(self) -> None:
        tri = construct_triangle(TriangleSpec(77.0, 43.0))
        assert find_motion(tri, mirror_polygon(tri, 0.0)) is None

    def test_translation_detected(self) -> None:
        tri = construct_triangle(TriangleSpec(77.0, 43.0))
        moved = apply_motion(RigidMotion(0.0, _pt(2.0, 1.0)), tri)
        got = find_motion(tri, moved)
        assert got is not None and got.is_translation(tol_deg=1e-9)

    def test_cyclic_relabeling_found(self) -> None:
        tri = construct_triangle(TriangleSpec(77.0, 43.0))
        rolled = Polygon(tri.vertices[1:] + tri.vertices[:1])
        got = find_motion(tri, rolled)
        assert got is not None

    @given(
        phi=st.floats(0.0, 360.0, exclude_max=True),
        tx=st.floats(-10.0, 10.0),
        ty=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_motion_roundtrip_property(self, phi: float, tx: float, ty: float) -> None:
        quad = Polygon((_pt(0, 0), _pt(3, 0), _pt(4, 2), _pt(1, 3)))
        m = RigidMotion(phi, _pt(tx, ty))
        got = find_motion(quad, apply_motion(m, quad))
        assert got is not None
        for v in quad.vertices:
            a, b = got.apply(v), m.apply(v)
            assert math.hypot(a.real - b.real, a.imag - b.imag) < 1e-8

    def test_ties_go_to_the_smallest_angle(self) -> None:
        # A square turned by 100 degrees is also turned by 10, 190 and
        # 280: four alignments fit exactly, and the smallest phi wins.
        square = Polygon((_pt(0, 0), _pt(1, 0), _pt(1, 1), _pt(0, 1)))
        moved = apply_motion(RigidMotion(100.0, _pt(3.0, -2.0)), square)
        got = find_motion(square, moved)
        assert got is not None
        assert got.phi == pytest.approx(10.0)

    def test_equal_angles_go_to_the_shortest_translation(self) -> None:
        # The staircase has two +x edges, so with a tolerance above its
        # size the alignments on either give phi = 0.  The exact one
        # (edge 0 onto edge 0) moves by (-1, -1); the later one (edge 0
        # onto edge 2) does not move at all, and wins on its norm.
        stair = Polygon(
            (_pt(0, 0), _pt(1, 0), _pt(1, 1), _pt(2, 1), _pt(2, 2), _pt(0, 2))
        )
        moved = apply_motion(RigidMotion(0.0, _pt(-1.0, -1.0)), stair)
        got = find_motion(stair, moved, tol=10.0)
        assert got is not None
        assert got.phi == 0.0
        assert (got.translation.real, got.translation.imag) == (0.0, 0.0)


class TestIntersectionArea:
    def test_disjoint(self) -> None:
        a = Polygon((_pt(0, 0), _pt(1, 0), _pt(1, 1), _pt(0, 1)))
        b = Polygon((_pt(5, 5), _pt(6, 5), _pt(6, 6), _pt(5, 6)))
        assert intersection_area(a, b) == 0.0

    def test_contained(self) -> None:
        outer = Polygon((_pt(0, 0), _pt(4, 0), _pt(4, 4), _pt(0, 4)))
        inner = Polygon((_pt(1, 1), _pt(2, 1), _pt(2, 2), _pt(1, 2)))
        assert intersection_area(outer, inner) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap_squares(self) -> None:
        a = Polygon((_pt(0, 0), _pt(2, 0), _pt(2, 2), _pt(0, 2)))
        b = Polygon((_pt(1, 0), _pt(3, 0), _pt(3, 2), _pt(1, 2)))
        assert intersection_area(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_shared_edge_only(self) -> None:
        a = Polygon((_pt(0, 0), _pt(1, 0), _pt(1, 1), _pt(0, 1)))
        b = Polygon((_pt(1, 0), _pt(2, 0), _pt(2, 1), _pt(1, 1)))
        assert intersection_area(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_nonconvex_against_convex(self) -> None:
        # An L-shape meeting a square that covers exactly one arm.
        ell = Polygon(
            (_pt(0, 0), _pt(3, 0), _pt(3, 1), _pt(1, 1), _pt(1, 3), _pt(0, 3))
        )
        square = Polygon((_pt(2, 0), _pt(3, 0), _pt(3, 3), _pt(2, 3)))
        assert intersection_area(ell, square) == pytest.approx(1.0, abs=1e-12)

    def test_triangulates_each_polygon_once(self, monkeypatch) -> None:
        # p has four triangles, yet q is ear-clipped once, not once per
        # triangle of p.
        calls: list[Polygon] = []

        def counting(poly: Polygon):
            calls.append(poly)
            return triangulate(poly)

        monkeypatch.setattr(geom, "triangulate", counting)
        hexagon = Polygon(
            (_pt(0, 0), _pt(2, 0), _pt(3, 1), _pt(2, 2), _pt(0, 2), _pt(-1, 1))
        )
        square = Polygon((_pt(0, 0), _pt(2, 0), _pt(2, 2), _pt(0, 2)))
        assert intersection_area(hexagon, square) == pytest.approx(4.0, abs=1e-12)
        assert calls == [square, hexagon]


class TestTriangulate:
    def test_area_conserved_on_nonconvex(self) -> None:
        poly = Polygon(
            (_pt(0, 0), _pt(4, 0), _pt(4, 4), _pt(2, 1), _pt(0, 4))
        )
        tris = triangulate(poly)
        total = sum(abs(signed_area(t)) for t in tris)
        assert total == pytest.approx(poly.area, abs=1e-12)
        assert len(tris) == len(poly.vertices) - 2


class TestMirrorSymmetry:
    def test_isosceles_triangle(self) -> None:
        assert is_mirror_symmetric(Polygon((_pt(-1, 0), _pt(1, 0), _pt(0, 2))))

    def test_scalene_triangle(self) -> None:
        assert not is_mirror_symmetric(RIGHT_345)

    def test_kite(self) -> None:
        kite = Polygon((_pt(0, -2), _pt(1, 0), _pt(0, 1), _pt(-1, 0)))
        assert is_mirror_symmetric(kite)

    def test_rotated_isosceles(self) -> None:
        base = Polygon((_pt(-1, 0), _pt(1, 0), _pt(0, 2)))
        rotated = apply_motion(RigidMotion.rotation_about(_pt(3, 3), 77.7), base)
        assert is_mirror_symmetric(rotated)

    @pytest.mark.parametrize("thin", [1e-6, 1e-3])
    def test_thin_triangle_in_every_labelling(self, thin: float) -> None:
        # The legs of (thin, 90, 90 - thin) differ by under 1e-9 of the
        # hypotenuse.  A fit on the short side, which the mirror image
        # lists first when the thin angle is at A, used to read it as
        # scalene in two of the six labellings.
        for alpha, beta, _ in itertools.permutations((thin, 90.0, 90.0 - thin)):
            assert is_mirror_symmetric(construct_triangle(TriangleSpec(alpha, beta)))


class TestOrientedAngle:
    def test_line_pairs_mod_180(self) -> None:
        ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        diag = DirectedLine.through(_pt(0, 0), _pt(1, 1))
        assert oriented_angle(ab, diag) == pytest.approx(45.0)
        assert oriented_angle(diag, ab) == pytest.approx(135.0)

    def test_reversal_invariance(self) -> None:
        ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        up = DirectedLine.through(_pt(2, 2), _pt(2, 5))
        assert oriented_angle(ab, up) == pytest.approx(
            oriented_angle(ab, up.reversed()) % 180.0
        )
