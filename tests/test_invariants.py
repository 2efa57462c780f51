"""Additive invariants on directed lines and rotation orbits."""

from __future__ import annotations

import math

import pytest

from mirrorcut.geom import (
    DirectedLine,
    Polygon,
    RigidMotion,
    TriangleSpec,
    apply_motion,
    construct_triangle,
    mirror_polygon,
)
from mirrorcut.invariants import (
    IllDefinedFunctionalError,
    j_classic,
    j_general,
    orbit_functional,
)
from mirrorcut.constructions import cut_wheel


def _pt(x: float, y: float) -> complex:
    return complex(float(x), float(y))


def _poly(*coords: tuple[float, float]) -> Polygon:
    return Polygon(tuple(_pt(x, y) for x, y in coords))


# A dodecagon with four horizontal edges of lengths 3, 1, 3 and 1.28;
# two run against the reference direction and two along it, so the
# hand-computed invariant is -3 + 1 + 3 + 1.28.
TWELVE_GON = _poly(
    (-2.28, 2), (-1.2, 1), (0, -1), (1, -2), (4, -2), (6, 0),
    (6, 2), (5, 2), (4, 3), (1, 3), (0, 1), (-1, 2),
)
LEFTWARD = DirectedLine.through(_pt(0, 0), _pt(-1, 0))


class TestJClassic:
    def test_hand_computed_dodecagon(self) -> None:
        assert j_classic(TWELVE_GON, LEFTWARD) == pytest.approx(2.28, abs=1e-12)

    def test_sign_flips_with_direction(self) -> None:
        rightward = LEFTWARD.reversed()
        assert j_classic(TWELVE_GON, rightward) == pytest.approx(-2.28, abs=1e-12)

    def test_no_parallel_edges(self) -> None:
        diagonal = DirectedLine.through(_pt(0, 0), _pt(5, 1))
        assert j_classic(TWELVE_GON, diagonal) == 0.0

    def test_triangle_base(self) -> None:
        tri = construct_triangle(TriangleSpec(80.0, 40.0, 2.5))
        along_ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        assert j_classic(tri, along_ab) == pytest.approx(2.5, abs=1e-12)

    def test_additive_under_splitting(self) -> None:
        whole = _poly((0, 0), (4, 0), (4, 2), (0, 2))
        bottom = _poly((0, 0), (4, 0), (4, 1), (0, 1))
        top = _poly((0, 1), (4, 1), (4, 2), (0, 2))
        for d in ((1, 0), (0, 1), (2, 1)):
            f = DirectedLine.through(_pt(0, 0), _pt(*d))
            assert j_classic(whole, f) == pytest.approx(
                j_classic(bottom, f) + j_classic(top, f), abs=1e-12
            )

    def test_translation_invariance(self) -> None:
        moved = apply_motion(RigidMotion(0.0, _pt(13.0, -4.5)), TWELVE_GON)
        assert j_classic(moved, LEFTWARD) == pytest.approx(2.28, abs=1e-9)

    def test_half_turn_negates(self) -> None:
        spun = apply_motion(RigidMotion.rotation_about(_pt(1, 1), 180.0), TWELVE_GON)
        assert j_classic(spun, LEFTWARD) == pytest.approx(-2.28, abs=1e-9)

    def test_vertical_mirror_preserves_horizontal_invariant(self) -> None:
        # Reflecting across a vertical axis flips each horizontal edge,
        # but restoring counterclockwise order flips it back.
        mirrored = mirror_polygon(TWELVE_GON, 0.0)
        assert j_classic(mirrored, LEFTWARD) == pytest.approx(2.28, abs=1e-12)

    def test_horizontal_mirror_negates_horizontal_invariant(self) -> None:
        # A mirror across a horizontal line is a half turn composed with
        # a vertical mirror, and only the half turn moves the invariant.
        flipped = apply_motion(
            RigidMotion.rotation_about(_pt(0, 0), 180.0),
            mirror_polygon(TWELVE_GON, 0.0),
        )
        assert j_classic(flipped, LEFTWARD) == pytest.approx(-2.28, abs=1e-9)


class TestOrbitFunctional:
    def test_quarter_turn_orbit_values(self) -> None:
        r = RigidMotion.rotation_about(_pt(0, 5), 90.0)
        ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        f = orbit_functional(r, ab)
        unit_square = _poly((0, 0), (1, 0), (1, 1), (0, 1))
        assert j_general(unit_square, f) == pytest.approx(1.0, abs=1e-12)
        # y = 10 leftward is the orbit line at k = 2, so both horizontal
        # edges of this rectangle count positively.
        tall = _poly((0, 0), (2, 0), (2, 10), (0, 10))
        assert j_general(tall, f) == pytest.approx(4.0, abs=1e-12)
        # An edge lying on the reversal of an orbit line counts negative.
        above = _poly((0, 10), (2, 10), (2, 12), (0, 12))
        assert j_general(above, f) == pytest.approx(-2.0, abs=1e-12)

    def test_half_turn_centered_on_line_is_ill_defined(self) -> None:
        ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        r = RigidMotion.rotation_about(_pt(0.5, 0.0), 180.0)
        with pytest.raises(IllDefinedFunctionalError):
            orbit_functional(r, ab)

    def test_reversal_later_in_orbit_is_ill_defined(self) -> None:
        # 90 degrees about a point on the line reverses it after two steps.
        ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        r = RigidMotion.rotation_about(_pt(2.0, 0.0), 90.0)
        with pytest.raises(IllDefinedFunctionalError):
            orbit_functional(r, ab)

    def test_wheel_dissection_conserves_orbit_invariant(self) -> None:
        # Normalize so one piece stays fixed, build the orbit functional
        # from the other piece's rotation, and check the invariant is
        # conserved from cake to box, as the conservation argument says.
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        fixed = 0 if not d.motions[0].is_translation(1e-9) else 1
        moving = 1 - fixed
        inv = d.motions[fixed].inverse()
        motion = inv.compose(d.motions[moving])
        assert not motion.is_translation(1e-9)
        ab = DirectedLine.through(d.cake.vertices[0], d.cake.vertices[1])
        f = orbit_functional(motion, ab)
        box_in_cake_frame = apply_motion(inv, d.box)
        j_cake = j_general(d.cake, f)
        j_box = j_general(box_in_cake_frame, f)
        assert j_cake == pytest.approx(j_box, abs=1e-9)
        # Piecewise: each piece keeps its value under its own motion.
        for i in (fixed, moving):
            piece = d.pieces[i]
            target = apply_motion(inv.compose(d.motions[i]), piece)
            assert j_general(piece, f) == pytest.approx(
                j_general(target, f), abs=1e-9
            )

    def test_orbit_functional_is_antisymmetric(self) -> None:
        r = RigidMotion.rotation_about(_pt(0, 5), 90.0)
        ab = DirectedLine.through(_pt(0, 0), _pt(1, 0))
        f = orbit_functional(r, ab)
        probe = DirectedLine.through(_pt(7, 0), _pt(8, 0))
        assert f(probe) == pytest.approx(-f(probe.reversed()), abs=0.0)


class TestJGeneral:
    def test_matches_classic_on_indicator(self) -> None:
        # j_general with the indicator of "parallel to f" reduces to the
        # classic invariant on any polygon.
        direction = LEFTWARD

        def indicator(line: DirectedLine) -> float:
            # conj(u) * v holds dot(u, v) + 1j * cross(u, v).
            w = direction.direction.conjugate() * line.direction
            if abs(w.imag) > 1e-9:
                return 0.0
            return 1.0 if w.real > 0 else -1.0

        from mirrorcut.invariants import DirectedLineFunctional

        f = DirectedLineFunctional(indicator, "parallel indicator")
        assert j_general(TWELVE_GON, f) == pytest.approx(
            j_classic(TWELVE_GON, LEFTWARD), abs=1e-12
        )
