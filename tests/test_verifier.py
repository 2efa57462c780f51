"""Partition verification, motion recovery, and the angle checks."""

from __future__ import annotations

import dataclasses
import math

import pytest

from mirrorcut.geom import (
    Polygon,
    RigidMotion,
    TriangleSpec,
    apply_motion,
    construct_triangle,
    find_motion,
    mirror_polygon,
)
from mirrorcut.search import split_by_params
from mirrorcut.verifier import (
    ArityError,
    claim_angle_checks,
    recover_motions,
    theorem1_check,
    verify_nice,
    verify_partition,
)
from mirrorcut.constructions import (
    Dissection,
    cut_incenter3,
    cut_median,
    cut_scissors,
    cut_wheel,
)


def _pt(x: float, y: float) -> complex:
    return complex(float(x), float(y))


def _rect(x0: float, y0: float, x1: float, y1: float) -> Polygon:
    return Polygon((_pt(x0, y0), _pt(x1, y0), _pt(x1, y1), _pt(x0, y1)))


def box_moved(d: Dissection, m: RigidMotion) -> Dissection:
    """The box replaced by m(cake) and every motion by m: the moved
    pieces tile that box, but it is no mirror image of a scalene cake."""
    return dataclasses.replace(
        d, box=apply_motion(m, d.cake), motions=tuple(m for _ in d.pieces)
    )


def one_piece_identity(d: Dissection) -> Dissection:
    """The whole cake as its only piece, "moved" onto itself."""
    return Dissection(
        cake=d.cake,
        box=d.cake,
        pieces=(d.cake,),
        motions=(RigidMotion.identity(),),
        cut=None,
        family=d.family,
    )


def isosceles_dissection(apex: float = 40.0) -> Dissection:
    """An isosceles cake as one piece moved onto its mirror image, which
    is the cake itself: both tilings hold and the box is the mirror
    image, yet nothing was dissected."""
    base = (180.0 - apex) / 2.0
    spec = TriangleSpec(base, base)
    cake = construct_triangle(spec)
    box = mirror_polygon(cake, spec.side_c / 2.0)
    motion = find_motion(cake, box)
    assert motion is not None
    return Dissection(
        cake=cake, box=box, pieces=(cake,), motions=(motion,), cut=None, family="isosceles"
    )


def quadrilateral_dissection() -> Dissection:
    """A quadrilateral cake (A, B, D, C), with D pushed out from the
    midpoint of BC, cut into two isosceles triangles, each moved onto its
    mirror image: both tilings hold and the box is the mirror image, but
    the cake is no triangle."""
    a, b, c = _pt(0, 0), _pt(2, 0), _pt(1, 1.5)
    bc = c - b
    outward = complex(bc.imag, -bc.real) * (1.0 / abs(bc))
    d = complex((b.real + c.real) / 2.0, (b.imag + c.imag) / 2.0) + 0.4 * outward
    cake = Polygon((a, b, d, c))
    pieces = (Polygon((a, b, c)), Polygon((b, d, c)))
    motions = recover_motions(pieces, [mirror_polygon(p, 0.0) for p in pieces])
    assert motions is not None
    return Dissection(
        cake=cake,
        box=mirror_polygon(cake, 0.0),
        pieces=pieces,
        motions=tuple(motions),
        cut=None,
        family="quadrilateral",
    )


# Certificates built from an honest dissection that verify_nice must
# reject; each tiles both its cake and its box.
FORGERIES = {
    "box_is_cake": lambda d: box_moved(d, RigidMotion.identity()),
    "box_is_cake_translated": lambda d: box_moved(d, RigidMotion(0.0, _pt(0.3, -1.7))),
    "box_is_cake_rotated": lambda d: box_moved(d, RigidMotion.rotation_about(_pt(0.2, 0.5), 77.0)),
    "one_piece_identity": one_piece_identity,
    "isosceles_cake": lambda d: isosceles_dissection(),
    "quadrilateral_cake": lambda d: quadrilateral_dissection(),
}


class TestVerifyPartition:
    def test_exact_tiling_passes(self) -> None:
        target = _rect(0, 0, 2, 1)
        report = verify_partition([_rect(0, 0, 1, 1), _rect(1, 0, 2, 1)], target)
        assert report.ok
        assert report.area_defect == pytest.approx(0.0, abs=1e-15)
        assert report.max_overlap_area == pytest.approx(0.0, abs=1e-15)

    def test_gap_fails(self) -> None:
        # area_defect is signed: pieces minus target, so a gap is negative.
        target = _rect(0, 0, 3, 1)
        report = verify_partition([_rect(0, 0, 1, 1), _rect(1, 0, 2, 1)], target)
        assert not report.ok
        assert report.area_defect == pytest.approx(-1.0, abs=1e-12)

    def test_overlap_fails(self) -> None:
        target = _rect(0, 0, 2, 1)
        report = verify_partition(
            [_rect(0, 0, 1.5, 1), _rect(0.5, 0, 2, 1)], target
        )
        assert not report.ok
        assert report.max_overlap_area == pytest.approx(1.0, abs=1e-12)

    def test_piece_outside_target_fails(self) -> None:
        # Total area and pairwise overlaps are fine; only the
        # containment check can catch the straggler.
        target = _rect(0, 0, 2, 1)
        report = verify_partition(
            [_rect(0, 0, 1, 1), _rect(1.5, 0, 2.5, 1)], target
        )
        assert not report.ok
        assert report.max_containment_defect == pytest.approx(0.5, abs=1e-12)

    def test_tolerance_is_relative(self) -> None:
        # A one-part-in-1e12 sliver passes at tol=1e-9 and fails at 1e-15.
        target = _rect(0, 0, 1, 1)
        eps = 1e-12
        pieces = [_rect(0, 0, 0.5 - eps, 1), _rect(0.5, 0, 1, 1)]
        assert verify_partition(pieces, target, tol=1e-9).ok
        assert not verify_partition(pieces, target, tol=1e-15).ok


class TestVerifyNice:
    def test_constructed_dissection_passes(self) -> None:
        assert verify_nice(cut_wheel(TriangleSpec(30.0, 20.0), n=2)).passed

    def test_identity_motions_fail(self) -> None:
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        broken = dataclasses.replace(
            d, motions=tuple(RigidMotion.identity() for _ in d.motions)
        )
        report = verify_nice(broken)
        assert not report.passed
        assert not report.partition_box
        assert report.partition_cake

    @pytest.mark.parametrize(
        "motion",
        [RigidMotion.rotation_about(_pt(0.5, 1e308), 10.0), RigidMotion(0.0, _pt(1e16, 0.0))],
        ids=["overflow", "rounded-together"],
    )
    def test_moved_piece_that_is_no_polygon_fails(self, motion: RigidMotion) -> None:
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        broken = dataclasses.replace(d, motions=(motion, d.motions[1]))
        report = verify_nice(broken)
        assert not report.passed
        assert not report.partition_box
        assert report.partition_cake and report.box_is_mirror and report.cake_scalene
        assert report.area_defect == math.inf and report.max_overlap_area == math.inf

    def test_perturbed_piece_fails(self) -> None:
        d = cut_median(TriangleSpec(90.0, 55.0))
        nudged = []
        for i, p in enumerate(d.pieces):
            if i == 0:
                verts = tuple(_pt(v.real + 0.01, v.imag) for v in p.vertices)
                nudged.append(Polygon(verts))
            else:
                nudged.append(p)
        broken = dataclasses.replace(d, pieces=tuple(nudged))
        assert not verify_nice(broken).passed


class TestForgeries:
    @pytest.mark.parametrize(
        "name", sorted(set(FORGERIES) - {"isosceles_cake", "quadrilateral_cake"})
    )
    def test_box_that_is_no_mirror_image_fails(self, name: str) -> None:
        forged = FORGERIES[name](cut_wheel(TriangleSpec(30.0, 20.0), n=2))
        report = verify_nice(forged)
        assert report.partition_cake and report.partition_box and report.cake_scalene
        assert not report.box_is_mirror
        assert not report.passed

    @pytest.mark.parametrize("apex", [20.0, 40.0, 60.0, 100.0, 150.0])
    def test_isosceles_cake_fails(self, apex: float) -> None:
        report = verify_nice(isosceles_dissection(apex))
        assert report.partition_cake and report.partition_box and report.box_is_mirror
        assert not report.cake_scalene
        assert not report.passed

    def test_quadrilateral_cake_fails(self) -> None:
        # The paper's cake is a triangle; verify_nice fails any other
        # cake through cake_scalene.
        report = verify_nice(quadrilateral_dissection())
        assert report.partition_cake and report.partition_box and report.box_is_mirror
        assert not report.cake_scalene
        assert not report.passed


class TestRecoverMotions:
    def test_translations(self) -> None:
        cake_pieces = [_rect(0, 0, 1, 1), _rect(1, 0, 2, 1)]
        box_pieces = [_rect(5, 5, 6, 6), _rect(6, 5, 7, 6)]
        motions = recover_motions(cake_pieces, box_pieces)
        assert motions is not None
        for m in motions:
            assert m.is_translation(tol_deg=1e-9)
            assert (m.translation.real, m.translation.imag) == pytest.approx((5.0, 5.0))

    def test_pairs_piece_i_with_box_piece_i(self) -> None:
        # Same areas, different shapes: piece i goes onto box piece i.
        square = _rect(0, 0, 1, 1)
        triangle = Polygon((_pt(3, 0), _pt(5, 0), _pt(3, 1)))
        shift = RigidMotion(0.0, _pt(0, 4))
        box = [apply_motion(shift, square), apply_motion(shift, triangle)]
        motions = recover_motions([square, triangle], box)
        assert motions is not None
        for m in motions:
            assert m.is_translation(tol_deg=1e-9)
            assert (m.translation.real, m.translation.imag) == pytest.approx((0.0, 4.0))

    def test_swapped_order_is_not_searched(self) -> None:
        square = _rect(0, 0, 1, 1)
        triangle = Polygon((_pt(3, 0), _pt(5, 0), _pt(3, 1)))
        shift = RigidMotion(0.0, _pt(0, 4))
        box = [apply_motion(shift, triangle), apply_motion(shift, square)]
        assert recover_motions([square, triangle], box) is None

    def test_unequal_counts(self) -> None:
        square = _rect(0, 0, 1, 1)
        assert recover_motions([square], [square, _rect(1, 0, 2, 1)]) is None

    def test_reflection_is_unreachable(self) -> None:
        tri = Polygon((_pt(0, 0), _pt(4, 0), _pt(0, 3)))
        assert recover_motions([tri], [mirror_polygon(tri, 0.0)]) is None

    def test_rotation_recovered_exactly(self) -> None:
        tri = Polygon((_pt(0, 0), _pt(4, 0), _pt(0, 3)))
        m = RigidMotion.rotation_about(_pt(2, 2), 33.0)
        motions = recover_motions([tri], [apply_motion(m, tri)])
        assert motions is not None
        assert motions[0].phi == pytest.approx(33.0, abs=1e-9)


class TestTheorem1:
    def test_scissors_relation(self) -> None:
        rel = theorem1_check(cut_scissors(TriangleSpec(30.0, 20.0)))
        assert rel is not None
        assert rel.coefficients() == (2, -3, 0)

    def test_median_relation(self) -> None:
        rel = theorem1_check(cut_median(TriangleSpec(90.0, 55.0)))
        assert rel is not None
        k, l, m = rel.coefficients()
        assert k * 90.0 + l * 55.0 + m * 35.0 == pytest.approx(0.0, abs=1e-9)

    def test_wheel_relation_matches_family(self) -> None:
        rel = theorem1_check(cut_wheel(TriangleSpec(40.0, 30.0), n=3))
        assert rel is not None
        k, l, m = rel.coefficients()
        assert k * 40.0 + l * 30.0 + m * 110.0 == pytest.approx(0.0, abs=1e-9)

    def test_three_pieces_rejected(self) -> None:
        with pytest.raises(ArityError):
            theorem1_check(cut_incenter3(TriangleSpec(80.0, 55.0)))

    def test_unrelated_angles_give_none(self) -> None:
        # A fake two-piece dissection over rationally independent angles
        # admits no relation; None flags it as suspect rather than
        # disproving anything.
        alpha = math.degrees(1.0)
        beta = 10.0 * math.sqrt(17.0)
        cake = construct_triangle(TriangleSpec(alpha, beta))
        split = split_by_params(cake, 0.3, 2.1)
        assert split is not None
        d = Dissection(
            cake=cake,
            box=mirror_polygon(cake, 0.5),
            pieces=split,
            motions=(RigidMotion.identity(), RigidMotion.identity()),
            cut=None,
            family="fake",
        )
        assert theorem1_check(d) is None


class TestClaimChecks:
    def test_wheel_witnesses(self) -> None:
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        rep = claim_angle_checks(d)
        assert not rep.no_rotation
        assert rep.phi == pytest.approx(10.0, abs=1e-9)
        assert rep.phi_rational == (1, 18)
        assert rep.sides_through_center == 0
        assert rep.ab_precondition_holds
        assert rep.ab_multiple is not None
        assert rep.two_alpha_precondition_holds
        assert rep.two_alpha_multiple is not None
        k, l = rep.two_alpha_multiple.k, rep.two_alpha_multiple.l
        assert k * 10.0 + l * 180.0 == pytest.approx(60.0, abs=1e-6)

    def test_scissors_witnesses(self) -> None:
        d = cut_scissors(TriangleSpec(30.0, 20.0))
        rep = claim_angle_checks(d)
        assert not rep.no_rotation
        assert rep.phi is not None and 0.0 < rep.phi <= 180.0
        if rep.two_alpha_precondition_holds:
            assert rep.two_alpha_multiple is not None

    def test_piece_order_invariance(self) -> None:
        d = cut_wheel(TriangleSpec(30.0, 20.0), n=2)
        swapped = dataclasses.replace(
            d, pieces=d.pieces[::-1], motions=d.motions[::-1]
        )
        a = claim_angle_checks(d)
        b = claim_angle_checks(swapped)
        assert a.phi == pytest.approx(b.phi, abs=1e-9)
        assert a.phi_rational == b.phi_rational

    def test_three_pieces_rejected(self) -> None:
        with pytest.raises(ArityError):
            claim_angle_checks(cut_incenter3(TriangleSpec(80.0, 55.0)))

    def test_box_that_is_no_mirror_image_gets_a_note(self) -> None:
        # The median certificate with the cake's C.y times 1e10: the box
        # is no longer the cake's mirror image, so A'B' is not identified.
        d = cut_median(TriangleSpec(90.0, 55.0))
        a, b, c = d.cake.vertices
        tall = dataclasses.replace(d, cake=Polygon((a, b, complex(c.real, c.imag * 1e10))))
        assert not verify_nice(tall).box_is_mirror
        rep = claim_angle_checks(tall)
        assert rep.angle_ab_image is None and rep.ab_multiple is None
        assert rep.notes == ("box is not the cake's mirror image; A'B' is not identified",)
        assert claim_angle_checks(d).notes == ()

    def test_pure_translation_pair_reports_no_rotation(self) -> None:
        square = _rect(0, 0, 1, 1)
        left = _rect(0, 0, 0.5, 1)
        right = _rect(0.5, 0, 1, 1)
        d = Dissection(
            cake=square,
            box=_rect(3, 0, 4, 1),
            pieces=(left, right),
            motions=(RigidMotion(0.0, _pt(3, 0)), RigidMotion(0.0, _pt(3, 0))),
            cut=None,
            family="fake",
        )
        rep = claim_angle_checks(d)
        assert rep.no_rotation
