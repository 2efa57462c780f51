"""Numerical certification of dissections.

A dissection is "nice" when the cake is a scalene triangle, the box is
the cake's mirror image, the pieces tile the cake, and their images
under the per-piece proper rigid motions tile the box.  Everything here
measures; construction code decides what to do about failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .geom import (
    DirectedLine,
    Polygon,
    RigidMotion,
    _find_motion_any_edge,
    apply_motion,
    find_motion,
    intersection_area,
    mirror_polygon,
    oriented_angle,
)
from .relations import (
    IntegerRelation,
    MultipleWitness,
    find_integer_relation,
    is_multiple,
    is_rational_angle,
)

if TYPE_CHECKING:  # pragma: no cover
    from .constructions import Dissection

__all__ = [
    "ArityError",
    "ClaimReport",
    "NiceReport",
    "PartitionReport",
    "claim_angle_checks",
    "recover_motions",
    "theorem1_check",
    "verify_nice",
    "verify_partition",
]


class ArityError(ValueError):
    """A two-piece check was asked about a dissection of another size."""


@dataclass(frozen=True, slots=True)
class PartitionReport:
    """Measured partition quality of a set of pieces against a target."""

    ok: bool
    area_defect: float
    max_overlap_area: float
    max_containment_defect: float


@dataclass(frozen=True, slots=True)
class NiceReport:
    """Verdict of verify_nice, with the measured maxima behind it."""

    partition_cake: bool
    partition_box: bool
    box_is_mirror: bool
    cake_scalene: bool
    max_overlap_area: float
    area_defect: float
    passed: bool


def verify_partition(
    pieces: Sequence[Polygon],
    target: Polygon,
    tol: float = 1e-9,
) -> PartitionReport:
    """Check that pieces tile target: areas add up, pairwise overlaps are
    negligible, and every piece lies inside the target.

    tol is relative; the absolute area budget is tol * area(target).
    """
    eps_area = tol * target.area
    total = sum(p.area for p in pieces)
    defect = total - target.area
    max_overlap = 0.0
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            max_overlap = max(max_overlap, intersection_area(pieces[i], pieces[j]))
    max_containment = 0.0
    for p in pieces:
        inside = intersection_area(p, target)
        max_containment = max(max_containment, abs(inside - p.area))
    ok = (
        abs(defect) <= eps_area
        and max_overlap <= eps_area
        and max_containment <= eps_area
    )
    return PartitionReport(ok, defect, max_overlap, max_containment)


def verify_nice(d: "Dissection", tol: float = 1e-9) -> NiceReport:
    """Certify a dissection end to end.

    Checks the pieces against the cake and the moved pieces against the
    box, which must be a proper motion of the cake's mirror image, and
    that the cake is a scalene triangle, so that its mirror image is not
    the cake itself moved.  Motions are proper by construction: RigidMotion
    cannot encode a reflection.  tol is relative to the respective target
    areas; the two shape checks use find_motion's default tolerance.
    A moved piece that is not a valid polygon, as when a huge motion
    overflows or rounds its vertices together, fails the box partition
    with infinite defects.
    """
    rep_cake = verify_partition(d.pieces, d.cake, tol)
    try:
        moved = [apply_motion(m, p) for m, p in zip(d.motions, d.pieces)]
    except ValueError:
        rep_box = PartitionReport(False, math.inf, math.inf, math.inf)
    else:
        rep_box = verify_partition(moved, d.box, tol)
    mirrored = mirror_polygon(d.cake, 0.0)
    box_is_mirror = _find_motion_any_edge(mirrored, d.box) is not None
    scalene = len(d.cake) == 3 and _find_motion_any_edge(mirrored, d.cake) is None
    defect = max((rep_cake.area_defect, rep_box.area_defect), key=abs)
    overlap = max(rep_cake.max_overlap_area, rep_box.max_overlap_area)
    passed = rep_cake.ok and rep_box.ok and box_is_mirror and scalene
    return NiceReport(
        partition_cake=rep_cake.ok,
        partition_box=rep_box.ok,
        box_is_mirror=box_is_mirror,
        cake_scalene=scalene,
        max_overlap_area=overlap,
        area_defect=defect,
        passed=passed,
    )


def recover_motions(
    cake_pieces: Sequence[Polygon],
    box_pieces: Sequence[Polygon],
    tol: Optional[float] = None,
) -> Optional[list[RigidMotion]]:
    """Per-piece proper motions carrying cake piece i onto box piece i.

    The pairing is by index, as every builder lays out its pieces; no
    other matching is tried.  Returns None when the counts differ or some
    piece is not directly congruent to its counterpart (for example when
    it is only mirror-congruent to it).  tol is find_motion's.
    """
    if len(cake_pieces) != len(box_pieces):
        return None
    motions: list[RigidMotion] = []
    for piece, target in zip(cake_pieces, box_pieces):
        m = find_motion(piece, target, tol)
        if m is None:
            return None
        motions.append(m)
    return motions


def _cake_angles(d: "Dissection") -> tuple[float, float, float]:
    if len(d.cake) != 3:
        raise ValueError("expected a triangular cake")
    a, b, g = d.cake.interior_angles()
    return a, b, g


def theorem1_check(
    d: "Dissection",
    k_max: int = 10,
    tol: float = 1e-6,
) -> Optional[IntegerRelation]:
    """Integer angle relation that a two-piece dissection must satisfy.

    For a genuine two-piece rearrangement of a scalene cake into its
    mirror image, some relation k*alpha + l*beta + m*gamma = 0 with small
    integer coefficients, not all zero, must hold.  Returns the minimal
    bounded relation or None; an empty result marks the dissection as
    suspect rather than disproving it, since the coefficient bound is
    finite.
    """
    if len(d.pieces) != 2:
        raise ArityError(
            f"theorem-1 check applies to 2-piece dissections, got {len(d.pieces)}"
        )
    alpha, beta, gamma = _cake_angles(d)
    return find_integer_relation(alpha, beta, gamma, k_max=k_max, tol=tol)


@dataclass(frozen=True, slots=True)
class ClaimReport:
    """Angle bookkeeping for a two-piece dissection, after normalizing so
    piece 0 stays fixed.

    no_rotation is set when the remaining motion is a pure translation;
    everything downstream is then vacuous.  Preconditions record whether
    the corresponding multiple-of statements were entitled to hold: each
    needs the rotation angle to be irrational (no bounded rational
    witness) or the center to avoid the relevant side lines.
    """

    no_rotation: bool
    phi: Optional[float]
    center: Optional[complex]
    sides_through_center: int
    phi_rational: Optional[tuple[int, int]]
    angle_ab_image: Optional[float]
    ab_multiple: Optional[MultipleWitness]
    ab_precondition_holds: bool
    two_alpha: Optional[float]
    two_alpha_multiple: Optional[MultipleWitness]
    two_alpha_precondition_holds: bool
    notes: tuple[str, ...] = ()


def claim_angle_checks(
    d: "Dissection",
    k_max: int = 8,
    l_max: int = 2,
    tol_deg: float = 1e-6,
) -> ClaimReport:
    """Report the rotation-angle facts behind the two-piece obstruction.

    Normalizes the dissection so piece 0 is fixed (composing every motion
    with the inverse of motion 0 and moving the box along), then reports
    the rotation angle and center of the remaining motion, how many cake
    side lines pass through the center, and multiple-of witnesses for the
    angle between the cake side AB and its box image A'B', and for
    2*alpha.  A' and B' are the box vertices that the motion from the
    cake's mirror image onto the box carries A's and B's images onto; a
    box that is no mirror image of the cake gets a note instead.
    Violated preconditions are reported, never asserted through.
    """
    if len(d.pieces) != 2:
        raise ArityError(
            f"claim checks apply to 2-piece dissections, got {len(d.pieces)}"
        )
    inv0 = d.motions[0].inverse()
    moving = inv0.compose(d.motions[1])
    box_n = apply_motion(inv0, d.box)
    notes: list[str] = []

    if moving.is_translation(tol_deg=1e-9):
        return ClaimReport(
            no_rotation=True,
            phi=None,
            center=None,
            sides_through_center=0,
            phi_rational=None,
            angle_ab_image=None,
            ab_multiple=None,
            ab_precondition_holds=False,
            two_alpha=None,
            two_alpha_multiple=None,
            two_alpha_precondition_holds=False,
            notes=(
                "normalized motion is a pure translation; a translation-only "
                "two-piece rearrangement contradicts the additive invariant",
            ),
        )

    phi_raw = moving.phi
    phi = phi_raw if phi_raw <= 180.0 else 360.0 - phi_raw
    center = moving.rotation_center()
    assert center is not None

    cake = d.cake.vertices
    eps_len = 1e-9 * d.cake.diameter
    side_lines = [
        DirectedLine.through(cake[0], cake[1]),
        DirectedLine.through(cake[1], cake[2]),
        DirectedLine.through(cake[2], cake[0]),
    ]
    on_side = [line.distance_to(center) < eps_len for line in side_lines]
    sides_through_center = sum(on_side)

    alpha = d.cake.interior_angles()[0]
    rational = is_rational_angle(phi, l_max=360, tol=tol_deg)
    irrational = rational is None

    angle_ab: Optional[float] = None
    ab_witness: Optional[MultipleWitness] = None
    to_box = _find_motion_any_edge(mirror_polygon(d.cake, 0.0), box_n)
    if to_box is None:
        notes.append("box is not the cake's mirror image; A'B' is not identified")
    else:

        def image(p: complex) -> complex:
            q = to_box.apply(complex(-p.real, p.imag))
            return min(box_n.vertices, key=lambda v: abs(v - q))

        angle_ab = oriented_angle((cake[0], cake[1]), (image(cake[0]), image(cake[1])))
        ab_witness = is_multiple(angle_ab, phi, k_max=k_max, l_max=l_max, tol=tol_deg)

    ab_precondition = irrational or not on_side[0]
    two_alpha = 2.0 * alpha
    two_alpha_witness = is_multiple(two_alpha, phi, k_max=k_max, l_max=l_max, tol=tol_deg)
    # The 2*alpha statement leans on both side lines through A.
    two_alpha_precondition = irrational or (not on_side[0] and not on_side[2])

    return ClaimReport(
        no_rotation=False,
        phi=phi,
        center=center,
        sides_through_center=sides_through_center,
        phi_rational=rational,
        angle_ab_image=angle_ab,
        ab_multiple=ab_witness,
        ab_precondition_holds=ab_precondition,
        two_alpha=two_alpha,
        two_alpha_multiple=two_alpha_witness,
        two_alpha_precondition_holds=two_alpha_precondition,
        notes=tuple(notes),
    )
