"""Named dissections of a scalene triangle into its mirror image.

Each constructor builds the cake canonically (A at the origin, B at
(side_c, 0), C above), cuts it, mirrors the pieces across the vertical
line x = side_c / 2 to obtain the box tiling, recovers one proper rigid
motion per piece, and certifies the result before returning it.  A
constructor either returns a verified dissection or raises; nothing
unverified escapes.

Families:

* incenter3      three kites around the incenter; works for every triangle
* median         right triangle, cut along the median from the right angle
* alpha3beta     alpha == 3*beta, straight cut splitting beta off alpha
* twobeta_acute  alpha == 2*beta < 90, straight cut splitting beta off gamma
* twobeta_obtuse alpha == 2*beta > 90, cut mirroring side AB across the
                 bisector of gamma
* wheel(n)       alpha == (n+1)/n * beta, fan of 2n+1 equal chords on a
                 circle through A and B
* gear(n)        same family, saw of 2n+1 equal segments starting along AB
* scissors       the (30, 20, 130) triangle, three equal segments from C
                 with equal 130-degree turns; the segment length that lands
                 the last one on AB is solved in closed form
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geom import (
    DegenerateSpecError,
    Polygon,
    Polyline,
    RigidMotion,
    TriangleSpec,
    construct_triangle,
    dist,
    incenter,
    is_mirror_symmetric,
    mirror_polygon,
    unit,
)
from .verifier import recover_motions, verify_nice

__all__ = [
    "ANGLE_TOL",
    "ClosureError",
    "Dissection",
    "WrongFamilyError",
    "cut_2beta_acute",
    "cut_2beta_obtuse",
    "cut_alpha_3beta",
    "cut_gear",
    "cut_incenter3",
    "cut_median",
    "cut_scissors",
    "cut_wheel",
]

# Family membership is decided at this angle tolerance, in degrees.
ANGLE_TOL = 1e-9


class WrongFamilyError(ValueError):
    """The given angles do not satisfy the family's defining relation."""


class ClosureError(ValueError):
    """A broken-line construction failed to close up as required."""


@dataclass(frozen=True)
class Dissection:
    """A cake, its box, and pieces with one proper motion each.

    Applying motions[i] to pieces[i] must tile the box; the pieces
    themselves tile the cake.  cut is the generating polyline when the
    construction has a single one (the incenter construction does not).
    """

    cake: Polygon
    box: Polygon
    pieces: tuple[Polygon, ...]
    motions: tuple[RigidMotion, ...]
    cut: Optional[Polyline]
    family: str
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.pieces) != len(self.motions):
            raise ValueError("pieces and motions must pair up")


def _scalene_cake(spec: TriangleSpec, family: str) -> Polygon:
    """The cake of spec; DegenerateSpecError when it fails the scalene
    test of verify_nice, which would refuse every dissection of it."""
    cake = construct_triangle(spec)
    if is_mirror_symmetric(cake):
        raise DegenerateSpecError(f"{family} cut needs a scalene triangle")
    return cake


def _assemble(
    family: str,
    spec: TriangleSpec,
    cake: Polygon,
    pieces: tuple[Polygon, ...],
    cut: Optional[Polyline],
    n: Optional[int] = None,
) -> Dissection:
    axis = spec.side_c / 2.0
    box = mirror_polygon(cake, axis)
    box_pieces = [mirror_polygon(p, axis) for p in pieces]
    motions = recover_motions(pieces, box_pieces)
    if motions is None:
        raise ClosureError(
            f"{family} pieces are not directly congruent to their mirror images"
        )
    d = Dissection(
        cake=cake,
        box=box,
        pieces=pieces,
        motions=tuple(motions),
        cut=cut,
        family=family,
        n=n,
    )
    report = verify_nice(d)
    if not report.passed:
        raise ClosureError(
            f"{family} construction failed verification "
            f"(area defect {report.area_defect:.3e}, "
            f"overlap {report.max_overlap_area:.3e})"
        )
    return d


def _foot(p: complex, a: complex, b: complex) -> complex:
    """Foot of the perpendicular from p onto line ab."""
    d = b - a
    u = p - a
    t = (u.real * d.real + u.imag * d.imag) / (d.real * d.real + d.imag * d.imag)
    return complex(a.real + t * d.real, a.imag + t * d.imag)


def cut_incenter3(spec: TriangleSpec) -> Dissection:
    """Three kites around the incenter; each is mirror-symmetric.

    The perpendicular feet from the incenter to the three sides split the
    triangle into three kites (two tangent lengths and two inradii each),
    so every piece matches its mirror image directly.  Works for every
    scalene triangle; an isosceles cake is its own mirror image, which
    verify_nice does not count as nice.
    """
    cake = _scalene_cake(spec, "incenter3")
    a, b, c = cake.vertices
    i = incenter(cake)
    f_ab = _foot(i, a, b)
    f_bc = _foot(i, b, c)
    f_ca = _foot(i, c, a)
    pieces = (
        Polygon((a, f_ab, i, f_ca)),
        Polygon((b, f_bc, i, f_ab)),
        Polygon((c, f_ca, i, f_bc)),
    )
    return _assemble("incenter3", spec, cake, pieces, cut=None)


def cut_median(spec: TriangleSpec) -> Dissection:
    """Right scalene triangle split along the median from the right angle.

    With alpha == 90 the midpoint of BC is the circumcenter, so both
    halves are isosceles and hence mirror-symmetric.
    """
    if abs(spec.alpha - 90.0) > ANGLE_TOL:
        raise WrongFamilyError("median cut needs alpha == 90")
    cake = _scalene_cake(spec, "median")
    a, b, c = cake.vertices
    m = complex((b.real + c.real) / 2.0, (b.imag + c.imag) / 2.0)
    pieces = (Polygon((a, b, m)), Polygon((a, m, c)))
    return _assemble("median", spec, cake, pieces, cut=Polyline((a, m)))


def cut_alpha_3beta(spec: TriangleSpec) -> Dissection:
    """alpha == 3*beta: cut from A splitting an angle beta off alpha.

    The ray from A at angle beta above AB meets BC at D; triangle ABD has
    two angles beta and triangle ADC two angles 2*beta, so both pieces
    are isosceles.
    """
    if abs(spec.alpha - 3.0 * spec.beta) > ANGLE_TOL:
        raise WrongFamilyError("this cut needs alpha == 3*beta")
    cake = _scalene_cake(spec, "alpha3beta")
    a, b, c = cake.vertices
    beta = math.radians(spec.beta)
    # Isosceles triangle ABD: |BD| = |AB| / (2 cos beta).
    bd = spec.side_c / (2.0 * math.cos(beta))
    d = b + bd * unit(180.0 - spec.beta)
    pieces = (Polygon((a, b, d)), Polygon((a, d, c)))
    return _assemble("alpha3beta", spec, cake, pieces, cut=Polyline((a, d)))


def cut_2beta_acute(spec: TriangleSpec) -> Dissection:
    """alpha == 2*beta < 90: cut from C splitting an angle beta off gamma.

    The ray from C making angle beta with CB meets AB at D; triangles
    ACD and DCB are both isosceles.
    """
    if abs(spec.alpha - 2.0 * spec.beta) > ANGLE_TOL:
        raise WrongFamilyError("this cut needs alpha == 2*beta")
    if spec.alpha >= 90.0 - ANGLE_TOL:
        raise WrongFamilyError(
            "alpha must stay below 90; the obtuse case uses the bisector cut"
        )
    cake = _scalene_cake(spec, "twobeta_acute")
    a, b, c = cake.vertices
    beta = math.radians(spec.beta)
    side_a = dist(b, c)
    # Isosceles triangle DCB with apex angles beta at B and at C.
    db = side_a / (2.0 * math.cos(beta))
    d = complex(spec.side_c - db, 0.0)
    pieces = (Polygon((a, d, c)), Polygon((d, b, c)))
    return _assemble("twobeta_acute", spec, cake, pieces, cut=Polyline((c, d)))


def cut_2beta_obtuse(spec: TriangleSpec) -> Dissection:
    """alpha == 2*beta > 90: cut along the mirror image of line AB across
    the bisector of gamma.

    The bisector from C meets AB at D; reflecting line AB across the
    bisector sends A to the point E on CB with |CE| == |CA|.  The
    quadrilateral ADEC is symmetric across the bisector and triangle DBE
    is isosceles (angle beta at both D and B).
    """
    if abs(spec.alpha - 2.0 * spec.beta) > ANGLE_TOL:
        raise WrongFamilyError("this cut needs alpha == 2*beta")
    if spec.alpha <= 90.0 + ANGLE_TOL:
        raise WrongFamilyError(
            "alpha must exceed 90; the acute case cuts beta off gamma instead"
        )
    cake = _scalene_cake(spec, "twobeta_obtuse")
    a, b, c = cake.vertices
    side_a = dist(b, c)
    side_b = dist(c, a)
    # Bisector foot: |AD| : |DB| = |CA| : |CB|.
    d = complex(spec.side_c * side_b / (side_a + side_b), 0.0)
    e = c + side_b * (1.0 / side_a) * (b - c)
    pieces = (Polygon((a, d, e, c)), Polygon((d, b, e)))
    return _assemble("twobeta_obtuse", spec, cake, pieces, cut=Polyline((d, e)))


def _wheel_points(spec: TriangleSpec, n: int) -> list[complex]:
    """Vertices A = V_0, ..., V_{2n+1} = B of the chord fan.

    All 2n+2 points lie on the circle through A and B whose center sits
    below AB; consecutive points subtend the central angle alpha - beta.
    """
    delta = spec.alpha - spec.beta
    theta = (2 * n + 1) * delta
    half = math.radians(theta / 2.0)
    radius = spec.side_c / (2.0 * math.sin(half))
    center = complex(spec.side_c / 2.0, -radius * math.cos(half))
    start = 90.0 + theta / 2.0
    points = [
        center + radius * unit(start - k * delta) for k in range(2 * n + 2)
    ]
    points[0] = complex(0.0, 0.0)
    points[-1] = complex(spec.side_c, 0.0)
    return points


def _require_wheel_family(spec: TriangleSpec, n: int, what: str) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if abs(n * spec.alpha - (n + 1) * spec.beta) > ANGLE_TOL:
        raise WrongFamilyError(f"{what} cut needs alpha == (n+1)/n * beta")


def _point_on_segment(p: complex, a: complex, b: complex, tol: float) -> bool:
    d = b - a
    length = math.hypot(d.real, d.imag)
    # conj(d) * (p - a) holds dot(d, p - a) + 1j * cross(d, p - a).
    w = d.conjugate() * (p - a)
    if abs(w.imag) / length > tol:
        return False
    t = w.real / (length * length)
    return -tol / length < t < 1.0 + tol / length


def cut_wheel(spec: TriangleSpec, n: int = 1) -> Dissection:
    """Chord-fan cut: alpha == (n+1)/n * beta.

    2n+1 equal chords on a circle through A and B (center below AB) run
    from A to B; the first chord makes angle beta with AB and the last
    vertex N before B lands on BC.  The fan piece is symmetric across the
    perpendicular bisector of AB and the remaining piece is symmetric
    across the bisector of gamma, so both match their mirror images.
    """
    _require_wheel_family(spec, n, "wheel")
    cake = _scalene_cake(spec, "wheel")
    a, b, c = cake.vertices
    pts = _wheel_points(spec, n)
    n_pt = pts[2 * n]
    tol = 1e-9 * spec.side_c
    if not _point_on_segment(n_pt, b, c, tol):
        raise ClosureError("last fan vertex missed side BC")
    fan = Polygon(tuple([a, b] + pts[2 * n : 0 : -1]))
    rest = Polygon(tuple(pts[: 2 * n + 1] + [c]))
    cut = Polyline(tuple(pts[: 2 * n + 1]))
    return _assemble("wheel", spec, cake, (fan, rest), cut=cut, n=n)


def cut_gear(spec: TriangleSpec, n: int = 1) -> Dissection:
    """Saw cut: alpha == (n+1)/n * beta.

    A saw of 2n+1 equal segments starts at A along AB and alternates
    turns of +beta and -alpha; the family relation makes the direction
    sum parallel to AB, which fixes the segment length, puts the last
    interior vertex on BC, and lets the toothed piece rotate onto its
    mirror image.
    """
    _require_wheel_family(spec, n, "gear")
    cake = _scalene_cake(spec, "gear")
    a, b, c = cake.vertices
    directions = [0.0]
    for j in range(1, 2 * n + 1):
        step = spec.beta if j % 2 == 1 else -spec.alpha
        directions.append(directions[-1] + step)
    units = [unit(t) for t in directions]
    sum_x = sum(u.real for u in units)
    sum_y = sum(u.imag for u in units)
    seg = spec.side_c / sum_x
    if abs(seg * sum_y) > 1e-9 * spec.side_c:
        raise ClosureError(
            f"saw does not close onto B (perpendicular residual {seg * sum_y:.3e})"
        )
    pts = [a]
    for u in units:
        pts.append(pts[-1] + seg * u)
    pts[-1] = b
    tol = 1e-9 * spec.side_c
    if not _point_on_segment(pts[2 * n], b, c, tol):
        raise ClosureError("last saw vertex missed side BC")
    toothed = Polygon(tuple([pts[1], b] + pts[2 * n : 1 : -1]))
    rest = Polygon(tuple(pts[: 2 * n + 1] + [c]))
    cut = Polyline(tuple(pts[1 : 2 * n + 1]))
    return _assemble("gear", spec, cake, (toothed, rest), cut=cut, n=n)


def cut_scissors(spec: TriangleSpec) -> Dissection:
    """The (30, 20, 130) triangle: three equal segments from C.

    Starting along CA, three segments of equal length with equal
    130-degree angles between consecutive edges end at a point M on AB.
    The height of M is linear in the segment length s, so s is solved in
    closed form.  Both pieces (a kite at A and a pentagon at B) rotate
    onto their mirror images.
    """
    if abs(spec.alpha - 30.0) > ANGLE_TOL or abs(spec.beta - 20.0) > ANGLE_TOL:
        raise WrongFamilyError("scissors cut is specific to (30, 20, 130)")
    cake = construct_triangle(spec)
    a, b, c = cake.vertices
    turn = 180.0 - spec.gamma
    dirs = [unit(180.0 + spec.alpha + j * turn) for j in range(3)]
    # M = C + s * (d0 + d1 + d2) lies on AB, where y = 0.
    s = -c.imag / (dirs[0].imag + dirs[1].imag + dirs[2].imag)
    k = c + s * dirs[0]
    l = k + s * dirs[1]
    m = l + s * dirs[2]
    m = complex(m.real, 0.0)
    pieces = (Polygon((a, m, l, k)), Polygon((b, c, k, l, m)))
    return _assemble("scissors", spec, cake, pieces, cut=Polyline((k, l, m)))
