"""Planar primitives for triangle dissections.

Points, directed lines, simple polygons, proper rigid motions, and the
predicates the rest of the package builds on: direct congruence, overlap
area, mirror symmetry.  Everything here is an immutable value and every
function is pure.

Angles are degrees throughout.  Geometric comparisons take explicit
length tolerances; where a default is used it is 1e-9 times the instance
diameter (lengths) or 1e-9 times the instance area (areas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "AngleDeg",
    "DegenerateSpecError",
    "DirectedLine",
    "Point",
    "Polygon",
    "Polyline",
    "RigidMotion",
    "TriangleSpec",
    "TriangulationError",
    "apply_motion",
    "construct_triangle",
    "dist",
    "find_motion",
    "incenter",
    "intersection_area",
    "is_mirror_symmetric",
    "mirror_polygon",
    "oriented_angle",
    "same_directed_line",
    "signed_area",
    "triangulate",
    "unit",
]

AngleDeg = float

# Unit directions agree when their dot product clears this; corresponds to
# an angular slack of about 2e-6 radians.
DIRECTION_DOT_TOL = 1.0 - 1e-12

# Relative tolerance behind the default length/area epsilons.
REL_TOL = 1e-9


class DegenerateSpecError(ValueError):
    """Triangle data that does not describe a nondegenerate triangle."""


class TriangulationError(ValueError):
    """Ear clipping could not decompose a polygon."""


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane; doubles as a 2-vector."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def angle_deg(self) -> float:
        return math.degrees(math.atan2(self.y, self.x))


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def unit(angle_deg: float) -> Point:
    """Unit vector at the given direction angle."""
    r = math.radians(angle_deg)
    return Point(math.cos(r), math.sin(r))


@dataclass(frozen=True, slots=True)
class DirectedLine:
    """An infinite line with a preferred direction of travel."""

    base: Point
    direction: Point

    def __post_init__(self) -> None:
        n = self.direction.norm()
        if not math.isfinite(n) or n == 0.0:
            raise ValueError("directed line needs a nonzero direction")
        if abs(n - 1.0) > 1e-14:
            object.__setattr__(self, "direction", self.direction * (1.0 / n))

    @classmethod
    def through(cls, a: Point, b: Point) -> "DirectedLine":
        if dist(a, b) == 0.0:
            raise ValueError("directed line needs two distinct points")
        return cls(a, b - a)

    def reversed(self) -> "DirectedLine":
        return DirectedLine(self.base, -self.direction)

    def distance_to(self, p: Point) -> float:
        """Unsigned distance from p to the line."""
        return abs(self.direction.cross(p - self.base))


def same_directed_line(a: DirectedLine, b: DirectedLine, tol: float) -> bool:
    """Same line, same direction of travel.

    Directions must agree to within DIRECTION_DOT_TOL; the base point of
    one line must sit within tol of the other line.
    """
    if a.direction.dot(b.direction) <= DIRECTION_DOT_TOL:
        return False
    return b.distance_to(a.base) < tol


def signed_area(vertices: Sequence[Point]) -> float:
    """Shoelace area; positive for counterclockwise order."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return 0.5 * total


def _segments_cross(
    p1x: float, p1y: float, p2x: float, p2y: float,
    q1x: float, q1y: float, q2x: float, q2y: float,
    tol: float,
) -> bool:
    """True when the open segments p1p2 and q1q2 share a point.

    Takes plain coordinates so the O(n^2) scan in Polygon allocates
    nothing.  tol is an absolute cross-product margin; touching within it
    does not count as a crossing (shared endpoints of adjacent polygon
    edges are excluded by the caller, not here).
    """
    px, py = p2x - p1x, p2y - p1y
    qx, qy = q2x - q1x, q2y - q1y
    d1 = px * (q1y - p1y) - py * (q1x - p1x)
    d2 = px * (q2y - p1y) - py * (q2x - p1x)
    d3 = qx * (p1y - q1y) - qy * (p1x - q1x)
    d4 = qx * (p2y - q1y) - qy * (p2x - q1x)
    if max(abs(d1), abs(d2)) <= tol and max(abs(d3), abs(d4)) <= tol:
        # Collinear: overlapping spans mean the boundary self-touches.
        t = [px * p1x + py * p1y, px * p2x + py * p2y]
        u = [px * q1x + py * q1y, px * q2x + py * q2y]
        lo = max(min(t), min(u))
        hi = min(max(t), max(u))
        return hi - lo > tol
    return d1 * d2 < -tol * tol and d3 * d4 < -tol * tol


@dataclass(frozen=True, slots=True)
class Polygon:
    """A simple polygon with vertices in counterclockwise order."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        xs = [v.x for v in verts]
        ys = [v.y for v in verts]
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("polygon vertices must be finite")
        n = len(verts)
        hypot = math.hypot
        diam = max(
            [hypot(xs[i] - xs[j], ys[i] - ys[j]) for i in range(n) for j in range(i + 1, n)]
        )
        if diam == 0.0 or not math.isfinite(diam):
            raise ValueError("polygon vertices are degenerate")
        near = 1e-12 * diam
        for i in range(n):
            k = (i + 1) % n
            if hypot(xs[i] - xs[k], ys[i] - ys[k]) <= near:
                raise ValueError(f"consecutive duplicate vertex at index {i}")
        if signed_area(verts) <= 0.0:
            raise ValueError("polygon must be counterclockwise with positive area")
        cross_tol = 1e-12 * diam * diam
        for i in range(n):
            i1 = (i + 1) % n
            for j in range(i + 2, n - 1 if i == 0 else n):
                # adjacent edges share an endpoint by design and are skipped
                j1 = (j + 1) % n
                if _segments_cross(
                    xs[i], ys[i], xs[i1], ys[i1], xs[j], ys[j], xs[j1], ys[j1], cross_tol
                ):
                    raise ValueError("polygon boundary self-intersects")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        return signed_area(self.vertices)

    @property
    def perimeter(self) -> float:
        v = self.vertices
        return sum(dist(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))

    @property
    def diameter(self) -> float:
        v = self.vertices
        return max(
            dist(v[i], v[j]) for i in range(len(v)) for j in range(i + 1, len(v))
        )

    def edge_lengths(self) -> tuple[float, ...]:
        v = self.vertices
        return tuple(dist(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))

    def interior_angles(self) -> tuple[float, ...]:
        """Interior angle at each vertex, degrees; reflex angles exceed 180."""
        v = self.vertices
        n = len(v)
        out = []
        for i in range(n):
            inc = v[i] - v[i - 1]
            exc = v[(i + 1) % n] - v[i]
            turn = math.degrees(math.atan2(inc.cross(exc), inc.dot(exc)))
            out.append(180.0 - turn)
        return tuple(out)

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True, slots=True)
class Polyline:
    """An open chain of at least two distinct vertices."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        for i in range(len(verts) - 1):
            if dist(verts[i], verts[i + 1]) == 0.0:
                raise ValueError("polyline has a zero-length segment")


@dataclass(frozen=True, slots=True)
class TriangleSpec:
    """A triangle given by two interior angles and the included side.

    alpha is the angle at A, beta at B, side_c the length of AB; gamma
    is derived.  The canonical placement puts A at the origin, B on the
    positive x axis and C above it.
    """

    alpha: AngleDeg
    beta: AngleDeg
    side_c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "side_c"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateSpecError(f"{name} must be finite")
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise DegenerateSpecError("angles must be positive")
        if self.alpha + self.beta >= 180.0 - 1e-9:
            raise DegenerateSpecError("alpha + beta must stay below 180 degrees")
        if self.side_c <= 0.0:
            raise DegenerateSpecError("side_c must be positive")

    @property
    def gamma(self) -> AngleDeg:
        return 180.0 - self.alpha - self.beta

    def angles(self) -> tuple[AngleDeg, AngleDeg, AngleDeg]:
        return (self.alpha, self.beta, self.gamma)

    def is_scalene(self, tol: float = 1e-9) -> bool:
        a, b, g = self.angles()
        return abs(a - b) > tol and abs(b - g) > tol and abs(a - g) > tol


def construct_triangle(spec: TriangleSpec) -> Polygon:
    """Place the triangle canonically: A=(0,0), B=(side_c,0), C above."""
    alpha = math.radians(spec.alpha)
    gamma = math.radians(spec.gamma)
    # Law of sines: |AC| / sin(beta) = |AB| / sin(gamma).
    b_len = spec.side_c * math.sin(math.radians(spec.beta)) / math.sin(gamma)
    a_pt = Point(0.0, 0.0)
    b_pt = Point(spec.side_c, 0.0)
    c_pt = Point(b_len * math.cos(alpha), b_len * math.sin(alpha))
    return Polygon((a_pt, b_pt, c_pt))


def mirror_polygon(poly: Polygon, axis_x: float) -> Polygon:
    """Reflect across the vertical line x = axis_x, restoring CCW order."""
    flipped = [Point(2.0 * axis_x - p.x, p.y) for p in poly.vertices]
    return Polygon(tuple(reversed(flipped)))


def incenter(tri: Polygon) -> Point:
    """Incenter of a triangle (side-length weighted vertex average)."""
    if len(tri) != 3:
        raise ValueError("incenter is defined here for triangles only")
    a_pt, b_pt, c_pt = tri.vertices
    la = dist(b_pt, c_pt)
    lb = dist(c_pt, a_pt)
    lc = dist(a_pt, b_pt)
    s = la + lb + lc
    return Point(
        (la * a_pt.x + lb * b_pt.x + lc * c_pt.x) / s,
        (la * a_pt.y + lb * b_pt.y + lc * c_pt.y) / s,
    )


@dataclass(frozen=True, slots=True)
class RigidMotion:
    """A proper rigid motion: rotate by phi degrees about the origin,
    then translate.  Reflections are not representable.

    center_hint caches a rotation center supplied by a parser so that
    re-serialization is byte-stable; it never enters comparisons.
    """

    phi: AngleDeg
    translation: Point
    center_hint: Optional[Point] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        phi = self.phi % 360.0
        if phi == 360.0:
            phi = 0.0
        object.__setattr__(self, "phi", phi)

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(0.0, Point(0.0, 0.0))

    @classmethod
    def rotation_about(cls, center: Point, phi: AngleDeg) -> "RigidMotion":
        r = math.radians(phi % 360.0)
        c, s = math.cos(r), math.sin(r)
        tx = center.x - (c * center.x - s * center.y)
        ty = center.y - (s * center.x + c * center.y)
        return cls(phi, Point(tx, ty), center_hint=center)

    def apply(self, p: Point) -> Point:
        r = math.radians(self.phi)
        c, s = math.cos(r), math.sin(r)
        return Point(
            c * p.x - s * p.y + self.translation.x,
            s * p.x + c * p.y + self.translation.y,
        )

    def is_translation(self, tol_deg: float = 1e-12) -> bool:
        return self.phi <= tol_deg or 360.0 - self.phi <= tol_deg

    def rotation_center(self) -> Optional[Point]:
        """Fixed point of the motion; None for (near-)pure translations."""
        if self.is_translation():
            return None
        if self.center_hint is not None:
            return self.center_hint
        r = math.radians(self.phi)
        c, s = math.cos(r), math.sin(r)
        det = (1.0 - c) * (1.0 - c) + s * s
        tx, ty = self.translation.x, self.translation.y
        return Point(
            ((1.0 - c) * tx - s * ty) / det,
            (s * tx + (1.0 - c) * ty) / det,
        )

    def inverse(self) -> "RigidMotion":
        r = math.radians(self.phi)
        c, s = math.cos(r), math.sin(r)
        tx, ty = self.translation.x, self.translation.y
        # Inverse rotates by -phi and undoes the rotated translation.
        return RigidMotion(-self.phi, Point(-(c * tx + s * ty), -(-s * tx + c * ty)))

    def compose(self, inner: "RigidMotion") -> "RigidMotion":
        """self after inner: (self.compose(inner))(p) == self(inner(p))."""
        r = math.radians(self.phi)
        c, s = math.cos(r), math.sin(r)
        tx = c * inner.translation.x - s * inner.translation.y + self.translation.x
        ty = s * inner.translation.x + c * inner.translation.y + self.translation.y
        return RigidMotion(self.phi + inner.phi, Point(tx, ty))


def apply_motion(motion: RigidMotion, poly: Polygon) -> Polygon:
    return Polygon(tuple(motion.apply(p) for p in poly.vertices))


def _motion_from_two_points(p0: Point, p1: Point, q0: Point, q1: Point) -> RigidMotion:
    phi = (q1 - q0).angle_deg() - (p1 - p0).angle_deg()
    r = math.radians(phi)
    c, s = math.cos(r), math.sin(r)
    return RigidMotion(phi, Point(q0.x - (c * p0.x - s * p0.y), q0.y - (s * p0.x + c * p0.y)))


def _alignments(
    p: Polygon, q: Polygon, tol: float
) -> Iterator[tuple[RigidMotion, float]]:
    """Two-point motions taking p onto q, with their worst vertex
    displacements: one per cyclic vertex alignment whose edge lengths
    agree within 3 * tol.  Nothing when the vertex counts differ."""
    n = len(p)
    if n != len(q):
        return
    pe = p.edge_lengths()
    qe = q.edge_lengths()
    pv = p.vertices
    qv = q.vertices
    for shift in range(n):
        if any(abs(pe[i] - qe[(i + shift) % n]) > 3.0 * tol for i in range(n)):
            continue
        motion = _motion_from_two_points(pv[0], pv[1], qv[shift], qv[(shift + 1) % n])
        yield motion, max(dist(motion.apply(pv[i]), qv[(i + shift) % n]) for i in range(n))


def find_motion(p: Polygon, q: Polygon, tol: Optional[float] = None) -> Optional[RigidMotion]:
    """Proper rigid motion taking p onto q, or None.

    Tries every cyclic vertex alignment whose edge-length sequence agrees
    within tol, solves the two-point alignment, and keeps alignments whose
    worst vertex displacement stays within tol.  Reflections are never
    returned.  Ties are broken by smallest phi in [0, 360), then smallest
    translation norm.
    """
    if len(p) != len(q):
        return None  # before the O(n^2) diameters
    if tol is None:
        tol = REL_TOL * max(p.diameter, q.diameter)
    best: Optional[tuple[float, float, RigidMotion]] = None
    for motion, worst in _alignments(p, q, tol):
        if worst > tol:
            continue
        key = (motion.phi, motion.translation.norm())
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], motion)
    return None if best is None else best[2]


def _merge_collinear(vertices: Sequence[Point], diam: float) -> list[Point]:
    out = list(vertices)
    tol = 1e-12 * diam * diam
    changed = True
    while changed and len(out) > 3:
        changed = False
        for i in range(len(out)):
            prev = out[i - 1]
            cur = out[i]
            nxt = out[(i + 1) % len(out)]
            if abs((cur - prev).cross(nxt - cur)) <= tol:
                del out[i]
                changed = True
                break
    return out


def triangulate(poly: Polygon) -> list[tuple[Point, Point, Point]]:
    """Ear-clipping triangulation; handles reflex vertices.

    Collinear vertices are merged first.  Raises TriangulationError when
    no ear can be found, which for a valid simple polygon means the
    input is numerically degenerate.
    """
    diam = poly.diameter
    verts = _merge_collinear(poly.vertices, diam)
    area_tol = 1e-14 * diam * diam
    tris: list[tuple[Point, Point, Point]] = []
    while len(verts) > 3:
        n = len(verts)
        clipped = False
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if (b - a).cross(c - b) <= area_tol:
                continue  # reflex or flat corner cannot be an ear
            if any(
                _point_in_triangle(verts[j], a, b, c, area_tol)
                for j in range(n)
                if verts[j] not in (a, b, c)
            ):
                continue
            tris.append((a, b, c))
            del verts[i]
            clipped = True
            break
        if not clipped:
            raise TriangulationError("no ear found; polygon is numerically degenerate")
    tris.append((verts[0], verts[1], verts[2]))
    total = sum(signed_area(t) for t in tris)
    if abs(total - poly.area) > 1e-9 * max(poly.area, diam * diam):
        raise TriangulationError("triangulation lost area")
    return tris


def _point_in_triangle(p: Point, a: Point, b: Point, c: Point, tol: float) -> bool:
    d1 = (b - a).cross(p - a)
    d2 = (c - b).cross(p - b)
    d3 = (a - c).cross(p - c)
    return d1 >= -tol and d2 >= -tol and d3 >= -tol


def _clip_convex(subject: Sequence[Point], clip: Sequence[Point]) -> list[Point]:
    """Sutherland-Hodgman: clip a convex subject by a convex CCW polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        edge_a = clip[i]
        edge_b = clip[(i + 1) % n]
        edge = edge_b - edge_a
        inputs = output
        output = []
        prev = inputs[-1]
        prev_side = edge.cross(prev - edge_a)
        for cur in inputs:
            cur_side = edge.cross(cur - edge_a)
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    _append_crossing(output, prev, cur, edge_a, edge_b)
                output.append(cur)
            elif prev_side >= 0.0:
                _append_crossing(output, prev, cur, edge_a, edge_b)
            prev, prev_side = cur, cur_side
    return output


def _append_crossing(out: list[Point], p1: Point, p2: Point, q1: Point, q2: Point) -> None:
    """Append the crossing of segment p1p2 with line q1q2, if it is sound.

    Segments running along the clip line produce sign flips from rounding
    alone; their crossing is ill-conditioned and safely omitted, since the
    endpoints themselves carry the boundary.
    """
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1.cross(d2)
    if abs(denom) <= 1e-15 * d1.norm() * d2.norm():
        return
    t = (q1 - p1).cross(d2) / denom
    t = min(1.0, max(0.0, t))
    out.append(Point(p1.x + t * d1.x, p1.y + t * d1.y))


def intersection_area(p: Polygon, q: Polygon) -> float:
    """Area of the overlap of two simple polygons.

    Both polygons are ear-clipped, once each, and the convex triangle
    pairs clipped against each other; the result is the sum of the
    clipped areas.
    """
    pminx, pminy, pmaxx, pmaxy = p.bounding_box()
    qminx, qminy, qmaxx, qmaxy = q.bounding_box()
    if pmaxx < qminx or qmaxx < pminx or pmaxy < qminy or qmaxy < pminy:
        return 0.0
    total = 0.0
    q_tris = triangulate(q)
    for tp in triangulate(p):
        txs = [v.x for v in tp]
        tys = [v.y for v in tp]
        for tq in q_tris:
            if max(v.x for v in tq) < min(txs) or max(txs) < min(v.x for v in tq):
                continue
            if max(v.y for v in tq) < min(tys) or max(tys) < min(v.y for v in tq):
                continue
            region = _clip_convex(tp, tq)
            if len(region) >= 3:
                total += abs(signed_area(region))
    return total


def is_mirror_symmetric(poly: Polygon, tol: Optional[float] = None) -> bool:
    """True when some reflection maps the polygon onto itself.

    Equivalent test: the mirror image (across any axis) is directly
    congruent to the original.
    """
    mirrored = mirror_polygon(poly, 0.0)
    return find_motion(mirrored, poly, tol) is not None


SegmentLike = Union[DirectedLine, tuple[Point, Point]]


def _as_direction(obj: SegmentLike) -> Point:
    if isinstance(obj, DirectedLine):
        return obj.direction
    a, b = obj
    d = b - a
    if d.norm() == 0.0:
        raise ValueError("segment endpoints coincide")
    return d


def oriented_angle(kl: SegmentLike, mn: SegmentLike) -> float:
    """Counterclockwise angle, mod 180, taking line kl to line mn.

    Result lies in [0, 180).  Only the carrier lines matter, not the
    travel direction along them.
    """
    a = _as_direction(kl).angle_deg()
    b = _as_direction(mn).angle_deg()
    return (b - a) % 180.0
