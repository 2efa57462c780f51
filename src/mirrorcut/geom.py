"""Planar primitives for triangle dissections.

Directed lines, simple polygons, proper rigid motions, and the
predicates the rest of the package builds on: direct congruence, overlap
area, mirror symmetry.  Everything here is an immutable value and every
function is pure.

Points and vectors are Python's built-in complex numbers, x + y*1j, so a
rotation is a multiplication by a unit complex number.  Certificates
still store every point as an [x, y] pair.

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


def _cross(a: complex, b: complex) -> float:
    """z-component of the cross product of two vectors."""
    return a.real * b.imag - a.imag * b.real


def _arg_deg(z: complex) -> float:
    """Direction angle of a nonzero vector, degrees in (-180, 180]."""
    return math.degrees(math.atan2(z.imag, z.real))


def dist(a: complex, b: complex) -> float:
    d = a - b
    return math.hypot(d.real, d.imag)


def unit(angle_deg: float) -> complex:
    """Unit vector at the given direction angle."""
    r = math.radians(angle_deg)
    return complex(math.cos(r), math.sin(r))


@dataclass(frozen=True, slots=True)
class DirectedLine:
    """An infinite line with a preferred direction of travel."""

    base: complex
    direction: complex

    def __post_init__(self) -> None:
        n = math.hypot(self.direction.real, self.direction.imag)
        if not math.isfinite(n) or n == 0.0:
            raise ValueError("directed line needs a nonzero direction")
        if abs(n - 1.0) > 1e-14:
            object.__setattr__(self, "direction", self.direction * (1.0 / n))

    @classmethod
    def through(cls, a: complex, b: complex) -> "DirectedLine":
        if dist(a, b) == 0.0:
            raise ValueError("directed line needs two distinct points")
        return cls(a, b - a)

    def reversed(self) -> "DirectedLine":
        return DirectedLine(self.base, -self.direction)

    def distance_to(self, p: complex) -> float:
        """Unsigned distance from p to the line."""
        return abs(_cross(self.direction, p - self.base))


def same_directed_line(a: DirectedLine, b: DirectedLine, tol: float) -> bool:
    """Same line, same direction of travel.

    Directions must agree to within DIRECTION_DOT_TOL; the base point of
    one line must sit within tol of the other line.
    """
    u, v = a.direction, b.direction
    if u.real * v.real + u.imag * v.imag <= DIRECTION_DOT_TOL:
        return False
    return b.distance_to(a.base) < tol


def signed_area(vertices: Sequence[complex]) -> float:
    """Shoelace area; positive for counterclockwise order."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.real * b.imag - b.real * a.imag
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

    vertices: tuple[complex, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        xs = [v.real for v in verts]
        ys = [v.imag for v in verts]
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
            # conj(inc) * exc holds dot(inc, exc) + 1j * cross(inc, exc).
            w = (v[i] - v[i - 1]).conjugate() * (v[(i + 1) % n] - v[i])
            turn = math.degrees(math.atan2(w.imag, w.real))
            out.append(180.0 - turn)
        return tuple(out)

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs = [p.real for p in self.vertices]
        ys = [p.imag for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True, slots=True)
class Polyline:
    """An open chain of at least two distinct vertices."""

    vertices: tuple[complex, ...]

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


def construct_triangle(spec: TriangleSpec) -> Polygon:
    """Place the triangle canonically: A=(0,0), B=(side_c,0), C above."""
    alpha = math.radians(spec.alpha)
    gamma = math.radians(spec.gamma)
    # Law of sines: |AC| / sin(beta) = |AB| / sin(gamma).
    b_len = spec.side_c * math.sin(math.radians(spec.beta)) / math.sin(gamma)
    a_pt = complex(0.0, 0.0)
    b_pt = complex(spec.side_c, 0.0)
    c_pt = complex(b_len * math.cos(alpha), b_len * math.sin(alpha))
    return Polygon((a_pt, b_pt, c_pt))


def mirror_polygon(poly: Polygon, axis_x: float) -> Polygon:
    """Reflect across the vertical line x = axis_x, restoring CCW order."""
    flipped = [complex(2.0 * axis_x - p.real, p.imag) for p in poly.vertices]
    return Polygon(tuple(reversed(flipped)))


def incenter(tri: Polygon) -> complex:
    """Incenter of a triangle (side-length weighted vertex average)."""
    if len(tri) != 3:
        raise ValueError("incenter is defined here for triangles only")
    a_pt, b_pt, c_pt = tri.vertices
    la = dist(b_pt, c_pt)
    lb = dist(c_pt, a_pt)
    lc = dist(a_pt, b_pt)
    s = la + lb + lc
    return complex(
        (la * a_pt.real + lb * b_pt.real + lc * c_pt.real) / s,
        (la * a_pt.imag + lb * b_pt.imag + lc * c_pt.imag) / s,
    )


@dataclass(frozen=True, slots=True)
class RigidMotion:
    """A proper rigid motion: rotate by phi degrees about the origin,
    then translate, z -> unit(phi) * z + translation.  Reflections are
    not representable.

    center_hint caches a rotation center supplied by a parser so that
    re-serialization is byte-stable; it never enters comparisons.
    """

    phi: AngleDeg
    translation: complex
    center_hint: Optional[complex] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        phi = self.phi % 360.0
        if phi == 360.0:
            phi = 0.0
        object.__setattr__(self, "phi", phi)

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(0.0, 0j)

    @classmethod
    def rotation_about(cls, center: complex, phi: AngleDeg) -> "RigidMotion":
        return cls(phi, center - unit(phi % 360.0) * center, center_hint=center)

    def apply(self, p: complex) -> complex:
        return unit(self.phi) * p + self.translation

    def is_translation(self, tol_deg: float = 1e-12) -> bool:
        return self.phi <= tol_deg or 360.0 - self.phi <= tol_deg

    def rotation_center(self) -> Optional[complex]:
        """Fixed point of the motion; None for (near-)pure translations."""
        if self.is_translation():
            return None
        if self.center_hint is not None:
            return self.center_hint
        rot = unit(self.phi)
        c, s = rot.real, rot.imag
        det = (1.0 - c) * (1.0 - c) + s * s
        w = complex(1.0 - c, s) * self.translation
        return complex(w.real / det, w.imag / det)

    def inverse(self) -> "RigidMotion":
        # Inverse rotates by -phi and undoes the rotated translation.
        return RigidMotion(-self.phi, -(unit(self.phi).conjugate() * self.translation))

    def compose(self, inner: "RigidMotion") -> "RigidMotion":
        """self after inner: (self.compose(inner))(p) == self(inner(p))."""
        t = unit(self.phi) * inner.translation + self.translation
        return RigidMotion(self.phi + inner.phi, t)


def apply_motion(motion: RigidMotion, poly: Polygon) -> Polygon:
    rot, t = unit(motion.phi), motion.translation
    return Polygon(tuple(rot * z + t for z in poly.vertices))


def _motion_from_two_points(p0: complex, p1: complex, q0: complex, q1: complex) -> RigidMotion:
    phi = _arg_deg(q1 - q0) - _arg_deg(p1 - p0)
    return RigidMotion(phi, q0 - unit(phi) * p0)


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
        rot, t = unit(motion.phi), motion.translation
        yield motion, max(dist(rot * pv[i] + t, qv[(i + shift) % n]) for i in range(n))


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
        key = (motion.phi, math.hypot(motion.translation.real, motion.translation.imag))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], motion)
    return None if best is None else best[2]


def _merge_collinear(vertices: Sequence[complex], diam: float) -> list[complex]:
    out = list(vertices)
    tol = 1e-12 * diam * diam
    changed = True
    while changed and len(out) > 3:
        changed = False
        for i in range(len(out)):
            prev = out[i - 1]
            cur = out[i]
            nxt = out[(i + 1) % len(out)]
            if abs(_cross(cur - prev, nxt - cur)) <= tol:
                del out[i]
                changed = True
                break
    return out


def triangulate(poly: Polygon) -> list[tuple[complex, complex, complex]]:
    """Ear-clipping triangulation; handles reflex vertices.

    Collinear vertices are merged first.  Raises TriangulationError when
    no ear can be found, which for a valid simple polygon means the
    input is numerically degenerate.
    """
    diam = poly.diameter
    verts = _merge_collinear(poly.vertices, diam)
    area_tol = 1e-14 * diam * diam
    tris: list[tuple[complex, complex, complex]] = []
    while len(verts) > 3:
        n = len(verts)
        clipped = False
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if _cross(b - a, c - b) <= area_tol:
                continue  # reflex or flat corner cannot be an ear
            if any(
                _point_in_triangle(v, a, b, c, area_tol) for v in verts if v not in (a, b, c)
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


def _point_in_triangle(p: complex, a: complex, b: complex, c: complex, tol: float) -> bool:
    return (
        _cross(b - a, p - a) >= -tol
        and _cross(c - b, p - b) >= -tol
        and _cross(a - c, p - c) >= -tol
    )


def _clip_convex(subject: Sequence[complex], clip: Sequence[complex]) -> list[complex]:
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
        prev_side = _cross(edge, prev - edge_a)
        for cur in inputs:
            cur_side = _cross(edge, cur - edge_a)
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    _append_crossing(output, prev, cur, edge_a, edge_b)
                output.append(cur)
            elif prev_side >= 0.0:
                _append_crossing(output, prev, cur, edge_a, edge_b)
            prev, prev_side = cur, cur_side
    return output


def _append_crossing(
    out: list[complex], p1: complex, p2: complex, q1: complex, q2: complex
) -> None:
    """Append the crossing of segment p1p2 with line q1q2, if it is sound.

    Segments running along the clip line produce sign flips from rounding
    alone; their crossing is ill-conditioned and safely omitted, since the
    endpoints themselves carry the boundary.
    """
    d1 = p2 - p1
    d2 = q2 - q1
    denom = _cross(d1, d2)
    if abs(denom) <= 1e-15 * math.hypot(d1.real, d1.imag) * math.hypot(d2.real, d2.imag):
        return
    t = _cross(q1 - p1, d2) / denom
    t = min(1.0, max(0.0, t))
    out.append(complex(p1.real + t * d1.real, p1.imag + t * d1.imag))


def _with_boxes(
    tris: list[tuple[complex, complex, complex]],
) -> list[tuple[tuple[complex, complex, complex], float, float, float, float]]:
    """Each triangle with its bounding box: min x, max x, min y, max y."""
    out = []
    for t in tris:
        xs = [v.real for v in t]
        ys = [v.imag for v in t]
        out.append((t, min(xs), max(xs), min(ys), max(ys)))
    return out


def intersection_area(p: Polygon, q: Polygon) -> float:
    """Area of the overlap of two simple polygons.

    Both polygons are ear-clipped, once each, and the convex triangle
    pairs whose bounding boxes meet clipped against each other; the
    result is the sum of the clipped areas.
    """
    pminx, pminy, pmaxx, pmaxy = p.bounding_box()
    qminx, qminy, qmaxx, qmaxy = q.bounding_box()
    if pmaxx < qminx or qmaxx < pminx or pmaxy < qminy or qmaxy < pminy:
        return 0.0
    total = 0.0
    q_tris = _with_boxes(triangulate(q))
    for tp, x0, x1, y0, y1 in _with_boxes(triangulate(p)):
        for tq, u0, u1, v0, v1 in q_tris:
            if u1 < x0 or x1 < u0 or v1 < y0 or y1 < v0:
                continue
            region = _clip_convex(tp, tq)
            if len(region) >= 3:
                total += abs(signed_area(region))
    return total


def _find_motion_any_edge(
    p: Polygon, q: Polygon, tol: Optional[float] = None
) -> Optional[RigidMotion]:
    """find_motion(p, q, tol), retried with p listed from each of its
    other edges while nothing fits.

    find_motion fits each alignment on the first edge of p.  A vertex
    moved by d turns an edge of length l by about d / l, so a fit on the
    short edge of a thin triangle can read near the diameter however
    close p is to q.
    """
    v = p.vertices
    for k in range(len(v)):
        motion = find_motion(p if k == 0 else Polygon(v[k:] + v[:k]), q, tol)
        if motion is not None:
            return motion
    return None


def is_mirror_symmetric(poly: Polygon, tol: Optional[float] = None) -> bool:
    """True when some reflection maps the polygon onto itself.

    Equivalent test: the mirror image (across any axis) is directly
    congruent to the original.  tol is find_motion's.
    """
    return _find_motion_any_edge(mirror_polygon(poly, 0.0), poly, tol) is not None


SegmentLike = Union[DirectedLine, tuple[complex, complex]]


def _as_direction(obj: SegmentLike) -> complex:
    if isinstance(obj, DirectedLine):
        return obj.direction
    a, b = obj
    d = b - a
    if d == 0:
        raise ValueError("segment endpoints coincide")
    return d


def oriented_angle(kl: SegmentLike, mn: SegmentLike) -> float:
    """Counterclockwise angle, mod 180, taking line kl to line mn.

    Result lies in [0, 180).  Only the carrier lines matter, not the
    travel direction along them.
    """
    a = _arg_deg(_as_direction(kl))
    b = _arg_deg(_as_direction(mn))
    return (b - a) % 180.0
