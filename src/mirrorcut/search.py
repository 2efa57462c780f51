"""Search for straight two-piece mirror dissections.

A straight cut is a chord between two boundary points of the cake,
parameterized by counterclockwise arc length from A.  The search cuts
the cake at (s, t), cuts it again at (s_box, t_box) and mirrors that
split to tile the box, then asks whether the two cake pieces are
directly congruent to the two box pieces (in either assignment).

An exact solver answers that question for every combinatorial type of
straight cut.  A chord either runs from a vertex to the opposite side
(kind V, two triangles) or cuts off a corner (kind S, a triangle and a
quadrilateral), and the cake and box chords are of one kind.  A type
fixes both chords' vertex or corner, the piece assignment and an
orientation-reversing vertex correspondence per piece pair; V-V types
reduce to quadratics in the foot's position, S-S types to linear
equations in the chord angles and then in the chord offsets.  There are
270 types: 162 V-V and 108 S-S.

Each distinct solution is split once, into the cake pieces and the
mirrored box pieces that they must match.  Its residual is the worst,
over the two piece pairs, of the vertex displacement of the best
two-point fit that find_motion tries; the same alignments are the
only congruence test in the search.  A solution within tol * perimeter
is certified end to end on those pieces: recover_motions finds the
proper motions and verify_nice checks the assembled dissection.

A type's combinatorics do not depend on the cake, so the types form one
table, built once at import; a search only evaluates it on the cake's
numbers.  A V-V type is a pair of per-piece blocks, each with three
quadratic equalities in the foot's position.  The nine types of one
(cake vertex, box vertex, crossed) share six blocks, one per piece and
reflection, so there are 108 blocks in all.  Each block's roots and its
own equalities are solved once, for the three types that use it; each
root is then checked against the type's other block.
An S-S type stores its integer angle rows with the pivot pair and
determinant that the 2 x 2 solve picks, so a search only forms the
angle constants and solves.  Candidates come out in the order, and from
the float expressions, of a walk over all 270 types one by one, so the
output does not depend on this layout.

An empty result means that no type has a solution certified at the
tolerance, in floating point; it says nothing about cuts with more
pieces or curved cuts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .geom import (
    Polygon, Polyline, TriangleSpec, _alignments, construct_triangle, dist,
    is_mirror_symmetric, mirror_polygon,
)
from .verifier import recover_motions, verify_nice
from .constructions import Dissection

__all__ = [
    "CutCandidate",
    "RESOLUTION_CAVEAT",
    "search_straight_cuts",
    "split_by_params",
]

RESOLUTION_CAVEAT = (
    "no straight two-piece nice cut certified at this tolerance; "
    "cuts with more pieces or curved cuts may still exist"
)


@dataclass(frozen=True, slots=True)
class CutCandidate:
    """A straight cake cut paired with a straight box cut.

    s, t are boundary parameters (counterclockwise arc length from A) of
    the cake cut; s_box, t_box parameterize the cut whose mirrored pieces
    tile the box.  crossed records the piece assignment: False matches
    piece 1 to mirrored piece 1, True swaps them.  residual is the worst
    vertex displacement of the best two-point fit of each piece pair, in
    length units: find_motion at tol = residual carries each cake piece
    onto its mirrored box piece.
    """

    s: float
    t: float
    s_box: float
    t_box: float
    crossed: bool
    residual: float


def _vertex_params(poly: Polygon) -> list[float]:
    out = [0.0]
    verts = poly.vertices
    for i in range(len(verts)):
        nxt = verts[(i + 1) % len(verts)]
        out.append(out[-1] + dist(nxt, verts[i]))
    return out  # length n+1, last entry == perimeter


def _locate(
    poly: Polygon, cum: list[float], s: float, snap: float
) -> tuple[complex, set[int]]:
    """Boundary point at parameter s plus the set of sides it lies on.

    cum is _vertex_params(poly).  Parameters within snap of a vertex are
    snapped to it; a vertex belongs to both adjacent sides.
    """
    per = cum[-1]
    s = s % per
    n = len(poly.vertices)
    for i in range(n):
        if abs(s - cum[i]) <= snap or abs(s - cum[i] - per) <= snap:
            return poly.vertices[i], {(i - 1) % n, i}
    for i in range(n):
        if cum[i] <= s <= cum[i + 1]:
            a = poly.vertices[i]
            b = poly.vertices[(i + 1) % n]
            frac = (s - cum[i]) / (cum[i + 1] - cum[i])
            d = b - a
            return complex(a.real + frac * d.real, a.imag + frac * d.imag), {i}
    return poly.vertices[0], {n - 1, 0}


def split_by_params(
    poly: Polygon, s: float, t: float
) -> Optional[tuple[Polygon, Polygon]]:
    """Split a convex polygon along the chord between boundary parameters.

    Returns (piece from s to t counterclockwise, piece from t to s), or
    None when the chord is degenerate: endpoints coincide, or both lie
    on one side so the chord runs along the boundary.
    """
    cum = _vertex_params(poly)
    per = cum[-1]
    snap = 1e-9 * per
    p_s, sides_s = _locate(poly, cum, s, snap)
    p_t, sides_t = _locate(poly, cum, t, snap)
    if sides_s & sides_t:
        return None
    if dist(p_s, p_t) <= snap:
        return None

    def walk(from_s: float, to_t: float, start: complex, stop: complex) -> Optional[Polygon]:
        pos = from_s % per
        span = (to_t - from_s) % per
        n = len(poly.vertices)
        passed = [
            (offset, poly.vertices[i])
            for i in range(n)
            if snap < (offset := (cum[i] - pos) % per) < span - snap
        ]
        passed.sort(key=lambda ov: ov[0])
        verts = [start] + [v for _, v in passed] + [stop]
        try:
            return Polygon(tuple(verts))
        except ValueError:
            return None

    first = walk(s, t, p_s, p_t)
    second = walk(t, s, p_t, p_s)
    if first is None or second is None:
        return None
    return first, second


# A scored cut: (s, t, s_box, t_box, crossed, residual, cake pieces,
# mirrored box pieces in the order that they match the cake pieces).
_Hit = tuple[float, float, float, float, bool, float, tuple, tuple]


def _dedupe(rows: list[_Hit], radius: float, per: float) -> list[_Hit]:
    """Keep the lowest-residual row of each cluster of rows that agree on
    the assignment and sit within radius in every parameter, cyclically
    modulo the perimeter per."""

    def close(a: float, b: float) -> bool:
        d = abs(a - b) % per
        return min(d, per - d) < radius

    kept: list[_Hit] = []
    for h in sorted(rows, key=lambda h: h[5]):
        if not any(
            h[4] == k[4] and all(close(h[x], k[x]) for x in range(4)) for k in kept
        ):
            kept.append(h)
    return kept


# -- exact solver ------------------------------------------------------------
#
# A piece is matched to a box piece by a reflection, which maps vertex k
# of an n-gon to vertex (r - k) mod n and so edge k (from vertex k to
# vertex k + 1) to edge (r - k - 1) mod n, for one of n choices of r.

# A solved cut: cake chord (s, t), box chord (s_box, t_box), crossed.
_Cut = tuple[float, float, float, float, bool]

# Rows within this fraction of the perimeter in all four parameters are
# one cut: the solver reaches a cut through several types.
_SAME_CUT = 1e-6

# The solver's equalities are taken to hold, or to vanish identically,
# to this fraction of their scale: radians for angles, the perimeter for
# lengths and its square for squared lengths.  It is a floating-point
# margin, not the search tolerance, which only the residual and the
# certification read.
_EXACT = 1e-9

# The search refuses a cake within BAND * diameter of its own mirror
# image.  Near an isosceles cake, whose cuts form a continuum, the margin
# above admits degenerate types: a seeded sweep (see the README) saw
# continua up to 9.1e-9 and near-cuts up to 7.6e-5 times the diameter,
# the latter sliver cuts of right cakes near (90, 45, 45), which the
# margin on squared lengths admits up to about sqrt(_EXACT) * perimeter.
BAND = 2e-4


def _quad_candidates(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*u^2 + b*u + c, or the vertex of the parabola when
    rounding has pushed a double root's discriminant below zero."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return [-b / (2.0 * a)] if a != 0.0 else []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:
        return []  # b = 0 = a * c: no root, or a double root at u = 0
    return [c / q] + ([q / a] if a != 0.0 else [])


# -- the table of types (see the module docstring) ---------------------------
#
# V-V: the chord from vertex i leaves the pieces w = 0, (V_i, V_i+1, D),
# and w = 1, (V_i, D, V_i+2).  A block (i, w, j, crossed, r) matches
# piece w of the cake chord from vertex i to piece w (1 - w when crossed)
# of the box chord from vertex j by the reflection r, which gives three
# equalities of squared edges.  A type is the pair of blocks w = 0 and
# w = 1 with one (i, j, crossed): 18 x 9 = 162 types use 108 blocks,
# each block three times.


def _vertex_table() -> tuple[tuple, tuple]:
    """Blocks as (cake piece, box piece, crossed, edge k -> box edge),
    pieces indexed 2 * vertex + w; types as (i, j, crossed, block of
    w = 0, block of w = 1), in the solver's order."""
    index = {}
    blocks = []
    for i, w, j, crossed, r in itertools.product(
        range(3), range(2), range(3), (False, True), range(3)
    ):
        index[i, w, j, crossed, r] = len(blocks)
        match = tuple((r - k - 1) % 3 for k in range(3))
        blocks.append((2 * i + w, 2 * j + (1 - w if crossed else w), crossed, match))
    types = tuple(
        (i, j, crossed, index[i, 0, j, crossed, r1], index[i, 1, j, crossed, r2])
        for i, j, crossed in itertools.product(range(3), range(3), (False, True))
        for r1, r2 in itertools.product(range(3), repeat=2)
    )
    return tuple(blocks), types


_VERTEX_BLOCKS, _VERTEX_TYPES = _vertex_table()

# S-S: the chord at corner i leaves the triangle (V_i, P, Q) and the
# quadrilateral (P, V_i+1, V_i+2, Q).  Their seven angles, in that order,
# are A[k] * phi + C_i[k], with the integer coefficients A below and
# the cake's constants C_i = (theta_i, 0, pi - theta_i, pi, theta_i+1,
# theta_i+2, theta_i), which _corner_cuts forms per call.
_CORNER_PHI = (0, 1, -1, -1, 0, 0, 1)


def _corner_table() -> tuple:
    """Types as (i, j, angle rows, pivot, edge maps), in the solver's
    order.

    A type matches the triangle by the reflection rt and the
    quadrilateral by rq.  Its angle rows a * phi + b * phi_box = c are
    (a, b, k, m) with c = C_j[m] - C_i[k].  They are integer in (phi,
    phi_box), so the pair of rows that _solve2 would pivot on is fixed
    here: pivot is (p, q, det), or None when the rows have rank one,
    and then they hold only on an isosceles cake.  Edge maps are
    (piece, k, m): piece edge k meets box piece edge m.
    """
    pairs = tuple(itertools.combinations(range(7), 2))  # of the seven angle rows
    types = []
    for i, j in itertools.product(range(3), repeat=2):
        for rt, rq in itertools.product(range(3), range(4)):
            maps = ((0, rt, 3, 0), (1, rq, 4, 3))  # (piece, r, vertex count, offset)
            rows = tuple(
                (_CORNER_PHI[o + k], -_CORNER_PHI[o + (r - k) % n], o + k, o + (r - k) % n)
                for _, r, n, o in maps
                for k in range(n)
            )
            dets = [rows[p][0] * rows[q][1] - rows[p][1] * rows[q][0] for p, q in pairs]
            sizes = [abs(d) for d in dets]
            best = sizes.index(max(sizes))  # the first largest, as in _solve2
            pivot = (*pairs[best], dets[best]) if dets[best] != 0 else None
            edge_maps = tuple((w, k, (r - k - 1) % n) for w, r, n, _ in maps for k in range(n))
            types.append((i, j, rows, pivot, edge_maps))
    return tuple(types)


_CORNER_TYPES = _corner_table()


def _quad_holds(polys: Sequence[tuple[float, float, float]], u: float, small: float) -> bool:
    return all(abs((a * u + b) * u + c) <= small for a, b, c in polys)


def _vertex_cuts(z: Sequence[complex], cum: list[float]) -> list[_Cut]:
    """Cuts whose cake and box chords both run from a vertex to the
    opposite side.

    The chord from vertex i meets side i + 1 at fraction u, so its first
    piece has area u * area.  The box chord from vertex j at fraction w
    must give the same areas: w = u, or w = 1 - u when crossed.  Every
    squared edge length is then a quadratic in u.  A type's solutions
    are among the roots of each of its equalities that is not
    identically zero, and must satisfy all of them.  A block's roots
    and its own equalities are solved once for the three types that
    use it.
    """
    per = cum[-1]
    small = _EXACT * per * per
    # Squared edges of the two triangles of each vertex chord, in u:
    # (V_i, V_i+1, D) and (V_i, D, V_i+2), coefficients (u^2, u, 1).
    pieces = []
    for i in range(3):
        e = z[(i + 1) % 3] - z[i]
        f = z[(i + 2) % 3] - z[(i + 1) % 3]
        g = z[i] - z[(i + 2) % 3]
        ee, ff, gg = (w.real * w.real + w.imag * w.imag for w in (e, f, g))
        chord = (ff, 2.0 * (e.real * f.real + e.imag * f.imag), ee)
        pieces += [
            ((0.0, 0.0, ee), (ff, 0.0, 0.0), chord),
            (chord, (ff, -2.0 * ff, ff), (0.0, 0.0, gg)),
        ]
    # The same quadratics in 1 - u.
    flipped = [tuple((a, -2.0 * a - b, a + b + c) for a, b, c in piece) for piece in pieces]

    blocks = []
    for mine, theirs, crossed, match in _VERTEX_BLOCKS:
        p, q = pieces[mine], (flipped if crossed else pieces)[theirs]
        polys = [
            (pk[0] - qm[0], pk[1] - qm[1], pk[2] - qm[2])
            for pk, qm in zip(p, (q[m] for m in match))
        ]
        roots = [
            u
            for pk in polys
            if max(map(abs, pk)) > small
            for u in _quad_candidates(*pk)
            if 0.0 < u < 1.0 and _quad_holds(polys, u, small)
        ]
        blocks.append((polys, roots))

    def foot(i: int, frac: float) -> float:
        """Boundary parameter of the point at frac along side i + 1."""
        k = (i + 1) % 3
        return cum[k] + frac * (cum[k + 1] - cum[k])

    cuts: list[_Cut] = []
    for i, j, crossed, b1, b2 in _VERTEX_TYPES:
        polys1, roots1 = blocks[b1]
        polys2, roots2 = blocks[b2]
        for u in [u for u in roots1 if _quad_holds(polys2, u, small)] + [
            u for u in roots2 if _quad_holds(polys1, u, small)
        ]:
            w = 1.0 - u if crossed else u
            cuts.append((cum[i], foot(i, u), cum[j], foot(j, w), crossed))
    return cuts


def _solve2(
    rows: list[tuple[float, float, float]], singular: float
) -> Optional[tuple[float, float]]:
    """Solve rows a*x + b*y = c through the pair with the largest
    determinant; None when no determinant exceeds singular."""
    best = max(
        itertools.combinations(rows, 2),
        key=lambda pq: abs(pq[0][0] * pq[1][1] - pq[0][1] * pq[1][0]),
    )
    (a0, b0, c0), (a1, b1, c1) = best
    det = a0 * b1 - b0 * a1
    if abs(det) <= singular:
        return None
    return (c0 * b1 - b0 * c1) / det, (a0 * c1 - c0 * a1) / det


def _corner_cuts(z: Sequence[complex], cum: list[float], theta: Sequence[float]) -> list[_Cut]:
    """Cuts whose cake and box chords both cut off a corner.

    The chord at corner i runs from P on side i to Q on side i + 2 and
    leaves the triangle (V_i, P, Q) with angle phi at P and the
    quadrilateral (P, V_i+1, V_i+2, Q).  Every piece angle is phi or a
    cake angle with an integer sign, so a type's angle equalities are
    linear in (phi, phi_box) with integer coefficients: they fix both or
    hold only on a line, which needs an isosceles cake.  With the angles
    fixed, every edge is affine in x = |V_i P| (law of sines), and the
    edge equalities fix (x, x_box).
    """
    per = cum[-1]
    side = [abs(z[(k + 1) % 3] - z[k]) for k in range(3)]
    consts = [
        (th, 0.0, math.pi - th, math.pi, theta[(i + 1) % 3], theta[(i + 2) % 3], th)
        for i, th in enumerate(theta)
    ]

    def edges(i: int, phi: float) -> tuple[tuple, tuple]:
        """Edges as (constant, coefficient of x), in vertex order."""
        s_psi = math.sin(math.pi - theta[i] - phi)
        chord = math.sin(theta[i]) / s_psi
        back = math.sin(phi) / s_psi  # |V_i Q| / x
        return (
            ((0.0, 1.0), (0.0, chord), (0.0, back)),
            (
                (side[i], -1.0),
                (side[(i + 1) % 3], 0.0),
                (side[(i + 2) % 3], -back),
                (0.0, chord),
            ),
        )

    cuts: list[_Cut] = []
    for i, j, angle_rows, pivot, edge_maps in _CORNER_TYPES:
        if pivot is None:
            continue
        ci, cj = consts[i], consts[j]
        p, q, det = pivot
        a0, b0, k0, m0 = angle_rows[p]
        a1, b1, k1, m1 = angle_rows[q]
        c0, c1 = cj[m0] - ci[k0], cj[m1] - ci[k1]
        phi, phi_box = (c0 * b1 - b0 * c1) / det, (a0 * c1 - c0 * a1) / det
        if not (0.0 < phi < math.pi - theta[i] and 0.0 < phi_box < math.pi - theta[j]):
            continue
        if any(abs(a * phi + b * phi_box - (cj[m] - ci[k])) > _EXACT for a, b, k, m in angle_rows):
            continue
        mine, theirs = edges(i, phi), edges(j, phi_box)
        rows = [
            (e1, -f1, f0 - e0)
            for w, k, m in edge_maps
            for e0, e1 in (mine[w][k],)
            for f0, f1 in (theirs[w][m],)
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
        # First pieces: the corner triangles (Q, V_i, P).
        cuts.append((cum[i] - y, cum[i] + x, cum[j] - y_box, cum[j] + x_box, False))
    return cuts


def _ordered(cut: _Cut, per: float) -> _Cut:
    """The cut with parameters modulo per and each chord as s < t;
    swapping a chord's ends swaps its pieces."""
    s, t, sb, tb = (x % per for x in cut[:4])
    crossed = cut[4] ^ (s > t) ^ (sb > tb)
    return min(s, t), max(s, t), min(sb, tb), max(sb, tb), crossed


def _fit(p: Polygon, q: Polygon, tol: float) -> float:
    """Worst vertex displacement of the best two-point fit of p onto q."""
    return min((worst for _, worst in _alignments(p, q, tol)), default=math.inf)


def _exact_rows(
    cake: Polygon, axis: float, spec: TriangleSpec, tol: float
) -> list[_Hit]:
    """Rows of the solved cuts of every type whose residual is within
    tol * perimeter, each chord ordered as s < t, with the pieces that
    the residual was measured on."""
    cum = _vertex_params(cake)
    per = cum[-1]
    theta = [math.radians(x) for x in spec.angles()]
    cuts = _vertex_cuts(cake.vertices, cum) + _corner_cuts(cake.vertices, cum, theta)
    rows: list[_Hit] = []
    # Several types reach one cut, often in the same floats.
    for s, t, sb, tb, crossed in dict.fromkeys(_ordered(c, per) for c in cuts):
        pieces = split_by_params(cake, s, t)
        box = split_by_params(cake, sb, tb)
        if pieces is None or box is None:
            continue
        mirrored = tuple(mirror_polygon(p, axis) for p in (box[::-1] if crossed else box))
        res = max(_fit(p, q, tol * per) for p, q in zip(pieces, mirrored))
        if res <= tol * per:
            rows.append((s, t, sb, tb, crossed, res, pieces, mirrored))
    return rows


def search_straight_cuts(
    spec: TriangleSpec,
    *,
    tol: float = 1e-7,
    progress: Optional[Callable[[str, float], None]] = None,
) -> list[CutCandidate]:
    """Find straight two-piece mirror cuts of a scalene cake.

    The result is the exact solver's (see the module docstring): the
    solutions of all 270 combinatorial types of straight cut whose
    residual is within tol * perimeter, one per cut, each of which must
    pass verify_nice at tol once assembled.  Results are sorted by
    (s, t, s_box, t_box, crossed).  An empty result means that no type
    has a certified solution at tol.

    A cake within BAND * diameter of its own mirror image is refused
    before any solving, with one ValueError.  Outside the band a hit is
    exact to rounding unless the cake is only near one with an exact
    cut, say 1e-7 degrees off a cut line; residual tells them apart.
    ValueError is also raised when tol is not a finite number above zero.

    progress, if given, is called with a stage name and 0.0 or 1.0 as
    the search enters and leaves each stage: split, scan, refine, then
    done.  split and scan do no work and are reported as zero-length
    stages, so that stage timers keyed on the four names still see them;
    refine is the solver, and certification runs between refine and done.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number above zero, not {tol!r}")
    cake = construct_triangle(spec)
    if is_mirror_symmetric(cake, BAND * cake.diameter):
        raise ValueError(
            f"the cake must be scalene: it is within {BAND:g} x diameter of its "
            "mirror image, where the solver cannot tell its cuts from a continuum"
        )
    axis = spec.side_c / 2.0

    def report(stage: str, frac: float) -> None:
        if progress is not None:
            progress(stage, frac)

    for stage in ("split", "scan"):
        report(stage, 0.0)
        report(stage, 1.0)
    report("refine", 0.0)
    per = _vertex_params(cake)[-1]
    kept = _dedupe(_exact_rows(cake, axis, spec, tol), _SAME_CUT * per, per)
    report("refine", 1.0)

    # Final certification: assemble and verify end to end.
    out = [
        CutCandidate(s=s, t=t, s_box=sb, t_box=tb, crossed=crossed, residual=res)
        for s, t, sb, tb, crossed, res, pieces, mirrored in kept
        if _certify(cake, axis, pieces, mirrored, res, tol)
    ]
    out.sort(key=lambda c: (c.s, c.t, c.s_box, c.t_box, c.crossed))
    report("done", 1.0)
    return out


def _certify(
    cake: Polygon,
    axis: float,
    pieces: tuple[Polygon, Polygon],
    mirrored: tuple[Polygon, Polygon],
    res: float,
    tol: float,
) -> bool:
    """Whether the cake pieces, moved onto the matching mirrored box
    pieces, assemble into a dissection that verify_nice passes at tol."""
    motions = recover_motions(
        list(pieces), list(mirrored), tol=max(10.0 * res, 1e-9 * cake.diameter)
    )
    if motions is None:
        return False
    d = Dissection(
        cake=cake,
        box=mirror_polygon(cake, axis),
        pieces=pieces,
        motions=tuple(motions),
        cut=Polyline((pieces[0].vertices[0], pieces[0].vertices[-1])),
        family="straight",
    )
    return verify_nice(d, tol=tol).passed
