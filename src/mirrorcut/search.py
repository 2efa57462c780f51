"""Grid search for straight two-piece mirror dissections.

A straight cut is a chord between two boundary points of the cake,
parameterized by counterclockwise arc length from A.  The search cuts
the cake at (s, t), cuts it again at (s_box, t_box) and mirrors that
split to tile the box, then asks whether the two cake pieces are
directly congruent to the two box pieces (in either assignment).  Grid
hits can be polished by coordinate-wise golden-section descent and are
re-certified end to end before being reported.

An empty result means no straight nice cut was found at the requested
resolution; it is never a proof that none exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .geom import Point, Polygon, Polyline, TriangleSpec, construct_triangle, mirror_polygon
from .verifier import recover_motions, verify_nice
from .constructions import Dissection

__all__ = [
    "CutCandidate",
    "RESOLUTION_CAVEAT",
    "boundary_point",
    "search_straight_cuts",
    "split_by_params",
]

RESOLUTION_CAVEAT = (
    "no straight nice cut found at this resolution; "
    "this does not prove that none exists"
)


@dataclass(frozen=True, slots=True)
class CutCandidate:
    """A straight cake cut paired with a straight box cut.

    s, t are boundary parameters (counterclockwise arc length from A) of
    the cake cut; s_box, t_box parameterize the cut whose mirrored pieces
    tile the box.  crossed records the piece assignment: False matches
    piece 1 to mirrored piece 1, True swaps them.  residual is the worst
    vertex mismatch of the certifying congruences, in length units.
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
        out.append(out[-1] + math.hypot(nxt.x - verts[i].x, nxt.y - verts[i].y))
    return out  # length n+1, last entry == perimeter


def boundary_point(poly: Polygon, s: float) -> Point:
    """Point at counterclockwise arc length s from vertex 0."""
    point, _ = _locate(poly, _vertex_params(poly), s, 0.0)
    return point


def _locate(
    poly: Polygon, cum: list[float], s: float, snap: float
) -> tuple[Point, set[int]]:
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
            return Point(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y)), {i}
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
    if math.hypot(p_s.x - p_t.x, p_s.y - p_t.y) <= snap:
        return None

    def walk(from_s: float, to_t: float, start: Point, stop: Point) -> Optional[Polygon]:
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


def _centred(z: list[complex]) -> tuple[complex, ...]:
    mean = sum(z) / len(z)
    return tuple([w - mean for w in z])


def _cycle(piece: Polygon) -> tuple[complex, ...]:
    """Centred vertex cycle of a piece."""
    return _centred([complex(v.x, v.y) for v in piece.vertices])


def _mirror_cycle(piece: Polygon, axis: float) -> tuple[complex, ...]:
    """Centred vertex cycle of mirror_polygon(piece, axis): reflected
    across x = axis and reversed to stay counterclockwise, without
    building and re-validating the mirrored polygon."""
    two_axis = 2.0 * axis
    return _centred([complex(two_axis - v.x, v.y) for v in reversed(piece.vertices)])


def _cyclic_residual(zp: tuple[complex, ...], zq: tuple[complex, ...]) -> float:
    """Best-fit proper-motion residual between two equal-length centred
    vertex cycles, minimized over cyclic alignment."""
    n = len(zp)
    zp_conj = [z.conjugate() for z in zp]
    best = math.inf
    for k in range(n):
        zq_k = zq[k:] + zq[:k]
        w = 0j
        for q, p_conj in zip(zq_k, zp_conj):
            w += q * p_conj
        rot = w / abs(w) if w != 0 else 1.0 + 0j
        worst = 0.0
        for p, q in zip(zp, zq_k):
            err = abs(p * rot - q)
            if err > worst:
                worst = err
                if worst >= best:
                    break  # this alignment can no longer win
        if worst < best:
            best = worst
    return best


@dataclass
class _Split:
    """A cake split; z and mz are the centred vertex cycles of its pieces
    and of their mirror images across x = axis, built on first use."""

    s: float
    t: float
    pieces: tuple[Polygon, Polygon]
    axis: float

    @cached_property
    def z(self) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        p0, p1 = self.pieces
        return _cycle(p0), _cycle(p1)

    @cached_property
    def mz(self) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        p0, p1 = self.pieces
        return _mirror_cycle(p0, self.axis), _mirror_cycle(p1, self.axis)


def _make_split(cake: Polygon, axis: float, s: float, t: float) -> Optional[_Split]:
    pieces = split_by_params(cake, s, t)
    if pieces is None:
        return None
    return _Split(s=s, t=t, pieces=pieces, axis=axis)


def _pair_residual(a: _Split, b: _Split, crossed: bool) -> float:
    i, j = (1, 0) if crossed else (0, 1)
    if len(a.z[0]) != len(b.mz[i]) or len(a.z[1]) != len(b.mz[j]):
        return math.inf
    r1 = _cyclic_residual(a.z[0], b.mz[i])
    if not math.isfinite(r1):
        return r1
    return max(r1, _cyclic_residual(a.z[1], b.mz[j]))


# Splits per block of the self-join: about 700 pairs to score at grid 64,
# so the batched residuals add well under a megabyte to the process.
_JOIN_BLOCK = 64


def _self_join(
    n1: np.ndarray, n2: np.ndarray, feats: np.ndarray, limits: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Screen all pairs of splits by a sorted self-join.

    n1, n2 are the piece vertex counts of each split and feats its row
    (area1, area2, four sorted edges of piece 1, four of piece 2), edges
    zero-padded.  Row r = 2 * i + crossed lets split i play the box role
    with its pieces swapped when crossed; split j is its partner when
    its counts equal the row's and every feature is within limits of the
    row's.  Yields (rows, partners) for one block of _JOIN_BLOCK splits
    at a time, which bounds the memory of the caller's batches; together
    they are the pairs of an all-pairs mask, in its ascending (row, j)
    order.

    The splits are sorted once by (n1, n2, area1), O(m log m).  A row's
    partners then lie in one (n1, n2) group, inside an area1 window found
    by binary search; the window is a little wider than limits[0] so
    that rounding never drops a partner, and the exact tests run on the
    window's members only.
    """
    m = len(n1)
    swapped = feats[:, [1, 0, 6, 7, 8, 9, 2, 3, 4, 5]]
    order = np.lexsort((feats[:, 0], n2, n1))
    sorted_area1 = feats[order, 0]
    sorted_feats = feats[order]
    cuts = np.flatnonzero((np.diff(n1[order]) != 0) | (np.diff(n2[order]) != 0)) + 1
    groups = {
        (int(n1[order[lo]]), int(n2[order[lo]])): (int(lo), int(hi))
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, m])
    }
    window = 1.01 * limits[0]
    for start in range(0, m, _JOIN_BLOCK):
        rows: list[np.ndarray] = []
        partners: list[np.ndarray] = []
        for i in range(start, min(start + _JOIN_BLOCK, m)):
            for crossed, target, key in (
                (False, feats[i], (int(n1[i]), int(n2[i]))),
                (True, swapped[i], (int(n2[i]), int(n1[i]))),
            ):
                lo, hi = groups.get(key, (0, 0))
                lo, hi = lo + np.searchsorted(
                    sorted_area1[lo:hi], (target[0] - window, target[0] + window)
                )
                ok = (np.abs(sorted_feats[lo:hi] - target) <= limits).all(axis=1)
                js = order[lo:hi][ok]
                rows.append(np.full(len(js), 2 * i + crossed))
                partners.append(js)
        row = np.concatenate(rows)
        partner = np.concatenate(partners)
        perm = np.lexsort((partner, row))
        yield row[perm], partner[perm]


def _padded(rows: Sequence[Sequence[complex]], dtype: type) -> np.ndarray:
    """Rows of at most four values (a triangle's pieces have at most four
    vertices), zero-padded to width four."""
    out = np.zeros((len(rows), 4), dtype=dtype)
    for dst, src in zip(out, rows):
        dst[: len(src)] = src
    return out


def _batched_residual(zp: np.ndarray, zq: np.ndarray) -> np.ndarray:
    """_cyclic_residual for each row of two (batch, n) arrays of centred
    cycles, equal to it bit for bit: the complex arithmetic is spelled
    out in CPython's order of operations (product, hypot for abs, real
    and imaginary parts divided by the norm)."""
    n = zp.shape[1]
    pr, pi = zp.real, zp.imag
    best = np.full(len(zp), math.inf)
    for k in range(n):
        q = np.roll(zq, -k, axis=1)  # q[:, i] == zq[:, (i + k) % n]
        qr, qi = q.real, q.imag
        wr = np.zeros(len(zp))
        wi = np.zeros(len(zp))
        for i in range(n):
            # w += q * p.conjugate()
            wr = wr + (qr[:, i] * pr[:, i] - qi[:, i] * -pi[:, i])
            wi = wi + (qr[:, i] * -pi[:, i] + qi[:, i] * pr[:, i])
        norm = np.hypot(wr, wi)
        zero = norm == 0.0
        norm[zero] = 1.0
        rr = np.where(zero, 1.0, wr / norm)[:, None]
        ri = np.where(zero, 0.0, wi / norm)[:, None]
        err = np.hypot((pr * rr - pi * ri) - qr, (pr * ri + pi * rr) - qi)
        best = np.minimum(best, err.max(axis=1))
    return best


def _grouped_residual(zp: np.ndarray, zq: np.ndarray, n: np.ndarray) -> np.ndarray:
    """_batched_residual over rows of padded cycles whose lengths n vary."""
    out = np.empty(len(n))
    for k in np.unique(n):
        rows = n == k
        out[rows] = _batched_residual(zp[rows, :k], zq[rows, :k])
    return out


# A grid or refined hit: (s, t, s_box, t_box, crossed, residual).
_Hit = tuple[float, float, float, float, bool, float]


def _dedupe(rows: list[_Hit], radius: float, per: float) -> list[_Hit]:
    """Keep the lowest-residual row of each cluster of rows that agree on
    the assignment and sit within radius in every parameter, cyclically
    modulo the perimeter per."""
    rows = sorted(rows, key=lambda h: h[5])
    kept: list[_Hit] = []

    def close(a: float, b: float) -> bool:
        d = abs(a - b) % per
        return min(d, per - d) < radius

    # Kept rows are bucketed by cells at least 2 * radius wide on the
    # first two parameters, so a row within radius of a kept row sits in
    # the same or a cyclically neighbouring cell on both.
    cells = max(1, int(per / (2.0 * radius)))
    width = per / cells
    buckets: dict[tuple[int, int], list[_Hit]] = {}
    for h in rows:
        c0, c1 = (int((x % per) / width) for x in h[:2])
        near = {
            ((c0 + d0) % cells, (c1 + d1) % cells)
            for d0 in (-1, 0, 1)
            for d1 in (-1, 0, 1)
        }
        if any(
            h[4] == k[4] and all(close(h[x], k[x]) for x in range(4))
            for c in near
            for k in buckets.get(c, ())
        ):
            continue
        kept.append(h)
        buckets.setdefault((c0 % cells, c1 % cells), []).append(h)
    return kept


def _golden_line(
    f: Callable[[float], float],
    x0: float,
    f0: float,
    radius: float,
    iters: int = 48,
) -> tuple[float, float]:
    """Golden-section line search around x0 that never worsens f0."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = x0 - radius
    b = x0 + radius
    best_x, best_f = x0, f0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return best_x, best_f


def search_straight_cuts(
    spec: TriangleSpec,
    grid_n: int,
    tol: float = 1e-7,
    refine: bool = False,
    max_refine: int = 64,
    prefilters: bool = True,
    progress: Optional[Callable[[str, float], None]] = None,
) -> list[CutCandidate]:
    """Scan a boundary-parameter grid for straight two-piece mirror cuts.

    grid_n points are placed uniformly along the perimeter (the three
    vertices are always included), giving m grid splits.  Cake cut and
    box cut are paired by a sorted self-join: the splits are sorted once
    by piece vertex counts and first-piece area (O(m log m)), each split
    finds its partners by binary search in an area window, and only the
    window's members are screened by piece areas and edge-length
    multisets, which leaves the pairs an all-pairs screen would.  The
    window is wide (about a sixth of the splits at grid 64), so the
    screen still grows like m^2, but as numpy slices rather than masks
    over all m splits.  The survivors' best-fit congruence residuals
    are computed in numpy batches, equal bit for bit to the scalar
    residual.  With refine, each grid hit is polished by three sweeps of
    coordinate-wise golden-section descent; only the max_refine
    lowest-residual hits get that treatment, which bounds the cost on
    nearly mirror-symmetric cakes where near-misses abound.  Candidates
    survive only if their residual stays within tol * perimeter and the
    assembled dissection passes verify_nice at tol; results are sorted
    by (s, t, s_box, t_box).

    prefilters exists for testing: disabling it screens all m^2 pairs by
    the scalar residual, and must not change results.
    """
    if grid_n < 4:
        raise ValueError("grid_n must be at least 4")
    cake = construct_triangle(spec)
    axis = spec.side_c / 2.0
    cum = _vertex_params(cake)
    per = cum[-1]
    step = per / grid_n
    params = sorted({(i * per / grid_n) % per for i in range(grid_n)} | set(cum[:3]))

    def report(stage: str, frac: float) -> None:
        if progress is not None:
            progress(stage, frac)

    report("split", 0.0)
    splits: list[_Split] = []
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            sp = _make_split(cake, axis, params[i], params[j])
            if sp is not None:
                splits.append(sp)
    report("split", 1.0)
    if not splits:
        return []

    m = len(splits)
    n1 = np.array([len(sp.pieces[0]) for sp in splits])
    n2 = np.array([len(sp.pieces[1]) for sp in splits])
    area1 = np.array([sp.pieces[0].area for sp in splits])
    area2 = np.array([sp.pieces[1].area for sp in splits])

    edges1, edges2 = (
        _padded([sorted(sp.pieces[w].edge_lengths()) for sp in splits], float)
        for w in (0, 1)
    )

    # A true cut sits within half a grid step per parameter, so each
    # chord endpoint is off by at most half a step on the cake and half
    # a step on the box side: residual <= step, edge lengths off by at
    # most step, areas by at most step * diameter / 2.  The slacks add
    # margin on top of those bounds so no true hit is screened out.
    grid_tol = 1.05 * step
    slack_area = 0.8 * cake.diameter * step
    slack_len = 1.3 * step

    hits: list[_Hit] = []
    report("scan", 0.0)
    if not prefilters:
        # Brute force with the scalar residual: the reference that the
        # join below must reproduce.  The residual is measured cake split
        # -> mirrored box split, so splits[j] plays the cake role.
        for i, sp in enumerate(splits):
            for crossed in (False, True):
                for j in range(m):
                    res = _pair_residual(splits[j], sp, crossed)
                    if res <= grid_tol:
                        hits.append((splits[j].s, splits[j].t, sp.s, sp.t, crossed, res))
    else:
        # Pairs that pass the screen, scored in numpy batches in scan order.
        feats = np.column_stack([area1, area2, edges1, edges2])
        limits = np.array([slack_area] * 2 + [slack_len] * 8)
        # Grid splits serve only this scan, so their cycles go straight
        # into arrays and are not cached on the splits.
        z = [_padded([_cycle(sp.pieces[w]) for sp in splits], complex) for w in (0, 1)]
        mz = [
            _padded([_mirror_cycle(sp.pieces[w], axis) for sp in splits], complex)
            for w in (0, 1)
        ]
        for row, cake_idx in _self_join(n1, n2, feats, limits):
            box, swap = row // 2, row % 2 == 1
            res = np.maximum(
                _grouped_residual(
                    z[0][cake_idx],
                    np.where(swap[:, None], mz[1][box], mz[0][box]),
                    n1[cake_idx],
                ),
                _grouped_residual(
                    z[1][cake_idx],
                    np.where(swap[:, None], mz[0][box], mz[1][box]),
                    n2[cake_idx],
                ),
            )
            for x in np.flatnonzero(res <= grid_tol):
                a, b = splits[cake_idx[x]], splits[box[x]]
                hits.append((a.s, a.t, b.s, b.t, bool(swap[x]), float(res[x])))
    report("scan", 1.0)

    kept = _dedupe(hits, 1.25 * step, per)

    max_residual = tol * per
    refined: list[_Hit] = []
    for idx, h in enumerate(kept):
        report("refine", idx / max(1, len(kept)))
        vec = list(h[:4])
        crossed = h[4]
        value = h[5]
        if refine and idx < max_refine and value > 1e-3 * max_residual:
            for _ in range(3):
                for coord in range(4):
                    # Only one of the two splits changes along this line;
                    # build the other once.
                    if coord < 2:
                        fixed = _make_split(cake, axis, vec[2], vec[3])
                    else:
                        fixed = _make_split(cake, axis, vec[0], vec[1])
                    if fixed is None:
                        continue

                    def line(x: float, c: int = coord, fx: _Split = fixed) -> float:
                        if c < 2:
                            s_, t_ = (x, vec[1]) if c == 0 else (vec[0], x)
                            moved = _make_split(cake, axis, s_, t_)
                            if moved is None:
                                return math.inf
                            return _pair_residual(moved, fx, crossed)
                        s_, t_ = (x, vec[3]) if c == 2 else (vec[2], x)
                        moved = _make_split(cake, axis, s_, t_)
                        if moved is None:
                            return math.inf
                        return _pair_residual(fx, moved, crossed)

                    vec[coord], value = _golden_line(line, vec[coord], value, step)
        refined.append(
            (vec[0] % per, vec[1] % per, vec[2] % per, vec[3] % per, crossed, value)
        )
    report("refine", 1.0)
    refined = _dedupe(refined, step, per)

    # Final certification: assemble and verify end to end.
    out: list[CutCandidate] = []
    for s, t, sb, tb, crossed, res in refined:
        if res > max_residual:
            continue
        candidate = _certify(cake, axis, spec, s, t, sb, tb, crossed, tol)
        if candidate is not None:
            out.append(candidate)
    out.sort(key=lambda c: (c.s, c.t, c.s_box, c.t_box, c.crossed))
    report("done", 1.0)
    return out


def _certify(
    cake: Polygon,
    axis: float,
    spec: TriangleSpec,
    s: float,
    t: float,
    sb: float,
    tb: float,
    crossed: bool,
    tol: float,
) -> Optional[CutCandidate]:
    a = _make_split(cake, axis, s, t)
    b = _make_split(cake, axis, sb, tb)
    if a is None or b is None:
        return None
    res = _pair_residual(a, b, crossed)
    box_pieces = (b.pieces[1], b.pieces[0]) if crossed else b.pieces
    box_mirrored = [mirror_polygon(p, axis) for p in box_pieces]
    motions = recover_motions(
        list(a.pieces), box_mirrored, tol=max(10.0 * res, 1e-9 * cake.diameter)
    )
    if motions is None:
        return None
    try:
        d = Dissection(
            cake=cake,
            box=mirror_polygon(cake, axis),
            pieces=a.pieces,
            motions=tuple(motions),
            cut=Polyline((a.pieces[0].vertices[0], a.pieces[0].vertices[-1])),
            family="straight",
        )
    except ValueError:
        return None
    if not verify_nice(d, tol=tol).passed:
        return None
    return CutCandidate(s=s, t=t, s_box=sb, t_box=tb, crossed=crossed, residual=res)
