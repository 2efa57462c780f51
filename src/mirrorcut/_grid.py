"""The grid scan behind search_straight_cuts without refine.

grid_n points are placed uniformly along the cake's perimeter, the three
vertices always among them, and every chord between two of them that
splits the cake is a grid split.  Each pair of grid splits (cake split,
box split) is a candidate cut.  The pairs are screened by a sorted
self-join on piece areas and sorted edge lengths, and the survivors'
congruence residuals are computed in numpy batches.

Only the grid scan needs numpy, and search_straight_cuts imports this
module on that path alone, so the rest of the package runs without it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .geom import Polygon
from .search import (
    _Hit,
    _Split,
    _cycle,
    _dedupe,
    _make_split,
    _mirror_cycle,
    _pair_residual,
    _vertex_params,
)


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


def _scan_bounds(cake: Polygon, step: float) -> tuple[float, float, float]:
    """The grid scan's residual bound, and the slacks within which the
    join pairs two splits' piece areas and sorted edge lengths.

    A true cut sits within half a grid step per parameter, so each chord
    endpoint is off by at most half a step on the cake and half a step
    on the box side: residual <= step, edge lengths off by at most step,
    areas by at most step * diameter / 2.  The slacks add margin on top
    of those bounds so no true hit is screened out.
    """
    return 1.05 * step, 0.8 * cake.diameter * step, 1.3 * step


def _grid_hits(
    cake: Polygon, axis: float, splits: list[_Split], step: float, prefilters: bool
) -> list[_Hit]:
    """Pairs of grid splits (cake split, box split) whose residual is
    within the grid bound, in the order of the brute-force scan: box
    split, then assignment, then cake split.  With prefilters, only the
    pairs whose piece areas and sorted edge lengths are within the
    slacks of _scan_bounds are scored; residuals are equal bit for bit."""
    grid_tol, slack_area, slack_len = _scan_bounds(cake, step)
    hits: list[_Hit] = []
    if not prefilters:
        # Brute force with the scalar residual over every pair, the
        # reference for the join below.  The residual is measured cake
        # split -> mirrored box split, so splits[j] plays the cake role.
        for i, sp in enumerate(splits):
            for crossed in (False, True):
                for j in range(len(splits)):
                    res = _pair_residual(splits[j], sp, crossed)
                    if res <= grid_tol:
                        hits.append((splits[j].s, splits[j].t, sp.s, sp.t, crossed, res))
    else:
        # Pairs that pass the screen, scored in numpy batches in scan order.
        n1 = np.array([len(sp.pieces[0]) for sp in splits])
        n2 = np.array([len(sp.pieces[1]) for sp in splits])
        feats = np.column_stack([
            [sp.pieces[0].area for sp in splits],
            [sp.pieces[1].area for sp in splits],
            *(
                _padded([sorted(sp.pieces[w].edge_lengths()) for sp in splits], float)
                for w in (0, 1)
            ),
        ])
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
    return hits


def grid_rows(
    cake: Polygon,
    axis: float,
    grid_n: int,
    tol: float,
    prefilters: bool,
    report: Callable[[str, float], None],
) -> list[_Hit]:
    """Grid hits within tol * perimeter, one per cluster of hits closer
    than 1.25 grid steps, reporting the split and scan stages."""
    cum = _vertex_params(cake)
    per = cum[-1]
    step = per / grid_n
    params = sorted({(i * per / grid_n) % per for i in range(grid_n)} | set(cum[:3]))

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

    report("scan", 0.0)
    hits = _grid_hits(cake, axis, splits, step, prefilters)
    report("scan", 1.0)

    # Rows above the bound never decide which row a cluster keeps (the
    # lowest residual wins), so they are dropped before clustering.
    max_residual = tol * per
    return _dedupe([h for h in hits if h[5] <= max_residual], 1.25 * step, per)
