"""Small-integer relations between angles.

Bounded exhaustive scans, no lattice reduction: the coefficient ranges
that matter here are single digits, and an exhaustive scan is exact,
deterministic, and trivially auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "IntegerRelation",
    "MultipleWitness",
    "find_integer_relation",
    "is_multiple",
    "is_rational_angle",
]


@dataclass(frozen=True, slots=True)
class IntegerRelation:
    """Integers (k, l, m), not all zero, with k*alpha + l*beta + m*gamma ~ 0.

    Stored normalized: gcd(|k|, |l|, |m|) == 1 and the first nonzero
    coefficient is positive.
    """

    k: int
    l: int
    m: int
    residual: float

    def coefficients(self) -> tuple[int, int, int]:
        return (self.k, self.l, self.m)


@dataclass(frozen=True, slots=True)
class MultipleWitness:
    """Witness that psi == k*phi + l*180 within tolerance."""

    k: int
    l: int
    residual: float


def _normalize(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
    for c in coeffs:
        if c != 0:
            if c < 0:
                coeffs = tuple(-x for x in coeffs)
            break
    return coeffs


def find_integer_relation(
    alpha: float,
    beta: float,
    gamma: float,
    k_max: int = 10,
    tol: float = 1e-6,
) -> Optional[IntegerRelation]:
    """Exhaustive scan for k*alpha + l*beta + m*gamma == 0, |coeffs| <= k_max.

    Among all normalized relations within tol, returns the one minimizing
    (max absolute coefficient, then lexicographic order on (k, l, m)).
    Returns None when no bounded relation exists.

    For each (k, l) only the m that can bring the residual within tol
    are tried: the interval on which |k*alpha + l*beta + m*gamma| <= tol,
    solved for m and widened by 1 on each side for rounding.  That makes
    the scan O(k_max^2).  Every m is tried when gamma is not positive.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    every_m = range(-k_max, k_max + 1)

    def m_range(partial: float) -> range:
        if not gamma > 0.0:
            return every_m
        lo = (-partial - tol) / gamma - 1.0
        hi = (-partial + tol) / gamma + 1.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return every_m
        return range(max(-k_max, math.ceil(lo)), min(k_max, math.floor(hi)) + 1)

    seen: set[tuple[int, ...]] = set()
    best: Optional[tuple[tuple[int, int, int, int], IntegerRelation]] = None
    for k in range(-k_max, k_max + 1):
        for l in range(-k_max, k_max + 1):
            partial = k * alpha + l * beta
            for m in m_range(partial):
                if k == 0 and l == 0 and m == 0:
                    continue
                residual = partial + m * gamma
                if not abs(residual) <= tol:
                    continue
                norm = _normalize((k, l, m))
                if norm in seen:
                    continue
                seen.add(norm)
                nk, nl, nm = norm
                res = nk * alpha + nl * beta + nm * gamma
                key = (max(abs(nk), abs(nl), abs(nm)), nk, nl, nm)
                if best is None or key < best[0]:
                    best = (key, IntegerRelation(nk, nl, nm, res))
    return None if best is None else best[1]


def is_multiple(
    psi: float,
    phi: float,
    k_max: int = 8,
    l_max: int = 2,
    tol: float = 1e-6,
) -> Optional[MultipleWitness]:
    """Witness for psi == k*phi + l*180 with |k| <= k_max, |l| <= l_max.

    Candidates are scanned in order of (|k|, |l|, k, l) so the returned
    witness is the smallest one.  Returns None if nothing fits.
    """
    candidates = sorted(
        (
            (abs(k), abs(l), k, l)
            for k in range(-k_max, k_max + 1)
            for l in range(-l_max, l_max + 1)
        ),
    )
    for _, _, k, l in candidates:
        residual = psi - k * phi - l * 180.0
        if abs(residual) <= tol:
            return MultipleWitness(k, l, residual)
    return None


def is_rational_angle(
    psi: float,
    l_max: int = 180,
    tol: float = 1e-9,
) -> Optional[tuple[int, int]]:
    """Smallest l in [1, l_max] with psi == k*180/l; returns (k, l) reduced.

    The acceptance test scales with the denominator: l*psi must land
    within tol*l degrees of a multiple of 180.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    for l in range(1, l_max + 1):
        scaled = psi * l / 180.0
        k = round(scaled)
        if abs(scaled - k) * 180.0 <= tol * l:
            g = math.gcd(abs(k), l)
            if g > 1:
                k, l = k // g, l // g
            return (k, l)
    return None
