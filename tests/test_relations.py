"""Integer angle relations and rational-multiple witnesses."""

from __future__ import annotations

import math
import random
from typing import Optional

import pytest

from mirrorcut.relations import (
    IntegerRelation,
    find_integer_relation,
    is_multiple,
    is_rational_angle,
)


class TestFindIntegerRelation:
    def test_scissors_angles(self) -> None:
        rel = find_integer_relation(30.0, 20.0, 130.0)
        assert rel is not None
        assert rel.coefficients() == (2, -3, 0)
        assert rel.residual == pytest.approx(0.0, abs=1e-12)

    def test_right_triangle_relation(self) -> None:
        rel = find_integer_relation(90.0, 55.0, 35.0)
        assert rel is not None
        assert rel.coefficients() == (1, -1, -1)

    def test_wheel_family_relation(self) -> None:
        # n*alpha = (n+1)*beta pins down the family for any n.
        for n in range(1, 5):
            beta = 30.0
            alpha = (n + 1) * beta / n
            gamma = 180.0 - alpha - beta
            rel = find_integer_relation(alpha, beta, gamma)
            assert rel is not None
            k, l, m = rel.coefficients()
            assert (k * alpha + l * beta + m * gamma) == pytest.approx(0.0, abs=1e-9)

    def test_planted_relation_oracle(self) -> None:
        # Plant k*alpha = l*beta with random small k, l and check the
        # minimal recovered relation reproduces the plant (up to the
        # shared scaling that normalization fixes).
        rng = random.Random(99)
        for _ in range(25):
            k = rng.randint(1, 5)
            l = rng.randint(1, 5)
            g = math.gcd(k, l)
            k, l = k // g, l // g
            beta = rng.uniform(5.0, 40.0)
            alpha = l * beta / k
            gamma = 180.0 - alpha - beta
            if gamma <= 0.1 or abs(alpha - beta) < 0.1:
                continue
            rel = find_integer_relation(alpha, beta, gamma, tol=1e-9)
            assert rel is not None
            ck, cl, cm = rel.coefficients()
            assert abs(ck * alpha + cl * beta + cm * gamma) <= 1e-9 * max(1, abs(ck), abs(cl), abs(cm))

    def test_rational_decimals_always_relate(self) -> None:
        # Decimal angle data is secretly commensurable: these angles
        # satisfy 7*alpha - beta - 10*gamma = 0 exactly.
        rel = find_integer_relation(83.7, 41.9, 54.4)
        assert rel is not None
        k, l, m = rel.coefficients()
        assert k * 83.7 + l * 41.9 + m * 54.4 == pytest.approx(0.0, abs=1e-9)

    def test_independent_angles_have_none(self) -> None:
        # 180/pi and 10*sqrt(17) are rationally independent of each other
        # and of 180, so no integer combination can vanish.
        alpha = math.degrees(1.0)
        beta = 10.0 * math.sqrt(17.0)
        gamma = 180.0 - alpha - beta
        assert find_integer_relation(alpha, beta, gamma, tol=1e-9) is None

    def test_normalization_sign_and_gcd(self) -> None:
        rel = find_integer_relation(30.0, 20.0, 130.0)
        assert rel is not None
        k, l, m = rel.coefficients()
        assert k > 0  # first nonzero coefficient is positive
        assert math.gcd(math.gcd(abs(k), abs(l)), abs(m)) == 1

    def test_minimality_prefers_small_coefficients(self) -> None:
        # 60/30/90 satisfies many relations; the minimal one has
        # max coefficient 1: beta - ... take alpha=60, beta=30, gamma=90:
        # 1*alpha - 2*beta = 0 and 1*alpha + 1*beta - 1*gamma = 0 both
        # have max 2 and 1; expect max-coefficient 1 first.
        rel = find_integer_relation(60.0, 30.0, 90.0)
        assert rel is not None
        k, l, m = rel.coefficients()
        assert max(abs(k), abs(l), abs(m)) == 1
        assert abs(k * 60.0 + l * 30.0 + m * 90.0) < 1e-9


def _triple_loop_relation(
    alpha: float, beta: float, gamma: float, k_max: int, tol: float
) -> Optional[IntegerRelation]:
    """The scan over every (k, l, m), as a reference for the solved m."""
    seen: set[tuple[int, int, int]] = set()
    best = None
    for k in range(-k_max, k_max + 1):
        for l in range(-k_max, k_max + 1):
            for m in range(-k_max, k_max + 1):
                if (k, l, m) == (0, 0, 0):
                    continue
                if not abs(k * alpha + l * beta + m * gamma) <= tol:
                    continue
                g = math.gcd(math.gcd(abs(k), abs(l)), abs(m))
                norm = (k // g, l // g, m // g)
                if next(c for c in norm if c != 0) < 0:
                    norm = (-norm[0], -norm[1], -norm[2])
                if norm in seen:
                    continue
                seen.add(norm)
                nk, nl, nm = norm
                key = (max(abs(nk), abs(nl), abs(nm)), nk, nl, nm)
                if best is None or key < best[0]:
                    best = (key, IntegerRelation(nk, nl, nm, nk * alpha + nl * beta + nm * gamma))
    return None if best is None else best[1]


def _relation_sample() -> list[tuple[float, float]]:
    """Seeded (alpha, beta) pairs: generic ones, and ones on the lines
    alpha = 2*beta, alpha = 3*beta and alpha = beta + gamma, with and
    without a small offset."""
    rng = random.Random(21)
    out = []
    for _ in range(12):
        alpha = rng.uniform(1.0, 170.0)
        out.append((alpha, rng.uniform(0.5, 179.0 - alpha)))
    for _ in range(6):
        beta = rng.uniform(1.0, 44.0)
        offset = rng.choice([0.0, 1e-7, 1e-3, 0.3])
        out += [(2.0 * beta + offset, beta), (3.0 * beta + offset, beta), (90.0 + offset, beta)]
    return out


@pytest.mark.parametrize("tol", [1e-6, 1e-2, 1.0])
@pytest.mark.parametrize("k_max", [1, 3, 10])
def test_solved_m_matches_the_triple_loop(k_max: int, tol: float) -> None:
    for alpha, beta in _relation_sample():
        gamma = 180.0 - alpha - beta
        assert find_integer_relation(alpha, beta, gamma, k_max=k_max, tol=tol) == (
            _triple_loop_relation(alpha, beta, gamma, k_max, tol)
        ), (alpha, beta)


def test_nan_angle_has_no_relation() -> None:
    # A NaN residual fails every comparison; it must not pass as a relation.
    assert find_integer_relation(30.0, 20.0, math.nan) is None


def test_nonpositive_gamma_scans_every_m() -> None:
    # repr, so that a NaN residual compares equal to itself.
    for alpha, beta, gamma in [(100.0, 80.0, 0.0), (120.0, 80.0, -20.0), (30.0, 20.0, math.nan)]:
        assert repr(find_integer_relation(alpha, beta, gamma, k_max=4, tol=1e-6)) == repr(
            _triple_loop_relation(alpha, beta, gamma, 4, 1e-6)
        )


class TestIsMultiple:
    def test_exact_multiple(self) -> None:
        w = is_multiple(60.0, 10.0)
        assert w is not None
        assert w.k * 10.0 + w.l * 180.0 == pytest.approx(60.0, abs=1e-9)

    def test_multiple_with_half_turns(self) -> None:
        # 200 = 2*10 + 1*180.
        w = is_multiple(200.0, 10.0)
        assert w is not None
        assert w.k * 10.0 + w.l * 180.0 == pytest.approx(200.0, abs=1e-9)

    def test_non_multiple(self) -> None:
        assert is_multiple(7.3, 10.0, k_max=8, l_max=2, tol=1e-6) is None

    def test_smallest_witness_preferred(self) -> None:
        # 0 admits k=0 and also k=18 for phi=10 with l=-1; expect k=0.
        w = is_multiple(0.0, 10.0)
        assert w is not None
        assert (w.k, w.l) == (0, 0)


class TestIsRationalAngle:
    def test_rational_cases(self) -> None:
        assert is_rational_angle(90.0) == (1, 2)
        assert is_rational_angle(10.0) == (1, 18)
        assert is_rational_angle(240.0) == (4, 3)

    def test_irrational_case(self) -> None:
        psi = math.degrees(1.0)  # one radian is no rational turn
        assert is_rational_angle(psi, l_max=360) is None

    def test_zero(self) -> None:
        assert is_rational_angle(0.0) == (0, 1)
