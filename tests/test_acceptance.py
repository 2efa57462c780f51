"""Acceptance gate for the cake-to-mirror-image dissection toolkit.

Each test covers one shipping criterion and prints a single PASS/FAIL
line (run with -s or -rA to see them all).  Tolerances are pinned as
module constants; loosening any of them is a release decision, not a
test fix.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time
from typing import Callable

import pytest

from mirrorcut import (
    Dissection,
    DirectedLine,
    IllDefinedFunctionalError,
    Polygon,
    RigidMotion,
    TriangleSpec,
    construct_triangle,
    cut_2beta_acute,
    cut_2beta_obtuse,
    cut_alpha_3beta,
    cut_gear,
    cut_incenter3,
    cut_median,
    cut_scissors,
    cut_wheel,
    parse_certificate,
    search_straight_cuts,
    serialize_certificate,
    verify_nice,
)
from mirrorcut.invariants import j_classic, orbit_functional
from mirrorcut.verifier import claim_angle_checks, theorem1_check

REL_AREA_TOL = 1e-9          # area defect / overlap, relative to cake area
RELATION_TOL_DEG = 1e-6      # angle-relation residual bound, degrees
RELATION_COEFF_MAX = 5       # largest |coefficient| allowed in a witness
ADDITIVITY_TOL = 1e-9        # invariant additivity, relative to perimeter
AB_INVARIANT_TOL = 1e-9      # absolute, the AB invariant values are exact sums
ANGLE_TOL_DEG = 1e-9         # hexagon interior angles
WITNESS_K_MAX = 8            # |k| bound for multiple-of-phi witnesses
WITNESS_L_MAX = 2            # |l| bound for multiple-of-phi witnesses
SEARCH_MATCH_TOL = 1e-6      # cut-parameter match, relative to perimeter
PERTURB_EPS = 1e-6           # vertex displacement, relative to diameter
PER_DISSECTION_BUDGET = 1.0  # seconds, build + verify
ADDITIVITY_BUDGET = 5.0      # seconds, the whole invariant sweep
SEARCH_BUDGET = 600.0        # seconds per searched triangle

# One beta per tooth count.  n=2 is pinned to (30, 20) because the
# relation criterion singles that triangle out; the rest keep alpha
# and beta commensurate so a witness with coefficients <= 5 exists
# (the generic wheel relation n*alpha - (n+1)*beta = 0 would need a
# coefficient of n+1, which is too large once n > 4).
WHEEL_BETA = {1: 40.0, 2: 20.0, 3: 30.0, 4: 40.0, 5: 50.0, 6: 60.0}


def criterion(num: int, label: str) -> Callable:
    """Emit exactly one PASS/FAIL line per criterion."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {num:2d} ({label}): PASS")

        return run

    return wrap


def random_scalene(rng: random.Random, margin: float = 2.0) -> TriangleSpec:
    while True:
        alpha = rng.uniform(25.0, 110.0)
        beta = rng.uniform(20.0, min(160.0 - alpha, 85.0))
        gamma = 180.0 - alpha - beta
        gaps = (abs(alpha - beta), abs(beta - gamma), abs(alpha - gamma))
        if min(gaps) > margin:
            return TriangleSpec(alpha, beta)


def _median_specs(count: int, rng: random.Random) -> list[TriangleSpec]:
    out = []
    while len(out) < count:
        beta = rng.uniform(20.0, 70.0)
        if abs(beta - 45.0) > 1.0:
            out.append(TriangleSpec(90.0, beta))
    return out


def _alpha3beta_specs(count: int, rng: random.Random) -> list[TriangleSpec]:
    # gamma = 180 - 4*beta; keep the triangle scalene with a margin, so
    # stay away from beta = 180/7 (gamma = alpha) and beta = 36 (gamma = beta)
    out = []
    while len(out) < count:
        beta = rng.uniform(6.0, 44.0)
        if min(abs(beta - 180.0 / 7.0), abs(beta - 36.0)) > 0.5:
            out.append(TriangleSpec(3.0 * beta, beta))
    return out


def _2beta_acute_specs(count: int, rng: random.Random) -> list[TriangleSpec]:
    out = []
    while len(out) < count:
        beta = rng.uniform(10.0, 44.0)
        if abs(beta - 36.0) > 0.5:  # gamma = alpha there
            out.append(TriangleSpec(2.0 * beta, beta))
    return out


def _2beta_obtuse_specs(count: int, rng: random.Random) -> list[TriangleSpec]:
    return [TriangleSpec(2.0 * b, b) for b in (rng.uniform(46.0, 59.0) for _ in range(count))]


def two_piece_constructions() -> list[tuple[str, Dissection]]:
    """The deterministic battery of every two-piece family we ship."""
    rng = random.Random(20260815)
    cases: list[tuple[str, Dissection]] = []
    cases += [("median", cut_median(s)) for s in _median_specs(10, rng)]
    cases += [("alpha3beta", cut_alpha_3beta(s)) for s in _alpha3beta_specs(10, rng)]
    cases += [("twobeta-acute", cut_2beta_acute(s)) for s in _2beta_acute_specs(10, rng)]
    cases += [("twobeta-obtuse", cut_2beta_obtuse(s)) for s in _2beta_obtuse_specs(10, rng)]
    for n, beta in WHEEL_BETA.items():
        spec = TriangleSpec((n + 1) * beta / n, beta)
        assert (2 * n + 1) * (spec.alpha - spec.beta) < 360.0
        cases.append((f"wheel-{n}", cut_wheel(spec, n=n)))
        cases.append((f"gear-{n}", cut_gear(spec, n=n)))
    cases.append(("scissors", cut_scissors(TriangleSpec(30.0, 20.0))))
    return cases


def one_of_each_family() -> list[tuple[str, Dissection]]:
    return [
        ("incenter3", cut_incenter3(TriangleSpec(80.0, 60.0))),
        ("median", cut_median(TriangleSpec(90.0, 55.0))),
        ("alpha3beta", cut_alpha_3beta(TriangleSpec(75.0, 25.0))),
        ("twobeta-acute", cut_2beta_acute(TriangleSpec(80.0, 40.0))),
        ("twobeta-obtuse", cut_2beta_obtuse(TriangleSpec(100.0, 50.0))),
        ("wheel", cut_wheel(TriangleSpec(30.0, 20.0), n=2)),
        ("gear", cut_gear(TriangleSpec(40.0, 30.0), n=3)),
        ("scissors", cut_scissors(TriangleSpec(30.0, 20.0))),
    ]


@criterion(1, "construction soundness")
def test_c01_construction_soundness():
    rng = random.Random(101)
    builders: list[tuple[str, Callable[[], Dissection]]] = []
    for _ in range(20):
        s = random_scalene(rng)
        builders.append(("incenter3", lambda s=s: cut_incenter3(s)))
    for s in _median_specs(10, rng):
        builders.append(("median", lambda s=s: cut_median(s)))
    for s in _alpha3beta_specs(10, rng):
        builders.append(("alpha3beta", lambda s=s: cut_alpha_3beta(s)))
    for s in _2beta_acute_specs(10, rng):
        builders.append(("twobeta-acute", lambda s=s: cut_2beta_acute(s)))
    for s in _2beta_obtuse_specs(10, rng):
        builders.append(("twobeta-obtuse", lambda s=s: cut_2beta_obtuse(s)))
    for n, beta in WHEEL_BETA.items():
        spec = TriangleSpec((n + 1) * beta / n, beta)
        assert (2 * n + 1) * (spec.alpha - spec.beta) < 360.0
        builders.append((f"wheel-{n}", lambda spec=spec, n=n: cut_wheel(spec, n=n)))
        builders.append((f"gear-{n}", lambda spec=spec, n=n: cut_gear(spec, n=n)))
    builders.append(("scissors", lambda: cut_scissors(TriangleSpec(30.0, 20.0))))

    for name, build in builders:
        start = time.perf_counter()
        d = build()
        report = verify_nice(d)
        elapsed = time.perf_counter() - start
        area = d.cake.area
        assert report.passed, f"{name}: {report}"
        assert abs(report.area_defect) <= REL_AREA_TOL * area, name
        assert report.max_overlap_area <= REL_AREA_TOL * area, name
        assert elapsed < PER_DISSECTION_BUDGET, f"{name} took {elapsed:.3f}s"


@criterion(2, "two-piece angle relation")
def test_c02_two_piece_relation():
    for name, d in two_piece_constructions():
        rel = theorem1_check(d, tol=RELATION_TOL_DEG)
        assert rel is not None, f"{name}: no integer relation found"
        k, l, m = rel.coefficients()
        assert max(abs(k), abs(l), abs(m)) <= RELATION_COEFF_MAX, (name, (k, l, m))
    # the (30, 20) wheel and gear must land on 2*alpha - 3*beta = 0 exactly
    for build in (cut_wheel, cut_gear):
        d = build(TriangleSpec(30.0, 20.0), n=2)
        rel = theorem1_check(d, tol=RELATION_TOL_DEG)
        assert rel is not None and rel.coefficients() == (2, -3, 0), rel


@criterion(3, "invariant additivity")
def test_c03_invariant_additivity():
    rng = random.Random(303)
    start = time.perf_counter()
    for _ in range(100):
        d = cut_incenter3(random_scalene(rng))
        verts = d.cake.vertices
        per = d.cake.perimeter
        for i in range(3):
            f = DirectedLine.through(verts[i], verts[(i + 1) % 3])
            whole = j_classic(d.cake, f)
            parts = sum(j_classic(p, f) for p in d.pieces)
            assert abs(whole - parts) <= ADDITIVITY_TOL * per
    elapsed = time.perf_counter() - start
    assert elapsed < ADDITIVITY_BUDGET, f"sweep took {elapsed:.2f}s"


@criterion(4, "translation obstruction")
def test_c04_translation_obstruction():
    rng = random.Random(404)
    f_ab = DirectedLine.through(complex(0.0, 0.0), complex(1.0, 0.0))
    theta = math.radians(30.0)
    cos2, sin2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    for _ in range(100):
        spec = dataclasses.replace(random_scalene(rng), side_c=rng.uniform(0.5, 3.0))
        cake = construct_triangle(spec)
        c = spec.side_c
        assert abs(j_classic(cake, f_ab) - c) <= AB_INVARIANT_TOL
        # reflect across the AB line itself: the AB side reverses, J flips sign
        across_ab = Polygon(tuple(complex(v.real, -v.imag) for v in reversed(cake.vertices)))
        assert abs(j_classic(across_ab, f_ab) + c) <= AB_INVARIANT_TOL
        # reflect across an oblique axis: no box side stays parallel to AB
        oblique = Polygon(
            tuple(
                complex(cos2 * v.real + sin2 * v.imag, sin2 * v.real - cos2 * v.imag)
                for v in reversed(cake.vertices)
            )
        )
        assert abs(j_classic(oblique, f_ab)) <= AB_INVARIANT_TOL
        # either way the box invariant differs from the cake's |AB| > 0,
        # which is what rules out translation-only reassembly
        assert c > 0.25


def _interior_angles(p: Polygon) -> list[float]:
    vs = p.vertices
    n = len(vs)
    out = []
    for i in range(n):
        a, b, c = vs[i - 1], vs[i], vs[(i + 1) % n]
        u = (c.real - b.real, c.imag - b.imag)
        w = (a.real - b.real, a.imag - b.imag)
        ang = math.degrees(math.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1]))
        out.append(ang % 360.0)
    return sorted(out)


@criterion(5, "wheel hexagon angles")
def test_c05_wheel_hexagon_angles():
    alpha, beta = 30.0, 20.0
    d = cut_wheel(TriangleSpec(alpha, beta), n=2)
    expected = sorted([beta, beta] + [180.0 - alpha + beta] * 4)
    matched = None
    for p in d.pieces:
        if len(p.vertices) != 6:
            continue
        angles = _interior_angles(p)
        if all(abs(a - e) <= ANGLE_TOL_DEG for a, e in zip(angles, expected)):
            matched = angles
            break
    assert matched is not None, "no piece carries the expected angle multiset"
    assert abs(sum(matched) - 720.0) <= ANGLE_TOL_DEG


@criterion(6, "rotation-claim suite")
def test_c06_claim_suite():
    for name, d in two_piece_constructions():
        rep = claim_angle_checks(d, k_max=WITNESS_K_MAX, l_max=WITNESS_L_MAX)
        assert rep.sides_through_center <= 1, (name, rep.sides_through_center)
        if rep.no_rotation:
            continue
        if rep.ab_precondition_holds:
            w = rep.ab_multiple
            assert w is not None, f"{name}: AB-image witness missing"
            assert abs(w.k) <= WITNESS_K_MAX and abs(w.l) <= WITNESS_L_MAX, (name, w)
        if rep.two_alpha_precondition_holds:
            w = rep.two_alpha_multiple
            assert w is not None, f"{name}: 2*alpha witness missing"
            assert abs(w.k) <= WITNESS_K_MAX and abs(w.l) <= WITNESS_L_MAX, (name, w)


@criterion(7, "ill-defined orbit functional")
def test_c07_orbit_functional_on_ab_raises():
    ab = DirectedLine.through(complex(0.0, 0.0), complex(1.0, 0.0))
    half_turn_on_ab = RigidMotion.rotation_about(complex(0.7, 0.0), 180.0)
    with pytest.raises(IllDefinedFunctionalError):
        orbit_functional(half_turn_on_ab, ab)
    # control: the same half turn centered off the line is fine
    off = RigidMotion.rotation_about(complex(0.7, 0.3), 180.0)
    assert orbit_functional(off, ab) is not None


def _cyclic_gap(x: float, y: float, period: float) -> float:
    g = abs(x - y) % period
    return min(g, period - g)


def _assert_found(spec: TriangleSpec, s_target: float, t_target: float) -> None:
    cake = construct_triangle(spec)
    per = cake.perimeter
    start = time.perf_counter()
    found = search_straight_cuts(spec)
    elapsed = time.perf_counter() - start
    assert elapsed <= SEARCH_BUDGET, f"search took {elapsed:.1f}s"
    tol = SEARCH_MATCH_TOL * per
    hit = any(
        _cyclic_gap(c.s, s_target, per) <= tol and _cyclic_gap(c.t, t_target, per) <= tol
        for c in found
    )
    assert hit, f"no candidate near ({s_target:.6f}, {t_target:.6f}): {found[:4]}"


@criterion(8, "search rediscovery")
def test_c08_search_rediscovery():
    # right scalene: the cut joins vertex A to the midpoint of BC
    spec = TriangleSpec(90.0, 55.0)
    a_len = math.sin(math.radians(90.0)) / math.sin(math.radians(35.0))
    _assert_found(spec, 0.0, 1.0 + 0.5 * a_len)

    # alpha = 3*beta: the cut joins A to the point of BC at distance
    # c / (2*cos beta) from B
    spec = TriangleSpec(75.0, 25.0)
    _assert_found(spec, 0.0, 1.0 + 0.5 / math.cos(math.radians(25.0)))

    # a generic triangle admits no straight nice cut
    start = time.perf_counter()
    found = search_straight_cuts(TriangleSpec(83.7, 41.9))
    assert time.perf_counter() - start <= SEARCH_BUDGET
    assert found == []


@criterion(9, "certificate determinism")
def test_c09_certificate_determinism():
    for name, d in one_of_each_family():
        blob = serialize_certificate(d)
        again = parse_certificate(blob)
        assert serialize_certificate(again) == blob, f"{name}: bytes drifted"
        assert verify_nice(again).passed == verify_nice(d).passed, name


@criterion(10, "perturbation sensitivity")
def test_c10_perturbation_sensitivity():
    for name, d in one_of_each_family():
        assert verify_nice(d).passed, name
        eps = PERTURB_EPS * d.cake.diameter
        p0 = d.pieces[0]
        moved = Polygon((complex(p0.vertices[0].real + eps, p0.vertices[0].imag),) + p0.vertices[1:])
        broken = dataclasses.replace(d, pieces=(moved,) + d.pieces[1:])
        assert not verify_nice(broken).passed, f"{name}: perturbation went unnoticed"
