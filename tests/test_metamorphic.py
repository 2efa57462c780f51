"""Metamorphic properties of verify_nice on every family.

An honest certificate must stay NICE under changes that do not alter
what it proves: a global proper motion or reflection, relabelling, and
scaling by a power of two.  It must stop being NICE under changes that
break the dissection: the forgeries of test_verifier, a dropped or
duplicated piece, a motion's angle moved by 1e-6 of a turn, and a piece
swapped for its mirror image.  Example counts are kept small, since every
example runs the verifier.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from typing import Callable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorcut.constructions import (
    Dissection,
    cut_2beta_acute,
    cut_2beta_obtuse,
    cut_alpha_3beta,
    cut_gear,
    cut_incenter3,
    cut_median,
    cut_scissors,
    cut_wheel,
)
from mirrorcut.geom import Polygon, RigidMotion, TriangleSpec, apply_motion, dist, find_motion
from mirrorcut.verifier import verify_nice
from test_acceptance import (
    WHEEL_BETA,
    _2beta_acute_specs,
    _2beta_obtuse_specs,
    _alpha3beta_specs,
    _median_specs,
    random_scalene,
)
from test_verifier import box_moved, isosceles_dissection, one_piece_identity


@functools.cache
def _toothed(build: Callable[..., Dissection], n: int) -> Dissection:
    beta = WHEEL_BETA[n]
    return build(TriangleSpec((n + 1) * beta / n, beta), n=n)


# Each family's dissection at a spec drawn from the acceptance generators.
FAMILIES: dict[str, Callable[[random.Random], Dissection]] = {
    "incenter3": lambda rng: cut_incenter3(random_scalene(rng)),
    "median": lambda rng: cut_median(_median_specs(1, rng)[0]),
    "alpha3beta": lambda rng: cut_alpha_3beta(_alpha3beta_specs(1, rng)[0]),
    "twobeta-acute": lambda rng: cut_2beta_acute(_2beta_acute_specs(1, rng)[0]),
    "twobeta-obtuse": lambda rng: cut_2beta_obtuse(_2beta_obtuse_specs(1, rng)[0]),
    "wheel": lambda rng: _toothed(cut_wheel, rng.choice(sorted(WHEEL_BETA))),
    "gear": lambda rng: _toothed(cut_gear, rng.choice(sorted(WHEEL_BETA))),
    "scissors": lambda rng: cut_scissors(TriangleSpec(30.0, 20.0)),
}

every_family = pytest.mark.parametrize("family", sorted(FAMILIES))
few = settings(max_examples=3, deadline=None)
angles = st.floats(0.0, 360.0, exclude_max=True)
offsets = st.floats(-3.0, 3.0)


@st.composite
def dissections(draw: st.DrawFn, family: str) -> Dissection:
    return FAMILIES[family](draw(st.randoms(use_true_random=False)))


def _nice(d: Dissection) -> bool:
    return verify_nice(d).passed


def _transformed(
    d: Dissection,
    point: Callable[[complex], complex],
    motion: Callable[[RigidMotion], RigidMotion],
    reverse: bool = False,
) -> Dissection:
    def poly(p: Polygon) -> Polygon:
        verts = [point(v) for v in p.vertices]
        return Polygon(tuple(reversed(verts) if reverse else verts))

    return dataclasses.replace(
        d,
        cake=poly(d.cake),
        box=poly(d.box),
        pieces=tuple(poly(p) for p in d.pieces),
        motions=tuple(motion(m) for m in d.motions),
        cut=None,
    )


def _relabelled(p: Polygon, shift: int) -> Polygon:
    k = shift % len(p)
    return Polygon(p.vertices[k:] + p.vertices[:k])


# -- invariances ---------------------------------------------------------------


@every_family
@few
@given(data=st.data(), phi=angles, tx=offsets, ty=offsets)
def test_global_proper_motion_keeps_nice(family: str, data, phi: float, tx: float, ty: float) -> None:
    d = data.draw(dissections(family))
    g = RigidMotion(phi, complex(tx, ty))
    g_inv = g.inverse()
    moved = _transformed(d, g.apply, lambda m: g.compose(m.compose(g_inv)))
    assert _nice(moved)


@every_family
@few
@given(data=st.data())
def test_global_reflection_keeps_nice(family: str, data) -> None:
    # Across the x-axis: a motion p -> R(phi) p + t becomes
    # p -> R(-phi) p + (t_x, -t_y), and every polygon is reversed to stay
    # counterclockwise.
    d = data.draw(dissections(family))
    reflected = _transformed(
        d,
        lambda v: complex(v.real, -v.imag),
        lambda m: RigidMotion(-m.phi, complex(m.translation.real, -m.translation.imag)),
        reverse=True,
    )
    assert _nice(reflected)


@every_family
@few
@given(data=st.data())
def test_piece_permutation_keeps_nice(family: str, data) -> None:
    d = data.draw(dissections(family))
    order = data.draw(st.permutations(range(len(d.pieces))))
    permuted = dataclasses.replace(
        d,
        pieces=tuple(d.pieces[i] for i in order),
        motions=tuple(d.motions[i] for i in order),
    )
    assert _nice(permuted)


@every_family
@few
@given(data=st.data())
def test_cyclic_relabelling_keeps_nice(family: str, data) -> None:
    d = data.draw(dissections(family))
    shift = st.integers(0, 40)
    relabelled = dataclasses.replace(
        d,
        cake=_relabelled(d.cake, data.draw(shift)),
        box=_relabelled(d.box, data.draw(shift)),
        pieces=tuple(_relabelled(p, data.draw(shift)) for p in d.pieces),
    )
    assert _nice(relabelled)


@every_family
@few
@given(data=st.data(), k=st.integers(-4, 4))
def test_scaling_by_a_power_of_two_keeps_nice(family: str, data, k: int) -> None:
    d = data.draw(dissections(family))
    f = 2.0**k
    scaled = _transformed(
        d,
        lambda v: complex(f * v.real, f * v.imag),
        lambda m: RigidMotion(m.phi, complex(f * m.translation.real, f * m.translation.imag)),
    )
    assert _nice(scaled)


# -- mutations -----------------------------------------------------------------


@every_family
@few
@given(data=st.data(), phi=angles, tx=offsets, ty=offsets)
def test_box_moved_cake_is_rejected(family: str, data, phi: float, tx: float, ty: float) -> None:
    # Covers box = cake (the identity), translated and rotated.
    d = data.draw(dissections(family))
    assert not _nice(box_moved(d, RigidMotion(phi, complex(tx, ty))))


@every_family
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_one_piece_identity_is_rejected(family: str, data) -> None:
    assert not _nice(one_piece_identity(data.draw(dissections(family))))


@few
@given(apex=st.floats(5.0, 170.0))
def test_isosceles_cake_is_rejected(apex: float) -> None:
    assert not _nice(isosceles_dissection(apex))


@every_family
@few
@given(data=st.data())
def test_dropped_piece_is_rejected(family: str, data) -> None:
    d = data.draw(dissections(family))
    i = data.draw(st.integers(0, len(d.pieces) - 1))
    dropped = dataclasses.replace(
        d, pieces=d.pieces[:i] + d.pieces[i + 1 :], motions=d.motions[:i] + d.motions[i + 1 :]
    )
    assert not _nice(dropped)


@every_family
@few
@given(data=st.data())
def test_duplicated_piece_is_rejected(family: str, data) -> None:
    d = data.draw(dissections(family))
    i = data.draw(st.integers(0, len(d.pieces) - 1))
    doubled = dataclasses.replace(
        d, pieces=d.pieces + (d.pieces[i],), motions=d.motions + (d.motions[i],)
    )
    assert not _nice(doubled)


@every_family
@few
@given(data=st.data(), sign=st.sampled_from([-1.0, 1.0]))
def test_motion_angle_moved_by_a_millionth_turn_is_rejected(family: str, data, sign: float) -> None:
    d = data.draw(dissections(family))
    i = data.draw(st.integers(0, len(d.pieces) - 1))
    m = d.motions[i]
    nudged = RigidMotion(m.phi + sign * 360.0e-6, m.translation)
    assert not _nice(dataclasses.replace(d, motions=d.motions[:i] + (nudged,) + d.motions[i + 1 :]))


@every_family
@few
@given(data=st.data(), axis=st.sampled_from([0.0, 30.0, 45.0, 60.0, 90.0, 120.0, 135.0, 150.0]))
def test_piece_swapped_for_its_mirror_image_is_rejected(family: str, data, axis: float) -> None:
    # The piece is reflected across a line through its vertex centroid,
    # and its motion re-fitted onto its box piece where one exists.
    d = data.draw(dissections(family))
    i = data.draw(st.integers(0, len(d.pieces) - 1))
    piece = d.pieces[i]
    n = len(piece)
    cx = sum(v.real for v in piece.vertices) / n
    cy = sum(v.imag for v in piece.vertices) / n
    c, s = math.cos(math.radians(2.0 * axis)), math.sin(math.radians(2.0 * axis))
    mirrored = Polygon(tuple(
        complex(cx + c * (v.real - cx) + s * (v.imag - cy), cy + s * (v.real - cx) - c * (v.imag - cy))
        for v in reversed(piece.vertices)
    ))
    # Reflecting a piece across its own axis of symmetry changes nothing.
    assume(max(min(dist(v, w) for w in piece.vertices) for v in mirrored.vertices)
           > 1e-3 * d.cake.diameter)
    refit = find_motion(mirrored, apply_motion(d.motions[i], piece))
    swapped = dataclasses.replace(
        d,
        pieces=d.pieces[:i] + (mirrored,) + d.pieces[i + 1 :],
        motions=d.motions[:i] + (refit or d.motions[i],) + d.motions[i + 1 :],
    )
    assert not _nice(swapped)
