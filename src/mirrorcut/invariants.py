"""Additive invariants of polygons built from directed lines.

The classical invariant sums signed lengths of the sides parallel to a
reference direction.  The generalized form weighs each side by an
antisymmetric functional of its carrier line, which is what makes the
rotation-orbit obstruction work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geom import (
    DirectedLine,
    Polygon,
    RigidMotion,
    dist,
    same_directed_line,
)

__all__ = [
    "DirectedLineFunctional",
    "IllDefinedFunctionalError",
    "InvariantValue",
    "j_classic",
    "j_general",
    "orbit_functional",
]

InvariantValue = float


class IllDefinedFunctionalError(ValueError):
    """The requested orbit functional is not antisymmetric-consistent."""


@dataclass(frozen=True)
class DirectedLineFunctional:
    """An antisymmetric map from directed lines to reals.

    Antisymmetry means evaluate(reversed line) == -evaluate(line);
    callers are expected to supply functions with that property.
    """

    evaluate: Callable[[DirectedLine], float]
    description: str = ""

    def __call__(self, line: DirectedLine) -> float:
        return self.evaluate(line)


def j_classic(poly: Polygon, f: DirectedLine, tol: float = 1e-9) -> InvariantValue:
    """Signed sum of side lengths parallel to the direction of f.

    A side pointing along f counts positively, against f negatively;
    sides not parallel to f (unit-direction cross product above tol)
    contribute nothing.  The position of f is irrelevant.
    """
    total = 0.0
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        length = dist(a, b)
        d = (b - a) * (1.0 / length)
        # conj(d) * direction holds dot(d, direction) + 1j * cross(d, direction).
        w = d.conjugate() * f.direction
        if abs(w.imag) <= tol:
            total += length if w.real > 0.0 else -length
    return total


def j_general(poly: Polygon, f: DirectedLineFunctional) -> InvariantValue:
    """Sum of f(carrier line of each side) times the side length."""
    total = 0.0
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        total += f(DirectedLine.through(a, b)) * dist(a, b)
    return total


def orbit_functional(
    r: RigidMotion,
    ab: DirectedLine,
    k_max: int = 64,
    tol: float = 1e-9,
) -> DirectedLineFunctional:
    """Indicator of the rotation orbit of a directed line.

    The functional maps r^k(ab) to +1 and r^k(reversed ab) to -1 for
    |k| <= k_max, everything else to 0.  It is well defined only when no
    forward image coincides with a backward one; that happens exactly
    when some power of r maps the line ab to its reversal (for example a
    180-degree rotation centered on ab), and then this raises
    IllDefinedFunctionalError.

    tol is the absolute base-point distance used for line matching.
    """
    if r.is_translation():
        raise ValueError("orbit functional needs a genuine rotation")
    center = r.rotation_center()
    assert center is not None
    forward: list[DirectedLine] = []
    for k in range(-k_max, k_max + 1):
        rot = RigidMotion.rotation_about(center, k * r.phi)
        forward.append(DirectedLine(rot.apply(ab.base), rot.apply(ab.base + ab.direction) - rot.apply(ab.base)))
    for i, li in enumerate(forward):
        for lj in forward:
            if same_directed_line(li, lj.reversed(), tol):
                raise IllDefinedFunctionalError(
                    "some rotation power maps the line onto its own reversal; "
                    "the orbit indicator would not be antisymmetric"
                )

    def evaluate(line: DirectedLine) -> float:
        for lk in forward:
            if same_directed_line(line, lk, tol):
                return 1.0
            if same_directed_line(line.reversed(), lk, tol):
                return -1.0
        return 0.0

    return DirectedLineFunctional(
        evaluate,
        description=f"orbit indicator, phi={r.phi:.6g} deg, k_max={k_max}",
    )
