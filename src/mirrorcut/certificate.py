"""JSON certificates for dissections.

A certificate stores a dissection verbatim: cake, box, pieces, one
proper motion per piece, and the generating cut when there is one.  The
encoding is canonical (sorted keys, compact separators, shortest
round-tripping float literals), so parsing a certificate and
serializing the result reproduces the input byte for byte.  Reflections
have no encoding; a certificate can only ever describe proper motions.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from .geom import Polygon, Polyline, RigidMotion
from .constructions import Dissection

__all__ = [
    "SCHEMA_VERSION",
    "CertificateError",
    "CertificateVersionError",
    "parse_certificate",
    "serialize_certificate",
]

SCHEMA_VERSION = 1

# A rotation by less than this (in degrees, measured to the nearer of 0
# and 360) must be encoded as a translation; the two encodings would
# otherwise collide.
_TRANSLATION_ANGLE_TOL = 1e-12


class CertificateError(ValueError):
    """The certificate text is not a valid encoding of a dissection."""


class CertificateVersionError(CertificateError):
    """The certificate declares a schema version this reader cannot read."""


def _point_pair(p: complex) -> list[float]:
    return [p.real, p.imag]


def _motion_obj(m: RigidMotion) -> dict[str, Any]:
    if m.is_translation(tol_deg=_TRANSLATION_ANGLE_TOL):
        return {"kind": "translation", "vector": _point_pair(m.translation)}
    return {
        "angle_deg": m.phi,
        "center": _point_pair(m.rotation_center()),
        "kind": "rotation",
    }


def serialize_certificate(d: Dissection) -> str:
    """Encode a dissection as canonical certificate JSON."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "family": d.family,
        "n": d.n,
        "cake": [_point_pair(v) for v in d.cake.vertices],
        "box": [_point_pair(v) for v in d.box.vertices],
        "pieces": [[_point_pair(v) for v in p.vertices] for p in d.pieces],
        "motions": [_motion_obj(m) for m in d.motions],
        "cut": None if d.cut is None else [_point_pair(v) for v in d.cut.vertices],
    }
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise CertificateError(f"non-finite coordinate in dissection: {exc}") from exc
    return text + "\n"


def _fail(path: str, msg: str) -> CertificateError:
    return CertificateError(f"{path}: {msg}")


def _get_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise _fail(path, "coordinate is not finite")
    return out


def _get_point(value: Any, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(path, "expected a pair [x, y]")
    return complex(_get_float(value[0], f"{path}[0]"), _get_float(value[1], f"{path}[1]"))


def _get_polygon(value: Any, path: str) -> Polygon:
    if not isinstance(value, list) or len(value) < 3:
        raise _fail(path, "expected an array of at least 3 vertices")
    verts = tuple(_get_point(v, f"{path}[{i}]") for i, v in enumerate(value))
    try:
        return Polygon(verts)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _get_motion(value: Any, path: str) -> RigidMotion:
    if not isinstance(value, dict):
        raise _fail(path, "expected an object")
    kind = value.get("kind")
    if kind == "translation":
        allowed = {"kind", "vector"}
        extra = set(value) - allowed
        if extra:
            raise _fail(path, f"unknown keys {sorted(extra)}")
        if "vector" not in value:
            raise _fail(path, "translation needs a vector")
        vec = _get_point(value["vector"], f"{path}.vector")
        return RigidMotion(0.0, vec)
    if kind == "rotation":
        allowed = {"kind", "angle_deg", "center"}
        extra = set(value) - allowed
        if extra:
            raise _fail(path, f"unknown keys {sorted(extra)}")
        if "angle_deg" not in value or "center" not in value:
            raise _fail(path, "rotation needs angle_deg and center")
        angle = _get_float(value["angle_deg"], f"{path}.angle_deg")
        center = _get_point(value["center"], f"{path}.center")
        phi = angle % 360.0
        if min(phi, 360.0 - phi) <= _TRANSLATION_ANGLE_TOL:
            raise _fail(
                path,
                "rotation angle is indistinguishable from a translation; "
                "encode it with kind translation",
            )
        return RigidMotion.rotation_about(center, angle)
    raise _fail(
        path,
        f"unsupported motion kind {kind!r}; only rotation and translation "
        "are proper motions",
    )


def parse_certificate(text: str) -> Dissection:
    """Decode certificate JSON, validating geometry as it is rebuilt.

    Raises CertificateError naming the offending field on malformed
    input, such as a cake or box that is not a triangle, and
    CertificateVersionError on an unknown schema_version.

    Cost: each polygon (cake, box, every piece) is rebuilt as a Polygon,
    which runs an O(n^2) diameter and self-intersection scan over its n
    vertices; no count is capped, so a hostile certificate with huge
    polygons is slow to parse.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise CertificateError("top level: expected an object")

    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CertificateVersionError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    allowed = {"schema_version", "family", "n", "cake", "box", "pieces", "motions", "cut"}
    extra = set(obj) - allowed
    if extra:
        raise CertificateError(f"top level: unknown keys {sorted(extra)}")
    missing = allowed - set(obj)
    if missing:
        raise CertificateError(f"top level: missing keys {sorted(missing)}")

    family = obj["family"]
    if not isinstance(family, str) or not family:
        raise _fail("family", "expected a non-empty string")
    n = obj["n"]
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise _fail("n", "expected null or a positive integer")

    # The cake is a triangle, and so is its mirror image.
    for key in ("cake", "box"):
        if isinstance(obj[key], list) and len(obj[key]) != 3:
            raise _fail(key, f"expected a triangle, got {len(obj[key])} vertices")
    cake = _get_polygon(obj["cake"], "cake")
    box = _get_polygon(obj["box"], "box")
    pieces_raw = obj["pieces"]
    if not isinstance(pieces_raw, list) or not pieces_raw:
        raise _fail("pieces", "expected a non-empty array of polygons")
    pieces = tuple(
        _get_polygon(p, f"pieces[{i}]") for i, p in enumerate(pieces_raw)
    )
    motions_raw = obj["motions"]
    if not isinstance(motions_raw, list):
        raise _fail("motions", "expected an array")
    if len(motions_raw) != len(pieces):
        raise _fail(
            "motions",
            f"expected one motion per piece ({len(pieces)}), got {len(motions_raw)}",
        )
    motions = tuple(
        _get_motion(m, f"motions[{i}]") for i, m in enumerate(motions_raw)
    )

    cut_raw = obj["cut"]
    cut: Optional[Polyline] = None
    if cut_raw is not None:
        if not isinstance(cut_raw, list) or len(cut_raw) < 2:
            raise _fail("cut", "expected null or an array of at least 2 points")
        points = tuple(_get_point(v, f"cut[{i}]") for i, v in enumerate(cut_raw))
        try:
            cut = Polyline(points)
        except ValueError as exc:
            raise _fail("cut", str(exc)) from exc

    return Dissection(
        cake=cake,
        box=box,
        pieces=pieces,
        motions=motions,
        cut=cut,
        family=family,
        n=n,
    )
