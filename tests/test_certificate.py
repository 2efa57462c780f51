"""Certificate codec: canonical bytes, round trips, and diagnostics."""

from __future__ import annotations

import json

import pytest

from mirrorcut.geom import TriangleSpec
from mirrorcut.verifier import verify_nice
from mirrorcut.certificate import (
    SCHEMA_VERSION,
    CertificateError,
    CertificateVersionError,
    parse_certificate,
    serialize_certificate,
)
from mirrorcut.constructions import (
    cut_2beta_acute,
    cut_2beta_obtuse,
    cut_alpha_3beta,
    cut_gear,
    cut_incenter3,
    cut_median,
    cut_scissors,
    cut_wheel,
)

BUILDERS = [
    ("incenter3", lambda: cut_incenter3(TriangleSpec(80.0, 55.0))),
    ("median", lambda: cut_median(TriangleSpec(90.0, 55.0))),
    ("alpha3beta", lambda: cut_alpha_3beta(TriangleSpec(75.0, 25.0))),
    ("twobeta_acute", lambda: cut_2beta_acute(TriangleSpec(80.0, 40.0))),
    ("twobeta_obtuse", lambda: cut_2beta_obtuse(TriangleSpec(100.0, 50.0))),
    ("wheel", lambda: cut_wheel(TriangleSpec(30.0, 20.0), n=2)),
    ("gear", lambda: cut_gear(TriangleSpec(30.0, 20.0), n=2)),
    ("scissors", lambda: cut_scissors(TriangleSpec(30.0, 20.0))),
]


@pytest.mark.parametrize("name,build", BUILDERS, ids=[n for n, _ in BUILDERS])
class TestRoundTrip:
    def test_serialize_parse_serialize_is_identity(self, name, build) -> None:
        d = build()
        text = serialize_certificate(d)
        again = serialize_certificate(parse_certificate(text))
        assert again == text

    def test_parsed_dissection_still_verifies(self, name, build) -> None:
        d = build()
        parsed = parse_certificate(serialize_certificate(d))
        assert verify_nice(parsed).passed
        assert parsed.family == d.family
        assert parsed.n == d.n


class TestCanonicalForm:
    def test_single_line_sorted_keys(self) -> None:
        text = serialize_certificate(cut_median(TriangleSpec(90.0, 55.0)))
        assert text.endswith("\n")
        body = text[:-1]
        assert "\n" not in body
        obj = json.loads(body)
        assert list(obj) == sorted(obj)
        assert obj["schema_version"] == SCHEMA_VERSION

    def test_no_whitespace_padding(self) -> None:
        text = serialize_certificate(cut_median(TriangleSpec(90.0, 55.0)))
        assert ": " not in text and ", " not in text


class TestParseErrors:
    def _valid(self) -> dict:
        text = serialize_certificate(cut_median(TriangleSpec(90.0, 55.0)))
        return json.loads(text)

    def test_not_json(self) -> None:
        with pytest.raises(CertificateError, match="line 1"):
            parse_certificate("certainly { not json")

    def test_truncated(self) -> None:
        text = serialize_certificate(cut_median(TriangleSpec(90.0, 55.0)))
        with pytest.raises(CertificateError):
            parse_certificate(text[: len(text) // 2])

    def test_wrong_version(self) -> None:
        obj = self._valid()
        obj["schema_version"] = 99
        with pytest.raises(CertificateVersionError, match="99"):
            parse_certificate(json.dumps(obj))

    def test_missing_key(self) -> None:
        obj = self._valid()
        del obj["motions"]
        with pytest.raises(CertificateError, match="missing"):
            parse_certificate(json.dumps(obj))

    def test_unknown_key(self) -> None:
        obj = self._valid()
        obj["provenance"] = "nope"
        with pytest.raises(CertificateError, match="unknown"):
            parse_certificate(json.dumps(obj))

    @pytest.mark.parametrize("key", ["cake", "box"])
    def test_non_triangle_rejected(self, key: str) -> None:
        # Both run from (0, 0) to (1, 0) along AB: a fourth vertex below
        # that edge keeps the polygon simple and counterclockwise.
        obj = self._valid()
        obj[key].insert(obj[key].index([0.0, 0.0]) + 1, [0.5, -0.1])
        with pytest.raises(CertificateError, match=f"{key}: expected a triangle, got 4"):
            parse_certificate(json.dumps(obj))

    def test_reflection_kind_rejected(self) -> None:
        obj = self._valid()
        obj["motions"][0] = {"kind": "reflection", "axis": [[0, 0], [1, 0]]}
        with pytest.raises(CertificateError, match="proper"):
            parse_certificate(json.dumps(obj))

    def test_motion_count_mismatch(self) -> None:
        obj = self._valid()
        obj["motions"] = obj["motions"][:1]
        with pytest.raises(CertificateError, match="one motion per piece"):
            parse_certificate(json.dumps(obj))

    def test_nonfinite_coordinate(self) -> None:
        obj = self._valid()
        text = json.dumps(obj).replace(
            json.dumps(obj["cake"][0][0]), "NaN", 1
        )
        with pytest.raises(CertificateError):
            parse_certificate(text)

    def test_bad_polygon_reported_with_path(self) -> None:
        obj = self._valid()
        obj["pieces"][1] = [[0, 0], [1, 0]]
        with pytest.raises(CertificateError, match=r"pieces\[1\]"):
            parse_certificate(json.dumps(obj))

    def test_zero_angle_rotation_rejected(self) -> None:
        obj = self._valid()
        obj["motions"][0] = {"kind": "rotation", "angle_deg": 0.0, "center": [0, 0]}
        with pytest.raises(CertificateError, match="translation"):
            parse_certificate(json.dumps(obj))

    def test_clockwise_cake_rejected(self) -> None:
        obj = self._valid()
        obj["cake"] = obj["cake"][::-1]
        with pytest.raises(CertificateError, match="cake"):
            parse_certificate(json.dumps(obj))


class TestMotionEncoding:
    def test_translation_encoded_without_center(self) -> None:
        obj = json.loads(serialize_certificate(cut_median(TriangleSpec(90.0, 55.0))))
        kinds = {m["kind"] for m in obj["motions"]}
        assert kinds == {"translation", "rotation"}
        for m in obj["motions"]:
            if m["kind"] == "translation":
                assert set(m) == {"kind", "vector"}
            else:
                assert set(m) == {"kind", "angle_deg", "center"}
