"""Command line interface.

Exit codes: 0 when the requested check or construction succeeded, 1
when a verification ran to completion and failed, 2 on unusable input
(bad arguments, unreadable files, malformed certificates), and 3 when a
builder rejects the given triangle with a ValueError.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Callable, Optional, Sequence

from .geom import DegenerateSpecError, DirectedLine, Polygon, TriangleSpec
from .invariants import j_classic
from .relations import find_integer_relation
from .verifier import ArityError, claim_angle_checks, theorem1_check, verify_nice
from .constructions import (
    Dissection,
    WrongFamilyError,
    cut_2beta_acute,
    cut_2beta_obtuse,
    cut_alpha_3beta,
    cut_gear,
    cut_incenter3,
    cut_median,
    cut_scissors,
    cut_wheel,
)
from .certificate import CertificateError, parse_certificate, serialize_certificate
from .search import RESOLUTION_CAVEAT, search_straight_cuts
from .svg import render_svg

__all__ = ["main"]

_PLAIN_FAMILIES: dict[str, Callable[[TriangleSpec], Dissection]] = {
    "incenter3": cut_incenter3,
    "median": cut_median,
    "alpha3beta": cut_alpha_3beta,
    "twobeta-acute": cut_2beta_acute,
    "twobeta-obtuse": cut_2beta_obtuse,
    "scissors": cut_scissors,
}
_COUNTED_FAMILIES: dict[str, Callable[[TriangleSpec, int], Dissection]] = {
    "wheel": cut_wheel,
    "gear": cut_gear,
}


def _tolerance(text: str) -> float:
    """The --tol type: a finite number above zero.  A NaN, infinite, zero
    or negative tolerance would turn every check into a wrong verdict."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number above zero, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorcut",
        description="Cut a scalene triangular cake so the pieces, moved "
        "by rotations and translations only, fill its mirror image.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a known dissection family")
    p.add_argument(
        "--family",
        required=True,
        choices=sorted(_PLAIN_FAMILIES) + sorted(_COUNTED_FAMILIES),
    )
    p.add_argument("--alpha", type=float, required=True, help="angle at A, degrees")
    p.add_argument("--beta", type=float, required=True, help="angle at B, degrees")
    p.add_argument("--side", type=float, default=1.0, help="length of side AB")
    p.add_argument("--n", type=int, default=None, help="wheel/gear step count")
    p.add_argument("--out", required=True, help="certificate output path")
    p.add_argument("--svg", default=None, help="optional rendering output path")

    p = sub.add_parser("verify", help="check a certificate end to end")
    p.add_argument("certificate", help="certificate JSON path")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="relative area tolerance")
    p.add_argument(
        "--theorem1",
        action="store_true",
        help="for two-piece dissections, report the integer angle relation",
    )
    p.add_argument(
        "--claims",
        action="store_true",
        help="report rotation-angle multiplicity checks and their preconditions",
    )

    p = sub.add_parser("invariant", help="evaluate the classic additive invariant")
    p.add_argument("--poly", required=True, help="polygon JSON path: [[x, y], ...]")
    p.add_argument(
        "--line",
        required=True,
        help="directed line as x1,y1,x2,y2 (direction matters, position does not)",
    )

    p = sub.add_parser("relation", help="search for an integer angle relation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kmax", type=int, default=10, help="coefficient bound")
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="residual bound, degrees")

    p = sub.add_parser("search", help="solve for straight two-piece mirror cuts")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--grid", help="ignored; the search solves every type of straight cut exactly")
    p.add_argument("--tol", type=_tolerance, default=1e-7, help="relative residual bound")
    p.add_argument("--refine", action="store_true", help="ignored; the exact solver always runs")
    p.add_argument("--out", default=None, help="write candidates as JSON")

    p = sub.add_parser("render", help="draw a certificate as SVG")
    p.add_argument("certificate", help="certificate JSON path")
    p.add_argument("--out", required=True, help="SVG output path")
    return parser


def _load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        spec = TriangleSpec(args.alpha, args.beta, args.side)
        if args.family in _COUNTED_FAMILIES:
            n = args.n
            if n is None:
                if args.alpha <= args.beta:
                    raise WrongFamilyError(
                        f"{args.family} needs alpha > beta to infer --n"
                    )
                n = max(1, round(args.beta / (args.alpha - args.beta)))
            d = _COUNTED_FAMILIES[args.family](spec, n)
        else:
            if args.n is not None:
                print("only wheel and gear take --n", file=sys.stderr)
                return 2
            d = _PLAIN_FAMILIES[args.family](spec)
    except ValueError as exc:
        # Builders reject a spec they cannot cut with a ValueError: a
        # family gate's subclass, or a plain one such as for --n 0.
        print(f"construction rejected: {exc}", file=sys.stderr)
        return 3
    _write_text(args.out, serialize_certificate(d))
    if args.svg is not None:
        _write_text(args.svg, render_svg(d))
    # Every builder returns only dissections that verify_nice has passed.
    print(
        f"{d.family}{'' if d.n is None else f'(n={d.n})'}: "
        f"{len(d.pieces)} pieces -> {args.out}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        d = parse_certificate(_load_text(args.certificate))
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"bad certificate: {exc}", file=sys.stderr)
        return 2
    report = verify_nice(d, tol=args.tol)
    print(f"family         : {d.family}" + ("" if d.n is None else f" (n={d.n})"))
    print(f"pieces         : {len(d.pieces)}")
    print(f"cake partition : {'ok' if report.partition_cake else 'FAILED'}")
    print(f"box partition  : {'ok' if report.partition_box else 'FAILED'}")
    print(f"box is mirror  : {'ok' if report.box_is_mirror else 'FAILED'}")
    print(f"cake scalene   : {'ok' if report.cake_scalene else 'FAILED'}")
    print(f"area defect    : {report.area_defect:.3e}")
    print(f"max overlap    : {report.max_overlap_area:.3e}")
    if args.theorem1:
        _print_theorem1(d)
    if args.claims:
        _print_claims(d)
    print(f"verdict        : {'NICE' if report.passed else 'NOT NICE'}")
    return 0 if report.passed else 1


def _print_theorem1(d: Dissection) -> None:
    try:
        rel = theorem1_check(d)
    except ArityError as exc:
        print(f"angle relation : not applicable ({exc})")
        return
    if rel is None:
        print(
            "angle relation : none within bounds; a nice two-piece "
            "dissection should admit one"
        )
    else:
        k, l, m = rel.coefficients()
        print(
            f"angle relation : {k}*alpha + {l}*beta + {m}*gamma = 0 "
            f"(residual {rel.residual:.2e} deg)"
        )


def _print_claims(d: Dissection) -> None:
    try:
        rep = claim_angle_checks(d)
    except ArityError as exc:
        print(f"claims         : not applicable ({exc})")
        return
    except ValueError as exc:
        # A hostile motion can carry the box or a side onto a degenerate shape.
        print(f"claims         : not evaluated ({exc})")
        return
    if rep.no_rotation or rep.phi is None or rep.center is None:
        print("claims         : both motions are translations; nothing to check")
        return
    print(
        f"rotation angle : {rep.phi:.9g} deg about "
        f"({rep.center.real:.9g}, {rep.center.imag:.9g})"
    )
    if rep.phi_rational is not None:
        k, l = rep.phi_rational
        print(f"rationality    : phi = {k}/{l} * 180 deg")
    else:
        print("rationality    : phi is not a rational multiple of 180 within bounds")
    print(f"sides at center: {rep.sides_through_center}")

    def fmt_mult(name: str, witness, precondition: bool) -> None:
        held = "holds" if precondition else "NOT met"
        if witness is None:
            print(f"{name} (precondition {held}): no multiple within bounds")
        else:
            print(
                f"{name} (precondition {held}): "
                f"{witness.k}*phi + {witness.l}*180 "
                f"(residual {witness.residual:.2e} deg)"
            )

    fmt_mult("AB image angle", rep.ab_multiple, rep.ab_precondition_holds)
    fmt_mult("2*alpha        ", rep.two_alpha_multiple, rep.two_alpha_precondition_holds)
    for note in rep.notes:
        print(f"note           : {note}")


def _cmd_invariant(args: argparse.Namespace) -> int:
    try:
        raw = json.loads(_load_text(args.poly))
        poly = Polygon(tuple(complex(float(x), float(y)) for x, y in raw))
    except OSError as exc:
        print(f"cannot read polygon: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"bad polygon: {exc}", file=sys.stderr)
        return 2
    try:
        x1, y1, x2, y2 = (float(v) for v in args.line.split(","))
        line = DirectedLine.through(complex(x1, y1), complex(x2, y2))
    except ValueError as exc:
        print(f"bad line: {exc}", file=sys.stderr)
        return 2
    value = j_classic(poly, line)
    print(f"J = {value:.12g}")
    return 0


def _cmd_relation(args: argparse.Namespace) -> int:
    try:
        spec = TriangleSpec(args.alpha, args.beta)
    except DegenerateSpecError as exc:
        print(f"bad angles: {exc}", file=sys.stderr)
        return 2
    rel = find_integer_relation(
        spec.alpha, spec.beta, spec.gamma, k_max=args.kmax, tol=args.tol
    )
    if rel is None:
        print(f"no integer relation with coefficients up to {args.kmax}")
    else:
        k, l, m = rel.coefficients()
        print(
            f"{k}*alpha + {l}*beta + {m}*gamma = 0 "
            f"(residual {rel.residual:.2e} deg)"
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        spec = TriangleSpec(args.alpha, args.beta, args.side)
    except DegenerateSpecError as exc:
        print(f"bad angles: {exc}", file=sys.stderr)
        return 2
    try:
        candidates = search_straight_cuts(spec, tol=args.tol)
    except ValueError as exc:
        print(f"bad search parameters: {exc}", file=sys.stderr)
        return 2
    if not candidates:
        print(RESOLUTION_CAVEAT)
    for c in candidates:
        print(
            f"cut s={c.s:.9f} t={c.t:.9f} box s={c.s_box:.9f} t={c.t_box:.9f} "
            f"{'crossed' if c.crossed else 'straight'} residual={c.residual:.3e}"
        )
    if args.out is not None:
        payload = {
            "alpha": spec.alpha,
            "beta": spec.beta,
            "side_c": spec.side_c,
            "candidates": [asdict(c) for c in candidates],
        }
        if not candidates:
            payload["caveat"] = RESOLUTION_CAVEAT
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        d = parse_certificate(_load_text(args.certificate))
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"bad certificate: {exc}", file=sys.stderr)
        return 2
    try:
        svg = render_svg(d)
    except ValueError as exc:
        # A motion so large that it rounds or overflows a moved piece.
        print(f"bad certificate: a moved piece is not a valid polygon: {exc}", file=sys.stderr)
        return 2
    _write_text(args.out, svg)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "invariant": _cmd_invariant,
    "relation": _cmd_relation,
    "search": _cmd_search,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep both.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
