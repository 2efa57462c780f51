"""Two-panel SVG rendering of a dissection.

The left panel shows the cake with its pieces in place and the cut
polyline on top; the right panel shows the box with the moved pieces.
Pieces keep their color across panels so the motion of each piece can
be followed by eye.
"""

from __future__ import annotations

from .geom import Polygon, apply_motion
from .constructions import Dissection

__all__ = ["PALETTE", "render_svg"]

# Fill colors by piece index, chosen to stay distinguishable side by side.
PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#9c755f",
    "#bab0ac",
    "#ff9da7",
)

_STROKE = "#1a1a1a"


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _Panel:
    """Maps model coordinates into one panel, flipping y for SVG."""

    def __init__(self, dx: float, top: float, scale: float) -> None:
        self.dx = dx
        self.top = top
        self.scale = scale

    def point(self, p: complex) -> str:
        x = (p.real + self.dx) * self.scale
        y = (self.top - p.imag) * self.scale
        return f"{_fmt(x)},{_fmt(y)}"


def _path(
    vertices: tuple[complex, ...], panel: _Panel, fill: str, width: float = 0.8
) -> str:
    coords = " L ".join(panel.point(v) for v in vertices)
    return (
        f'<path d="M {coords} Z" fill="{fill}" stroke="{_STROKE}" '
        f'stroke-width="{width}" stroke-linejoin="round"/>'
    )


def render_svg(d: Dissection, width: float = 720.0) -> str:
    """Render a dissection as a deterministic standalone SVG document.

    The output contains one filled path per piece per panel plus the two
    outlines, so a document with k pieces always holds exactly 2k + 2
    path elements.
    """
    shapes: list[Polygon] = [d.cake, d.box]
    shapes.extend(d.pieces)
    moved = [apply_motion(m, p) for m, p in zip(d.motions, d.pieces)]
    shapes.extend(moved)

    min_x = min(v.real for s in shapes for v in s.vertices)
    max_x = max(v.real for s in shapes for v in s.vertices)
    min_y = min(v.imag for s in shapes for v in s.vertices)
    max_y = max(v.imag for s in shapes for v in s.vertices)
    span_x = max_x - min_x
    gap = 0.12 * span_x
    margin = 0.05 * span_x

    # Right panel repeats the same model coordinates shifted into a
    # second column; the box itself already lives in cake coordinates.
    shift = span_x + gap
    total_w = 2.0 * span_x + gap + 2.0 * margin
    total_h = (max_y - min_y) + 2.0 * margin
    scale = width / total_w
    left = _Panel(dx=margin - min_x, top=max_y + margin, scale=scale)
    right = _Panel(dx=margin - min_x + shift, top=max_y + margin, scale=scale)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(total_h * scale)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(total_h * scale)}">'
    )
    for i, piece in enumerate(d.pieces):
        parts.append(_path(piece.vertices, left, PALETTE[i % len(PALETTE)]))
    for i, piece in enumerate(moved):
        parts.append(_path(piece.vertices, right, PALETTE[i % len(PALETTE)]))
    parts.append(_path(d.cake.vertices, left, "none", width=1.6))
    parts.append(_path(d.box.vertices, right, "none", width=1.6))
    if d.cut is not None:
        coords = " ".join(left.point(v) for v in d.cut.vertices)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{_STROKE}" '
            f'stroke-width="1.6" stroke-dasharray="6 4" stroke-linecap="round"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
