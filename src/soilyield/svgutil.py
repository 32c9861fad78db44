"""Minimal SVG 1.1 string builders.

Charts are emitted as plain strings with fixed-precision coordinates so the
same inputs always produce byte-identical files.
"""

from __future__ import annotations


def escape(s: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first, as
    ``xml.sax.saxutils.escape`` writes them; that module's import pulls in
    the urllib, http and ssl stack, so it is not used here."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def num(v: float) -> str:
    return f"{v:.2f}"


def rect(x: float, y: float, w: float, h: float, fill: str,
         opacity: float | None = None, stroke: str | None = None) -> str:
    parts = [
        f'<rect x="{num(x)}" y="{num(y)}" width="{num(w)}" height="{num(h)}"',
        f' fill="{fill}"',
    ]
    if opacity is not None:
        parts.append(f' fill-opacity="{opacity:.4f}"')
    if stroke is not None:
        parts.append(f' stroke="{stroke}" stroke-width="1"')
    parts.append("/>")
    return "".join(parts)


def text(x: float, y: float, s: str, size: int = 11, anchor: str = "middle",
         transform: str | None = None) -> str:
    t = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{num(x)}" y="{num(y)}" font-size="{size}"'
        f' font-family="sans-serif" text-anchor="{anchor}"{t}>{escape(s)}</text>'
    )


def line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#444444") -> str:
    return (
        f'<line x1="{num(x1)}" y1="{num(y1)}" x2="{num(x2)}" y2="{num(y2)}"'
        f' stroke="{stroke}" stroke-width="1"/>'
    )


def document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{num(width)}" height="{num(height)}" '
        f'viewBox="0 0 {num(width)} {num(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
