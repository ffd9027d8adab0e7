"""Static SVG rendering of fan slices.

The slice of a 2-edge fan is drawn on a horizontal interval, a 3-edge fan
on a triangle in barycentric coordinates. Cells from maximal cones become
point markers (class ``cell-point``), segments (``cell-segment``) or
filled polygons (``cell-polygon``), each carrying its witness flows in a
hover title. Coordinates are exact rationals quantised to 3 decimals, so
output bytes are deterministic. Edge ids are written as XML character
data, with ``&``, ``<`` and ``>`` escaped.
"""

from fractions import Fraction

from .errors import UnsupportedDimension
from .io import edge_doc_id

_WIDTH, _HEIGHT = 420, 400
_INTERVAL = ((Fraction(30), Fraction(200)), (Fraction(390), Fraction(200)))
_TRIANGLE = ((Fraction(30), Fraction(370)),
             (Fraction(390), Fraction(370)),
             (Fraction(210), Fraction(58)))


def _fmt(x: Fraction) -> str:
    scaled = round(x * 1000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def _point(bary, corners):
    x = sum(b * c[0] for b, c in zip(bary, corners))
    y = sum(b * c[1] for b, c in zip(bary, corners))
    return x, y


def _escape(text):
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _title(flows):
    parts = [f"{edge_doc_id(e)}={v}" for e, v in flows]
    return "<title>flows: " + _escape(", ".join(parts)) + "</title>"


def render_slice_svg(slice_description) -> str:
    d = slice_description.ambient_dim
    if d not in (2, 3):
        raise UnsupportedDimension(f"SVG slice requires 2 or 3 edges, got {d}")
    corners = _INTERVAL if d == 2 else _TRIANGLE
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<style>.frame{stroke:#444;fill:none;stroke-width:1.5}'
        '.cell-point{fill:#c0392b}'
        '.cell-segment{stroke:#2471a3;stroke-width:3}'
        '.cell-polygon{fill:#a9cce3;stroke:#2471a3;stroke-width:1}</style>',
    ]
    frame_pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    if d == 2:
        (x0, y0), (x1, y1) = corners
        lines.append(f'<line class="frame" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                     f'x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>')
    else:
        lines.append(f'<polygon class="frame" points="{frame_pts}"/>')
    for i, e in enumerate(slice_description.edge_order):
        cx, cy = corners[i]
        anchor_y = cy + (18 if cy > 200 else -8)
        lines.append(f'<text x="{_fmt(cx)}" y="{_fmt(anchor_y)}" font-size="12" '
                     f'text-anchor="middle">{_escape(str(edge_doc_id(e)))}</text>')
    # polygons first so points and segments stay visible on top
    for cell in sorted(slice_description.cells, key=lambda c: -c.dim):
        pts = [_point(v, corners) for v in cell.vertices]
        title = _title(cell.flows)
        if cell.dim == 0:
            (x, y), = pts
            lines.append(f'<circle class="cell-point" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                         f'r="4">{title}</circle>')
        elif cell.dim == 1:
            (x0, y0), (x1, y1) = pts
            lines.append(f'<line class="cell-segment" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                         f'x2="{_fmt(x1)}" y2="{_fmt(y1)}">{title}</line>')
        else:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            lines.append(f'<polygon class="cell-polygon" points="{coords}">'
                         f'{title}</polygon>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
