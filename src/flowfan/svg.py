"""Static SVG rendering of fan slices.

The slice of a 2-edge fan is drawn on a horizontal interval, a 3-edge fan
on a triangle in barycentric coordinates. Cells from maximal cones become
point markers (class ``cell-point``), segments (``cell-segment``) or
filled polygons (``cell-polygon``), each carrying its witness flows in a
hover title. A vertex is a primitive ray r, drawn at r / sum(r); its
coordinates are integer numerators over sum(r), quantised exactly to 3
decimals, so output bytes are deterministic. Edge ids are written as XML
character data, with ``&``, ``<`` and ``>`` escaped and each character
XML 1.0 cannot carry written as ``\\uXXXX``.
"""

import re

from .fan import check_sliceable
from .io import edge_doc_id

_WIDTH, _HEIGHT = 420, 400
_INTERVAL = ((30, 200), (390, 200))
_TRIANGLE = ((30, 370), (390, 370), (210, 58))


def _fmt(num, den=1) -> str:
    """``num / den``, ``den > 0``, to 3 decimals, rounded half to even."""
    scaled, rest = divmod(1000 * num, den)
    if 2 * rest > den or (2 * rest == den and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def _point(ray, corners):
    """The point r / sum(r) of the slice as (x, y) numerators over sum(r)."""
    x = sum(r * c[0] for r, c in zip(ray, corners))
    y = sum(r * c[1] for r, c in zip(ray, corners))
    return x, y


# the characters XML 1.0 cannot carry: C0 controls but tab, LF and CR,
# surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text):
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped, and
    each character XML 1.0 cannot carry written as the text ``\\uXXXX``."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub(lambda m: f"\\u{ord(m.group()):04x}", text)


def _title(flows):
    parts = [f"{edge_doc_id(e)}={v}" for e, v in flows]
    return "<title>flows: " + _escape(", ".join(parts)) + "</title>"


def render_slice_svg(slice_description) -> str:
    d = slice_description.ambient_dim
    check_sliceable(d)
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
        pts = []
        for v in cell.vertices:
            x, y = _point(v, corners)
            pts.append((_fmt(x, sum(v)), _fmt(y, sum(v))))
        title = _title(cell.flows)
        if cell.dim == 0:
            (x, y), = pts
            lines.append(f'<circle class="cell-point" cx="{x}" cy="{y}" '
                         f'r="4">{title}</circle>')
        elif cell.dim == 1:
            (x0, y0), (x1, y1) = pts
            lines.append(f'<line class="cell-segment" x1="{x0}" y1="{y0}" '
                         f'x2="{x1}" y2="{y1}">{title}</line>')
        else:
            coords = " ".join(f"{x},{y}" for x, y in pts)
            lines.append(f'<polygon class="cell-polygon" points="{coords}">'
                         f'{title}</polygon>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
