"""Self-contained SVG rendering of range polygons with ellipse overlays.

The figure mirrors the standard presentation: the hull boundary as a red
solid curve, individual symbol ranges as black dotted curves.  No plotting
dependency; output is deterministic for fixed input.
"""

from __future__ import annotations

import numpy as np

MARGIN_FRACTION = 0.05
MIN_SPAN_FRACTION = 0.1
FIGURE_SIZE = 640


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _path(points: np.ndarray, transform, closed: bool) -> str:
    coords = [transform(x, y) for x, y in points]
    body = " L ".join(f"{_fmt(px)} {_fmt(py)}" for px, py in coords)
    return f"M {body}" + (" Z" if closed else "")


def range_figure(polygon_vertices, overlays=()) -> str:
    """Render the hull polygon plus optional (label, vertices) overlays on a
    ``FIGURE_SIZE`` square.

    Degenerate hulls (single point, segment) render as a dot or a line.
    The view box is fitted to all drawn data with a 5% margin; neither side
    is shorter than a tenth of the other.
    """
    main = np.asarray(polygon_vertices, dtype=float)
    groups = [main] + [np.asarray(v, dtype=float) for _, v in overlays]
    low = np.min([g.min(axis=0) for g in groups], axis=0)
    high = np.max([g.max(axis=0) for g in groups], axis=0)
    # A segment or point has a zero span; floor each span relative to the
    # larger one so the view box keeps a visible height and width.
    span = np.maximum(high - low, MIN_SPAN_FRACTION * max(np.max(high - low), 1e-9))
    center = 0.5 * (low + high)
    xmin, ymin = center - (0.5 + MARGIN_FRACTION) * span
    xmax, ymax = center + (0.5 + MARGIN_FRACTION) * span
    scale = FIGURE_SIZE / max(xmax - xmin, ymax - ymin)

    def transform(x, y):
        return (x - xmin) * scale, (ymax - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{FIGURE_SIZE}" height="{FIGURE_SIZE}" '
        f'viewBox="0 0 {_fmt((xmax - xmin) * scale)} {_fmt((ymax - ymin) * scale)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for (label, _), vertices in zip(overlays, groups[1:]):
        if vertices.shape[0] == 1:
            px, py = transform(*vertices[0])
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2" fill="black">'
                f"<title>{label}</title></circle>"
            )
        else:
            parts.append(
                f'<path d="{_path(vertices, transform, closed=True)}" fill="none" '
                f'stroke="black" stroke-width="1" stroke-dasharray="2 4">'
                f"<title>{label}</title></path>"
            )
    if main.shape[0] == 1:
        px, py = transform(*main[0])
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="red"/>')
    else:
        parts.append(
            f'<path d="{_path(main, transform, closed=main.shape[0] > 2)}" '
            'fill="none" stroke="red" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts + [""])
