"""Report emission: canonical JSON, flat CSV projections, and SVG overlays.

JSON is the canonical format and is byte-deterministic for a fixed input:
keys are sorted, containers are converted recursively, and non-finite
floats are replaced by None.  CSV is a lossy flattening of the same data.
The SVG overlay is a best-effort 2D plot (set samples plus medial axis
points) written with fixed-precision coordinates so that identical inputs
produce identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np


def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats -> None."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in seq]
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV projections
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows, fieldnames) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(fieldnames)
    for row in rows:
        w.writerow([_fmt(row.get(k)) for k in fieldnames])
    return buf.getvalue()


def axis_rows(axis) -> list:
    """One row per medial point: its coordinates and nearest-point cluster."""
    return [
        {
            "point": [float(v) for v in p],
            "distance": cluster.distance,
            "cluster_count": cluster.cluster_count,
            "max_pair_angle": cluster.max_pair_angle,
        }
        for p, cluster in axis.points
    ]


def axis_csv(axis) -> str:
    """Medial axis export: x, y[, z], distance, cluster_count, max_pair_angle."""
    coords = axis.coords()
    dim = coords.shape[1] if len(coords) else 2
    names = ["x", "y", "z"][:dim] + ["distance", "cluster_count", "max_pair_angle"]
    rows = [dict(zip(("x", "y", "z"), row.pop("point")), **row) for row in axis_rows(axis)]
    return rows_to_csv(rows, names)


def link_csv(report) -> str:
    """Per-scale link projection of an LLNEReport."""
    rows = [dict(r, norm=report.norm_name) for r in report.per_scale()]
    return rows_to_csv(rows, ["norm", "t", "component_count", "C_t", "min_separation"])


def pair_csv(reports) -> str:
    rows = [
        {
            "pair": "|".join(r.pair),
            "tord": r.tord.slope,
            "tord_inn": r.tord_inn.slope,
            "verdict": r.verdict.value,
            "lojasiewicz_pair": r.lojasiewicz_pair,
        }
        for r in reports
    ]
    return rows_to_csv(rows, ["pair", "tord", "tord_inn", "verdict", "lojasiewicz_pair"])


def scenario_table_csv(results) -> str:
    fields = [
        "label",
        "set_verdict",
        "medial_verdict",
        "L_set",
        "L_medial",
        "link_verdict",
        "status",
    ]
    return rows_to_csv([r.to_row() for r in results], fields)


# ---------------------------------------------------------------------------
# SVG overlay (2D)
# ---------------------------------------------------------------------------

_SVG_SIZE = 640.0
_SVG_MARGIN = 30.0


def svg_overlay_2d(set_points, axis_points, title: str = "") -> str:
    """Scatter overlay of set samples (grey) and medial points (red)."""
    set_points = np.asarray(set_points, dtype=float).reshape(-1, 2)
    axis_points = (
        np.asarray(axis_points, dtype=float).reshape(-1, 2)
        if len(axis_points)
        else np.zeros((0, 2))
    )
    allp = np.vstack([set_points, axis_points]) if len(axis_points) else set_points
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = float(max(np.max(hi - lo), 1e-9))
    inner = _SVG_SIZE - 2.0 * _SVG_MARGIN

    def to_px(p):
        x = _SVG_MARGIN + (p[0] - lo[0]) / span * inner
        y = _SVG_SIZE - _SVG_MARGIN - (p[1] - lo[1]) / span * inner
        return x, y

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SVG_SIZE)}" '
        f'height="{int(_SVG_SIZE)}" viewBox="0 0 {int(_SVG_SIZE)} {int(_SVG_SIZE)}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_SVG_MARGIN:.1f}" y="20" font-family="monospace" '
            f'font-size="14">{title}</text>'
        )
    for p in set_points:
        x, y = to_px(p)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="#888888"/>')
    for p in axis_points:
        x, y = to_px(p)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#cc2222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
