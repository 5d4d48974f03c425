"""Exporters producing the JSON/GeoJSON/SVG artifacts a web layer renders.

The paper visualizes raw and analyzed data with D3 on a web server
(Fig. 4's last stage).  These exporters produce exactly the data products
that stage consumes: GeoJSON feature collections for maps, compact
time-series JSON, and self-contained SVG charts for dashboards.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def registry_to_json(source, path: Optional[str] = None) -> str:
    """Serialize a runtime observability dump to canonical JSON.

    ``source`` may be a :class:`repro.runtime.Runtime` (full dump: seed,
    metrics, spans, events) or a bare
    :class:`repro.runtime.MetricsRegistry`.  Keys are sorted all the way
    down, so two identically-seeded runs produce byte-identical output —
    the determinism contract the runtime tests pin.  If ``path`` is given
    the JSON is also written there.
    """
    dump = source.dump()
    text = json.dumps(dump, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def points_to_geojson(points: Sequence[Dict]) -> str:
    """Dict records with ``lon`` / ``lat`` coordinates -> a GeoJSON
    FeatureCollection string; every other field becomes a property."""
    features = []
    for point in points:
        if "lon" not in point or "lat" not in point:
            raise KeyError(f"record missing lon/lat: {point}")
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [point["lon"], point["lat"]]},
            "properties": {k: v for k, v in point.items()
                           if k not in ("lon", "lat")},
        })
    return json.dumps({"type": "FeatureCollection", "features": features})


def cameras_to_geojson(registry) -> str:
    """A camera registry -> GeoJSON (the Fig. 2 map layer)."""
    records = [{
        "lon": camera.lon, "lat": camera.lat,
        "camera_id": camera.camera_id, "city": camera.city,
        "highway": camera.highway, "fps": camera.fps,
    } for camera in registry]
    return points_to_geojson(records)


def timeseries_json(series: Dict[str, Sequence[float]]) -> str:
    """Named daily series -> the compact JSON a D3 line chart binds to."""
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    (length,) = lengths
    return json.dumps({
        "x_label": "day",
        "x": list(range(length)),
        "series": {name: list(map(float, values))
                   for name, values in series.items()},
    })


def bar_chart_svg(values: Dict[str, float], title: str = "") -> str:
    """A self-contained 480x240 SVG bar chart."""
    if not values:
        raise ValueError("need at least one bar")
    width, height, margin = 480, 240, 30
    chart_w = width - 2 * margin
    chart_h = height - 2 * margin
    peak = max(max(values.values()), 1e-12)
    bar_w = chart_w / len(values)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    if title:
        parts.append(f'<text x="{width / 2}" y="16" text-anchor="middle" '
                     f'font-size="13">{title}</text>')
    for index, (label, value) in enumerate(values.items()):
        bar_h = chart_h * max(value, 0.0) / peak
        x = margin + index * bar_w
        y = margin + chart_h - bar_h
        parts.append(f'<rect x="{x + 2:.1f}" y="{y:.1f}" '
                     f'width="{bar_w - 4:.1f}" height="{bar_h:.1f}" '
                     f'fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{height - 8}" '
                     f'text-anchor="middle" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "".join(parts)


def heatmap_svg(grid: Sequence[Sequence[float]], title: str = "") -> str:
    """A density grid -> SVG heatmap of 18-pixel cells (crime-hotspot map
    layer)."""
    rows = len(grid)
    if rows == 0 or len(grid[0]) == 0:
        raise ValueError("grid must be non-empty")
    cols = len(grid[0])
    if any(len(row) != cols for row in grid):
        raise ValueError("grid rows have unequal lengths")
    peak = max(max(row) for row in grid)
    peak = peak if peak > 0 else 1.0
    cell = 18
    width, height = cols * cell, rows * cell + (20 if title else 0)
    offset = 20 if title else 0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    if title:
        parts.append(f'<text x="{width / 2}" y="14" text-anchor="middle" '
                     f'font-size="12">{title}</text>')
    for r, row in enumerate(grid):
        for c, value in enumerate(row):
            intensity = int(255 * (1 - min(value / peak, 1.0)))
            parts.append(
                f'<rect x="{c * cell}" y="{offset + r * cell}" '
                f'width="{cell}" height="{cell}" '
                f'fill="rgb(255,{intensity},{intensity})"/>')
    parts.append("</svg>")
    return "".join(parts)
