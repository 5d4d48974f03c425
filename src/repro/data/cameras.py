"""The DOTD highway camera network (Fig. 2 substitute).

The paper connects to 200+ Louisiana DOTD cameras along the interstates
around nine cities, densest in Baton Rouge.  This module builds a synthetic
registry with the same structure: cameras are placed along interstate
segments near each city, with per-camera stream parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.core import get_runtime


@dataclass(frozen=True)
class City:
    """A covered city with approximate coordinates."""

    name: str
    lat: float
    lon: float
    interstates: Tuple[str, ...]


#: The nine cities the paper names (Sec. II-A-1), with the interstates that
#: pass near each.  Coordinates are approximate city centers.
LOUISIANA_CITIES: Tuple[City, ...] = (
    City("New Orleans", 29.95, -90.07, ("I-10", "I-610")),
    City("Baton Rouge", 30.45, -91.15, ("I-10", "I-12", "I-110")),
    City("Houma", 29.60, -90.72, ("US-90",)),
    City("Shreveport", 32.52, -93.75, ("I-20", "I-49")),
    City("Lafayette", 30.22, -92.02, ("I-10", "I-49")),
    City("North Shore", 30.41, -90.08, ("I-12", "I-10")),
    City("Lake Charles", 30.23, -93.22, ("I-10", "I-210")),
    City("Monroe", 32.51, -92.12, ("I-20",)),
    City("Alexandria", 31.31, -92.45, ("I-49",)),
)


@dataclass(frozen=True)
class Camera:
    """One traffic/surveillance camera."""

    camera_id: str
    city: str
    highway: str
    lat: float
    lon: float
    fps: int
    width: int
    height: int

    @property
    def bytes_per_frame(self) -> int:
        return self.width * self.height * 3

    @property
    def bytes_per_second(self) -> int:
        return self.bytes_per_frame * self.fps


class CameraRegistry:
    """Queryable collection of cameras."""

    def __init__(self, cameras: Sequence[Camera]):
        self._cameras = list(cameras)
        ids = [c.camera_id for c in self._cameras]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate camera ids")

    def __len__(self) -> int:
        return len(self._cameras)

    def __iter__(self):
        return iter(self._cameras)

    def all(self) -> List[Camera]:
        return list(self._cameras)

    def by_city(self, city: str) -> List[Camera]:
        return [c for c in self._cameras if c.city == city]

    def cities(self) -> List[str]:
        return sorted({c.city for c in self._cameras})

    def get(self, camera_id: str) -> Camera:
        for camera in self._cameras:
            if camera.camera_id == camera_id:
                return camera
        raise KeyError(f"unknown camera: {camera_id}")

    def nearest(self, lat: float, lon: float) -> Camera:
        if not self._cameras:
            raise ValueError("registry is empty")
        return min(self._cameras,
                   key=lambda c: (c.lat - lat) ** 2 + (c.lon - lon) ** 2)

    def total_ingest_bytes_per_second(self) -> int:
        return sum(c.bytes_per_second for c in self._cameras)

    def coverage_summary(self) -> List[Dict]:
        """Per-city camera counts and feed rates (the Fig. 2 table)."""
        rows = []
        for city in self.cities():
            cameras = self.by_city(city)
            rows.append({
                "city": city,
                "cameras": len(cameras),
                "highways": sorted({c.highway for c in cameras}),
                "mbytes_per_second": sum(
                    c.bytes_per_second for c in cameras) / 1e6,
            })
        return rows


def build_dotd_registry(seed: int = 0,
                        cameras_per_city: Optional[Dict[str, int]] = None
                        ) -> CameraRegistry:
    """Construct the synthetic DOTD network: >200 cameras, 9 cities.

    Cameras are scattered along each city's interstates within ~0.2 degrees
    of the city center; Baton Rouge (the paper's focus, Fig. 2) gets the
    densest coverage by default.
    """
    rng = get_runtime().rng.np_child("data.cameras", seed)
    default_counts = {city.name: 20 for city in LOUISIANA_CITIES}
    default_counts["Baton Rouge"] = 45
    default_counts["New Orleans"] = 35
    counts = dict(default_counts)
    if cameras_per_city:
        counts.update(cameras_per_city)
    cameras: List[Camera] = []
    for city in LOUISIANA_CITIES:
        count = counts.get(city.name, 0)
        for index in range(count):
            highway = city.interstates[index % len(city.interstates)]
            # Place along a rough line through the city with jitter.
            t = (index / max(count - 1, 1)) - 0.5
            angle = (hash(highway) % 180) * math.pi / 180.0
            lat = city.lat + 0.2 * t * math.sin(angle) + rng.normal(0, 0.01)
            lon = city.lon + 0.2 * t * math.cos(angle) + rng.normal(0, 0.01)
            cameras.append(Camera(
                camera_id=f"{city.name.lower().replace(' ', '-')}-{index:03d}",
                city=city.name,
                highway=highway,
                lat=round(lat, 5),
                lon=round(lon, 5),
                fps=int(rng.choice([10, 15, 30])),
                width=640, height=480))
    return CameraRegistry(cameras)
