"""Storage and ingest capacity planning for the video pipeline.

Sec. II-B distinguishes *temporary storage servers for raw data* from
*long-term storage servers for annotated data*: raw video is held briefly
while models run, and only compact annotations persist.  Given a camera
registry's aggregate feed rate, :class:`CapacityPlanner` answers the
sizing questions that design implies: how long a raw buffer lasts, how
much long-term space a year of annotations needs, and the compression
factor annotation buys — the paper's core storage argument, quantified.
"""

from __future__ import annotations

from typing import Dict

SECONDS_PER_DAY = 86_400.0

#: how raw frames map to persisted annotations: the fraction of frames
#: with any detection worth indexing, and the record persisted for each
#: (boxes + labels + meta)
ANNOTATED_FRACTION, BYTES_PER_ANNOTATION = 0.05, 512

#: the report's sizing question: a 10 TB raw buffer, a year of annotations
RAW_BUFFER_BYTES, RETENTION_DAYS = 10e12, 365.0


class CapacityPlanner:
    """Sizing math over a camera registry's aggregate feed."""

    def __init__(self, registry):
        self.registry = registry

    # -- raw (temporary) tier --------------------------------------------------
    @property
    def raw_bytes_per_second(self) -> float:
        return float(self.registry.total_ingest_bytes_per_second())

    @property
    def frames_per_second(self) -> float:
        return float(sum(camera.fps for camera in self.registry))

    def raw_retention_seconds(self, storage_bytes: float) -> float:
        """How long a raw buffer of ``storage_bytes`` lasts at full ingest."""
        if storage_bytes < 0:
            raise ValueError(f"negative storage: {storage_bytes}")
        rate = self.raw_bytes_per_second
        if rate == 0:
            return float("inf")
        return storage_bytes / rate

    # -- annotated (long-term) tier ---------------------------------------------
    @property
    def annotation_bytes_per_second(self) -> float:
        return (self.frames_per_second * ANNOTATED_FRACTION
                * BYTES_PER_ANNOTATION)

    def annotated_storage_for_days(self, days: float) -> float:
        if days < 0:
            raise ValueError(f"negative days: {days}")
        return days * SECONDS_PER_DAY * self.annotation_bytes_per_second

    @property
    def compression_factor(self) -> float:
        """Raw rate / annotation rate — what annotation-before-storage buys."""
        annotated = self.annotation_bytes_per_second
        if annotated == 0:
            return float("inf")
        return self.raw_bytes_per_second / annotated

    def report(self) -> Dict[str, float]:
        """The sizing summary the hardware layer needs."""
        return {
            "cameras": float(len(self.registry)),
            "raw_gb_per_hour": self.raw_bytes_per_second * 3600 / 1e9,
            "raw_buffer_hours": self.raw_retention_seconds(
                RAW_BUFFER_BYTES) / 3600.0,
            "annotated_gb_per_year": self.annotated_storage_for_days(
                RETENTION_DAYS) / 1e9,
            "compression_factor": self.compression_factor,
        }
