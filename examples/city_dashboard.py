#!/usr/bin/env python
"""City dashboard: streaming analytics + spatial + temporal + viz artifacts.

The full Sec. II-C-3 analytics story on one screen: Waze reports stream
through the micro-batch engine into windowed counters; crime incidents
rasterize into a hotspot heatmap; an LSTM forecasts next-day crime counts;
and every panel is exported as the JSON/SVG data product the paper's D3
web layer would render.  Artifacts are written to ``/tmp/smartcity_dash``.

Run:  python examples/city_dashboard.py
"""

import json
import pathlib

from repro.apps.forecast import CrimeForecaster
from repro.apps.forecast.crime import seasonal_series
from repro.compute import GridAggregator, StreamingContext, assign_districts
from repro.data import OpenCityData, WazeGenerator
from repro.data.city import DISTRICT_CENTERS
from repro.streaming import Broker
from repro.viz import bar_chart_svg, heatmap_svg, timeseries_json


def main() -> None:
    out_dir = pathlib.Path("/tmp/smartcity_dash")
    out_dir.mkdir(exist_ok=True)

    print("=== Streaming panel: live Waze feed (micro-batches) ===")
    bus = Broker()
    bus.create_topic("waze", partitions=4)
    for report in WazeGenerator(seed=0).reports(500):
        bus.produce("waze", report)
    context = StreamingContext(bus, batch_max_records=100)
    windows = []
    (context.stream("waze")
     .filter(lambda r: r["severity"] >= 3)
     .reduce_by_key_and_window(lambda r: r["type"], batches=3, into=windows))
    consumed = context.run_until_idle()
    latest = windows[-1]
    print(f"  {consumed} reports in {len(windows)} micro-batches")
    print(f"  severe incidents, 3-batch window: {latest}")
    (out_dir / "waze_window.svg").write_text(
        bar_chart_svg({k: float(v) for k, v in sorted(latest.items())},
                      title="severe Waze reports (window)"))

    print("\n=== Spatial panel: 60-day crime hotspot map ===")
    city = OpenCityData(seed=3)
    records = city.crime_incidents(days=60)
    points = [r["location"] for r in records]
    aggregator = GridAggregator(rows=8, cols=8)
    grid = aggregator.aggregate(points)
    hotspots = aggregator.hotspots(points, top=3)
    for rank, spot in enumerate(hotspots, 1):
        print(f"  hotspot {rank}: center={spot['center']} "
              f"incidents={spot['count']}")
    joined = assign_districts([h["center"] for h in hotspots],
                              DISTRICT_CENTERS)
    print(f"  hotspot districts: {joined}")
    (out_dir / "crime_heatmap.svg").write_text(
        heatmap_svg(grid.tolist(), title="crime density (60 days)"))

    print("\n=== Temporal panel: next-day crime forecast ===")
    history = seasonal_series(120, seed=0)
    forecaster = CrimeForecaster(window=7, seed=0)
    forecaster.fit(history, epochs=120)
    fresh = seasonal_series(40, seed=11)
    report = forecaster.compare(fresh)
    print(f"  LSTM MAE {report['lstm']:.2f}  "
          f"(persistence {report['persistence']:.2f}, "
          f"moving-average {report['moving_average']:.2f})")
    predictions = forecaster.predict(fresh)
    (out_dir / "forecast.json").write_text(timeseries_json({
        "actual": fresh[7:].tolist(),
        "predicted": predictions.tolist(),
    }))

    artifacts = sorted(p.name for p in out_dir.iterdir())
    print(f"\n=== Dashboard artifacts written to {out_dir} ===")
    for artifact in artifacts:
        size = (out_dir / artifact).stat().st_size
        print(f"  {artifact:22s} {size:7,d} bytes")


if __name__ == "__main__":
    main()
