#!/usr/bin/env python
"""Quickstart: assemble the cyberinfrastructure and run the Fig. 4 pipeline.

Builds the four-layer stack, registers three city data feeds (crimes,
tweets, Waze reports), runs one collection pass — ingestion through
Flume-style agents, storage in the document store, a Spark-style
aggregation, and a chart export — then prints the per-layer inventory and
per-stage record counts.

Run:  python examples/quickstart.py
"""

from repro.core import CyberInfrastructure, InfraConfig
from repro.data import OpenCityData, TweetGenerator, WazeGenerator


def main() -> None:
    infra = CyberInfrastructure(InfraConfig(
        edges_per_fog=4, fogs_per_server=2, servers=2,
        datanodes=4, dfs_replication=2))

    city = OpenCityData(seed=7)
    tweets = TweetGenerator(num_users=200, seed=7)
    waze = WazeGenerator(seed=7)

    infra.register_source("crimes", lambda: city.crime_incidents(days=14))
    infra.register_source("emergency_calls",
                          lambda: city.emergency_calls(days=14))
    infra.register_source(
        "tweets", lambda: [t.as_document() for t in tweets.chatter(300)])
    infra.register_source("waze", lambda: waze.reports(120))

    print("=== Layer inventory (Fig. 1) ===")
    for layer, contents in infra.describe_layers().items():
        print(f"  {layer:12s} {contents}")

    print("\n=== Collection pipeline (Fig. 4) ===")
    report = infra.run_collection_pipeline(analysis_field="district")
    for source, count in sorted(report.records_ingested.items()):
        stored = report.records_stored[source]
        print(f"  {source:18s} ingested={count:5d}  stored={stored:5d}")
    print(f"  analysis rows (districts): {report.analysis_rows}")
    print(f"  visualization payload:     {report.viz_bytes} bytes of SVG")

    print("\n=== Querying the stored data ===")
    crimes = infra.collection("crimes")
    crimes.create_index("offense")
    robberies = crimes.count({"offense": "robbery"})
    print(f"  robberies on record: {robberies} "
          f"(index used: {crimes.last_query_used_index})")
    hot = crimes.find({"district": 4}, limit=3, sort="hour")
    print(f"  sample district-4 incidents: "
          f"{[(d['offense'], round(d['hour'], 1)) for d in hot]}")

    consumer = infra.bus.consumer("dashboard", "waze")
    jams = [r for r in consumer.drain() if r.value["type"] == "JAM"]
    print(f"  live Waze jams on the bus: {len(jams)}")


if __name__ == "__main__":
    main()
