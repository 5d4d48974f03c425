"""Checks of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The session fixture makes one ``--quick --traced`` run of all four
workloads (numbers meaningless, plumbing real) and the tests read it.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare, feeds, harness, refkernel, run
from benchmarks.e2e.__main__ import COUNT
from benchmarks.e2e.trace import NoTrace, Recorder
from repro.runtime import Runtime, using_runtime

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


@pytest.fixture(scope="session")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def quick_run(tmp_path_factory):
    output = tmp_path_factory.mktemp("e2e") / "quick.json"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "benchmarks.e2e", "--quick",
                           "--traced", "--output", str(output)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    with open(output, encoding="utf-8") as handle:
        return json.load(handle), elapsed


def traced(workload, seed, tmp_path=None):
    """(per-layer metrics, row counts) of one ``--trace 1`` run."""
    command = RUN + ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1"]
    if tmp_path is not None:
        command += ["--trace-output", str(tmp_path / "spans.json")]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return (json.loads(lines[-1])["metrics"],
            {key: float(value) for key, value in COUNT.findall(lines[1])})


# -- BENCHMARK.json ---------------------------------------------------------------
def test_declaration_schema(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert all(len(part) <= 200 for part in declared["command"])
    assert 1 <= declared["run_seconds"] <= 60
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in declared[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_declaration_matches_harness(declared):
    def triples(section):
        return [(m["name"], m["unit"], m["better"])
                for m in declared[section]]
    assert triples("end_to_end") == list(harness.E2E_METRICS)
    assert triples("per_layer") == list(harness.LAYER_METRICS)
    setup = declared["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) \
        == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


# -- the quick run -----------------------------------------------------------------
def test_quick_run_reports_every_declared_metric(declared, quick_run):
    results, elapsed = quick_run
    assert set(results["header"]) == {
        "nproc", "blas_threads", "python", "numpy", "git_sha", "seed",
        "ref_nominal_s"}
    assert results["header"]["blas_threads"] == 1
    assert set(results["results"]) == set(run.WORKLOADS)
    for workload, entry in results["results"].items():
        for section, key in (("end_to_end", "e2e"),
                             ("per_layer", "per_layer")):
            result = entry[key]
            assert result["correct"], (workload, result["counts"])
            assert set(result["metrics"]) \
                == {m["name"] for m in declared[section]}
            units = {m["name"]: m["unit"] for m in declared[section]}
            for name, reading in result["metrics"].items():
                assert reading["unit"] == units[name]
                assert isinstance(reading["value"], (int, float))
        counts = entry["e2e"]["counts"]
        assert counts["answered"] + counts["shed"] + counts["failed"] \
            == counts["sent"]
        assert all(entry["e2e"]["metrics"][m["name"]]["value"] > 0
                   for m in declared["end_to_end"])
    # four workloads plus their traced runs: seconds, not minutes
    assert elapsed < 60


def test_quick_run_layers_go_where_the_workload_goes(quick_run):
    results = quick_run[0]["results"]

    def layer(workload, metric):
        return results[workload]["per_layer"]["metrics"][metric]["value"]
    assert layer("feeds-collect", "nn.share") == 0
    assert layer("feeds-collect", "nosql.insert.calls") > 0
    assert layer("camera-drain", "nosql.share") == 0
    assert layer("camera-drain", "nn.share") > 0.3
    assert layer("edge-drain", "fog.codec.busy_s") > 0
    assert layer("camera-drain", "fog.codec.busy_s") == 0
    assert layer("camera-paced", "harness.idle_share") > 0
    for workload in run.WORKLOADS:
        assert layer(workload, "harness.unattributed_share") < 0.10


def test_contract_line_has_exactly_four_keys():
    done = subprocess.run(
        RUN + ["--workload", "feeds-collect", "--seed", "5",
               "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in harness.E2E_METRICS]


# -- determinism and the span tree --------------------------------------------------
REPEATABLE = ("streaming.produce_batch.calls", "streaming.poll_batch.calls",
              "streaming.commit.calls", "serving.submit.calls",
              "serving.pump.calls", "serving.batches",
              "fog.serve_batched.calls", "fog.escalated_share",
              "nn.infer_batch.calls", "nn.plan.misses")


def test_one_seed_repeats_counts_and_a_second_seed_keeps_the_split(tmp_path):
    first, first_counts = traced("camera-drain", 0, tmp_path)
    second, second_counts = traced("camera-drain", 0)
    other, _ = traced("camera-drain", 1)
    for name in REPEATABLE:
        assert first[name] == second[name], name
    assert first_counts["succeeded"] == second_counts["succeeded"]
    split = other["fog.escalated_share"]["value"]
    assert abs(split - 0.35) <= 0.03
    assert split != first["fog.escalated_share"]["value"]

    with open(tmp_path / "spans.json", encoding="utf-8") as handle:
        spans = json.load(handle)
    roots = [span for span in spans if span["parent"] is None]
    assert {span["name"] for span in roots} == {harness.ROOT}
    requests = [tuple(span["request"]) for span in roots]
    assert len(set(requests)) == len(roots) == first_counts["passes"]
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert span["request"] == parent["request"]


# -- tracing leaves the program as it found it ----------------------------------------
def test_patches_are_restored():
    before = {(owner, attr): vars(owner)[attr]
              for owner, attr, _, _ in feeds.PATCHES}
    recorder = Recorder()
    for owner, attr, name, every in feeds.PATCHES:
        recorder.patch(owner, attr, name, every)
    assert all(vars(owner)[attr] is not original
               for (owner, attr), original in before.items())
    recorder.restore()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in before.items())


def test_instance_patch_is_removed_and_private_names_refused():
    class Stage:
        def run(self, value):
            return value + 1

    stage, recorder = Stage(), Recorder()
    recorder.patch(stage, "run", "nn.stage")
    with recorder.span(harness.ROOT):
        assert stage.run(1) == 2
    assert [span[0] for span in recorder.spans] == [harness.ROOT, "nn.stage"]
    recorder.restore()
    assert "run" not in vars(stage)
    with pytest.raises(ValueError):
        recorder.patch(stage, "_hidden", "nn.hidden")


def test_sampled_spans_are_weighted():
    recorder = Recorder()
    tick = recorder.timed("nosql.insert", lambda: None, every=4)
    with recorder.span(harness.ROOT):
        for _ in range(12):
            tick()
    assert recorder.by_name()["nosql.insert"]["calls"] == 12
    assert len(recorder.spans) == 1 + 3


def test_untraced_hooks_hand_back_what_they_were_given():
    untraced, target = NoTrace(), object()
    assert untraced.broker(target) is target
    assert untraced.deployment(target) is target
    untraced.patch(feeds.Collection, "insert", "nosql.insert")
    assert vars(feeds.Collection)["insert"] is feeds.PATCHES[5][0].insert
    with untraced.span(harness.ROOT):
        pass


# -- the oracles ---------------------------------------------------------------------
def test_feeds_oracle_counts_a_record_once():
    with using_runtime(Runtime(5)):
        workload = feeds.FeedsWorkload()
        workload.prepare()
        infra = workload.set_up().infra
        infra.run_collection_pipeline(feeds.ANALYSIS_FIELD)
        clean = workload._check(infra)
        assert clean.balanced and clean.correct == clean.sent
        # the same poll stored twice, and a document no feed sent
        crime = infra.collection("crime")
        crime.insert(dict(workload.reference["crime"][0]))
        crime.insert({"incident_id": "never-sent", "district": 1})
        twice = workload._check(infra)
    assert twice.correct == clean.correct
    assert twice.failed == 2 and not twice.balanced


# -- the noise rules ---------------------------------------------------------------
def test_windowed_p95_ignores_a_stall_that_owns_the_pooled_tail():
    calm = [[5.0 + 0.001 * sample for sample in range(1000)]
            for _ in range(18)]
    stalled = [[5.0] * 300 + [150.0] * 700 for _ in range(2)]
    windows = calm[:9] + stalled + calm[9:]
    pooled = [value for window in windows for value in window]
    assert harness.percentile(pooled, 0.95) == 150.0
    assert harness.windowed(windows, 0.95) < 6.0


def test_windowed_p95_merges_small_windows():
    passes = [[float(index)] * 16 for index in range(26)]
    # 13 passes of 16 make one window of 208: two windows in all
    assert harness.windowed(passes, 0.95) == pytest.approx((12 + 25) / 2)
    assert harness.windowed([[1.0, 2.0, 3.0]], 0.95) == 3.0


def test_drift_correction_recovers_known_slow_down():
    assert refkernel.self_test() <= 0.02
    with pytest.raises(ValueError):
        refkernel.correct([0.1, 0.1], [0.01, 0.01])


def test_reference_kernel_is_about_its_nominal_time():
    kernel = refkernel.RefKernel()
    fastest = min(kernel.run() for _ in range(20))
    assert refkernel.REF_NOMINAL_S / 4 < fastest < refkernel.REF_NOMINAL_S * 4


# -- compare.py ---------------------------------------------------------------------
def result_file(path, rows_per_s):
    path.write_text(json.dumps({"header": {}, "results": {"camera-drain": {
        "e2e": {"metrics": {"rows_per_s": {"value": rows_per_s,
                                           "unit": "1/s"}}}}}}))
    return str(path)


def test_compare_accepts_a_a_and_rejects_a_shift(tmp_path, declared):
    def files(tag, values):
        return [result_file(tmp_path / f"{tag}{index}.json", value)
                for index, value in enumerate(values)]
    base = files("a", [30000, 30300, 29800, 30100, 29900])
    same = files("b", [30050, 29700, 30200, 30000, 30150])
    slow = files("c", [24000, 24300, 23800, 24100, 23900])
    wide = files("d", [30000, 34000, 27000, 30100, 29900])
    assert compare.main(["--a", *base, "--b", *same]) == 0
    assert compare.main(["--a", *base, "--b", *slow]) == 1
    assert compare.main(["--a", *base, "--b", *wide]) == 1
