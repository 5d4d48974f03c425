"""E7 — Fig. 7: ResNet+LSTM action recognition with the entropy gate.

Regenerates the figure's control flow as a measured tradeoff: sweeping the
entropy threshold moves clips between the device exit (ResNet block 1 +
LSTM1 + FC1) and the server exit (block 2 + LSTM2 + FC2), trading accuracy
against the block-1 feature-map traffic shipped upstream.
"""

from benchmarks.helpers import print_table
from repro.fog.policies import EntropyThresholdPolicy, run_policy_batched


def test_fig7_entropy_threshold_sweep(trained_action_app, benchmark):
    app = trained_action_app

    def sweep():
        return app.entropy_sweep([0.0, 0.3, 0.6, 1.0, 1.61],
                                 clips_per_class=6)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for row in rows:
        row["kb_shipped"] = row.pop("bytes_shipped") / 1024.0
    print_table("Fig. 7 — entropy-threshold sweep", rows,
                ["max_entropy", "accuracy", "local_fraction", "kb_shipped"])

    accuracies = app.exit_accuracies(clips_per_class=6)
    print(f"\n  exit 1 (device) accuracy: {accuracies['local']:.3f}")
    print(f"  exit 2 (server) accuracy: {accuracies['remote']:.3f}")

    # Shape: a zero budget sends everything to the server (max traffic);
    # a huge budget keeps everything local (zero traffic); both exits are
    # well above the 20% chance level.
    assert rows[0]["local_fraction"] == 0.0
    assert rows[-1]["local_fraction"] == 1.0
    fractions = [r["local_fraction"] for r in rows]
    assert fractions == sorted(fractions)
    assert rows[0]["kb_shipped"] > rows[-1]["kb_shipped"] == 0.0
    assert accuracies["local"] > 0.4
    assert accuracies["remote"] > 0.4


def test_fig7_feature_map_vs_raw_traffic(trained_action_app, benchmark):
    app = trained_action_app
    clips, _ = app.clips.dataset(clips_per_class=4)

    def infer():
        return run_policy_batched(app.model, clips,
                                  EntropyThresholdPolicy(0.5))

    decisions = benchmark(infer)
    escalated = int(decisions.remote_rows.size)
    frames = clips.shape[1]
    feature_bytes = escalated * app.model.feature_map_bytes(frames)
    raw_bytes = escalated * app.model.raw_clip_bytes(frames)
    print(f"\n  escalated clips: {escalated}/{len(decisions)}")
    print(f"  block-1 feature maps shipped: {feature_bytes / 1024:.1f} KB")
    print(f"  raw clips at this toy scale:  {raw_bytes / 1024:.1f} KB")
    print("  (fp32 feature maps only beat raw pixels at camera "
          "resolution; the gating effect — zero bytes for confident "
          "clips — is scale-independent)")
    assert len(decisions) == len(clips)
