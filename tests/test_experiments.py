"""Smoke tests for the experiment harness at quick scale."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    corpus_federated,
    fig4,
    fig5,
    fig8,
    fig9,
    streaming_latency,
    table7,
    table8,
)
from repro.experiments.runner import (
    counting_videos,
    dashcam_videos,
    format_table,
    record_row,
    run_everest,
)
from repro.oracle import counting_udf


@pytest.fixture(scope="module")
def quick():
    return ExperimentScale.quick()


@pytest.fixture(scope="module")
def one_video(quick):
    return counting_videos(quick)[:1]


class TestScale:
    def test_presets_ordered(self):
        paper = ExperimentScale.paper()
        bench = ExperimentScale.bench()
        quick = ExperimentScale.quick()
        assert paper.min_frames > bench.min_frames > quick.min_frames

    def test_counting_videos_match_registry(self, quick):
        videos = counting_videos(quick)
        assert len(videos) == 5
        assert {v.object_label for v in videos} == {"car", "person", "boat"}

    def test_dashcam_videos(self, quick):
        videos = dashcam_videos(quick)
        assert len(videos) == 2
        assert all(hasattr(v, "distances") for v in videos)


class TestHarness:
    def test_run_everest_record(self, quick, one_video):
        record = run_everest(
            one_video[0], counting_udf("car"), k=5, thres=0.9,
            config=__import__(
                "repro.experiments.runner", fromlist=["config_for"]
            ).config_for(quick))
        assert record.method == "everest"
        assert record.extras["confidence"] >= 0.9
        assert 0.0 <= record.metrics.precision <= 1.0

    def test_format_table_aligns(self):
        table = format_table(("a", "bb"), [["x", "y"], ["longer", "z"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines[2:])) <= 2


class TestExperimentsSmoke:
    def test_table7_renders(self, quick):
        output = table7.main(quick)
        assert "archie" in output

    def test_fig4_subset(self, quick, one_video):
        records = fig4.run(
            quick, k=5,
            methods=["everest", "scan-and-test", "tinyyolo-only"],
            videos=one_video)
        output = fig4.render(records)
        assert "everest" in output
        methods = {r.method for r in records}
        assert methods == {"everest", "scan-and-test", "tinyyolo-only"}

    def test_table8_breakdown_sums(self, quick, one_video):
        for workers in (1, 2):
            records = table8.run(
                quick, k=5, videos=one_video, workers=workers)
            fractions = table8.stage_fractions(records[0])
            assert sum(fractions.values()) == pytest.approx(1.0)
            # The select-candidate column is measured wall time, in a
            # pool worker too.
            assert records[0].extras["select_seconds"] > 0, workers
            assert fractions["select_candidate"] > 0
            assert "Table 8" in table8.render(records)

    def test_fig5_sweep(self, quick, one_video):
        records = fig5.run(quick, ks=(3, 6), videos=one_video)
        assert [r.k for r in records] == [3, 6]
        assert all(r.extras["confidence"] >= 0.9 for r in records)

    def test_fig8_densities(self, quick):
        records = fig8.run(quick, densities=(50, 150), k=5)
        assert len(records) == 2
        assert records[0].extras["density"] == 50.0

    def test_fig9_scenarios(self, quick):
        scenarios = (fig9.Scenario("top5", 5, 0.9),)
        records = fig9.run(quick, scenarios=scenarios)
        assert len(records) == 2  # two dashcam videos
        assert all(r.extras["scenario"] == "top5" for r in records)

    def test_streaming_latency(self, quick, one_video):
        measurements = streaming_latency.run(
            quick, num_appends=2, k=3, videos=one_video)
        assert len(measurements) == 2
        # The live answer matched the batch re-run at every append...
        assert all(m.identical for m in measurements)
        # ...and cost strictly fewer fresh oracle calls than the batch
        # re-run paid in total.
        assert all(
            m.live_fresh_calls < m.batch_calls for m in measurements)
        output = streaming_latency.render(measurements)
        assert "live-fresh-calls" in output and "totals:" in output

    def test_corpus_federated(self, quick):
        videos = [
            v for v in counting_videos(quick)[:2]
        ]
        measurement = corpus_federated.run(
            quick, k=3, thres=0.8, videos=videos)
        assert len(measurement.members) == 2
        assert measurement.total_frames == sum(len(v) for v in videos)
        # Confirms attribute completely and the answer is K frames.
        assert sum(s.answers for s in measurement.members) == 3
        assert all(s.confirms >= 0 for s in measurement.members)
        assert measurement.confidence >= 0.8
        output = corpus_federated.render(measurement)
        assert "Federated top-3" in output and "confirms" in output
