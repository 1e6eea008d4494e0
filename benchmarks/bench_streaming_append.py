"""Bench for the streaming subsystem: per-append cost vs batch recompute.

Feeds a counting video in equal chunks to a streaming session with a
live subscription, and after every append also re-runs a from-scratch
batch session over the same prefix. Prints the per-append comparison
and asserts the acceptance contract:

* the live report is byte-identical to the batch re-run at every
  watermark (the equivalence the test suite certifies, re-checked at
  bench scale);
* per-append **fresh oracle work grows with the delta, not the
  watermark**: every append's fresh calls stay below the batch run's
  total, the live total is a small fraction of the batch total, and
  the later appends do not trend upward with the prefix length;
* per-append **render work is the delta exactly**: an append renders
  each arriving frame once and nothing else — neither the provisional
  clip it re-decides nor the inference block it extends.
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.experiments.runner import (
    config_for,
    counting_videos,
    format_table,
)
from repro.oracle import counting_udf

from bench_util import count_renders, scale_label, write_bench_result

NUM_APPENDS = 6
BOOTSTRAP_FRACTION = 0.4


def test_streaming_append_cost_tracks_the_delta(bench_scale):
    bench_started = time.perf_counter()
    video = counting_videos(bench_scale)[0]
    config = config_for(bench_scale)
    bootstrap = int(BOOTSTRAP_FRACTION * len(video))
    chunk = (len(video) - bootstrap) // NUM_APPENDS

    renders = count_renders(video)
    stream = Session.open_stream(
        video, counting_udf(video.object_label),
        initial_frames=bootstrap, config=config)
    live = stream.query().topk(10).guarantee(0.9).subscribe()

    rows = []
    fresh_calls = []
    batch_calls = []
    rendered = []
    for _ in range(NUM_APPENDS):
        before = renders()
        result = stream.append(chunk)
        rendered.append(renders() - before)

        started = time.perf_counter()
        batch = stream.batch_session()
        reference = batch.query().topk(10).guarantee(0.9).run()
        batch_seconds = time.perf_counter() - started

        assert reference.to_json() == live.latest.to_json(), \
            f"live report diverged from batch at {result.watermark}"
        fresh_calls.append(result.fresh_oracle_calls)
        batch_calls.append(reference.oracle_calls)
        rows.append([
            f"{result.watermark:,}",
            f"{result.segment.num_frames:,}",
            f"{result.wall_seconds:.2f}s",
            f"{result.fresh_oracle_calls}",
            f"{batch_seconds:.2f}s",
            f"{reference.oracle_calls}",
        ])

    print()
    print(format_table(
        ("watermark", "delta", "live-lat", "live-fresh",
         "batch-lat", "batch-calls"),
        rows,
        title=f"Streaming appends on {video.name} "
              f"({len(video):,} frames, {NUM_APPENDS} chunks)",
    ))

    total_fresh, total_batch = sum(fresh_calls), sum(batch_calls)
    write_bench_result(
        "streaming_append",
        scale=scale_label(bench_scale),
        seconds=time.perf_counter() - bench_started,
        margin=0.5 - total_fresh / max(total_batch, 1),
        appends=NUM_APPENDS,
        fresh_calls=fresh_calls,
        batch_calls=batch_calls,
        renders_per_appended_frame=sum(rendered) / (NUM_APPENDS * chunk),
        byte_identical=True,
    )

    # Delta-sized cost, three ways. (1) No single append re-pays what
    # the batch run pays for the whole prefix.
    assert all(f < b for f, b in zip(fresh_calls, batch_calls)), \
        f"an append re-paid the batch cost: {fresh_calls} vs {batch_calls}"
    # (2) In aggregate the live path pays a small fraction of re-running
    # batch per append.
    assert total_fresh < 0.5 * total_batch, \
        f"live total {total_fresh} not << batch total {total_batch}"
    # (3) Fresh cost does not grow with the watermark: the later half of
    # the appends (largest prefixes) costs no more than the earlier
    # half did — it tracks the (constant) delta, not the video length.
    half = len(fresh_calls) // 2
    early, late = fresh_calls[:half], fresh_calls[half:]
    assert sum(late) / len(late) <= max(sum(early) / len(early), chunk), \
        f"fresh cost trends with the watermark: {fresh_calls}"
    # (4) Physical render work is the delta exactly: the arrivals once.
    assert all(r == chunk for r in rendered), \
        f"an append rendered other frames than its arrivals: {rendered}"
