"""Bench for sliding-window maintenance: per-event cost vs window size.

Runs the *same* insert/expiry schedule against two windowed streams —
one window a quarter of the video, one three quarters — re-running a
from-scratch batch session over the window snapshot after every event.
Prints the per-event comparison and asserts the acceptance contract:

* every windowed report is byte-identical to the batch re-run over its
  window snapshot, at both window sizes (the equivalence the test
  suite certifies, re-checked at bench scale, where windows span
  multiple inference blocks);
* per-event **fresh oracle work tracks the delta, not the window
  length**: tripling the window must not meaningfully change the
  per-event fresh-confirmation cost;
* pure expiry ticks run zero fresh proxy inference (retraction is
  cache eviction, not recompute) and render nothing, and an append
  renders each arriving frame once plus at most the provisional clip
  it re-decides.
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

NUM_ROUNDS = 3  # each round is one append followed by one tick
BOOTSTRAP_FRACTION = 0.4
WINDOW_FRACTIONS = (0.25, 0.75)


def _run_schedule(video, config, window_frames, schedule, renders):
    """One windowed stream through ``schedule``; returns cost rows."""
    stream = Session.open_stream(
        video, counting_udf(video.object_label),
        initial_frames=int(BOOTSTRAP_FRACTION * len(video)),
        window_seconds=window_frames / video.fps, config=config)
    live = stream.query().topk(10).guarantee(0.9).subscribe()
    events = []
    for kind, size in schedule:
        started = time.perf_counter()
        rendered = renders()
        result = stream.append(size) if kind == "append" \
            else stream.tick(size)
        rendered = renders() - rendered
        live_seconds = time.perf_counter() - started

        batch = stream.batch_session()
        reference = batch.query().topk(10).guarantee(0.9).run()
        assert reference.to_json() == live.latest.to_json(), (
            f"windowed report diverged from batch at watermark "
            f"{stream.watermark}, horizon {stream.horizon}, "
            f"window {window_frames}")
        if kind == "tick":
            assert result.fresh_inferred_frames == 0, (
                f"expiry ran fresh inference: "
                f"{result.fresh_inferred_frames} frames")
            assert rendered == 0, f"expiry rendered {rendered} frames"
        else:
            assert rendered <= size + config.diff.clip_size, (
                f"an append of {size} frames rendered {rendered}")
        events.append({
            "kind": kind,
            "size": size,
            "window_lo": stream.window_lo,
            "watermark": stream.watermark,
            "fresh_confirms": result.fresh_confirm_calls,
            "rendered": rendered,
            "batch_calls": reference.oracle_calls,
            "live_seconds": live_seconds,
        })
    return events


def test_window_slide_cost_tracks_delta_not_window(bench_scale):
    bench_started = time.perf_counter()
    video = counting_videos(bench_scale)[0]
    config = config_for(bench_scale)
    bootstrap = int(BOOTSTRAP_FRACTION * len(video))
    chunk = (len(video) - bootstrap) // NUM_ROUNDS
    tick = chunk // 2
    schedule = [("append", chunk), ("tick", tick)] * NUM_ROUNDS

    windows = [
        max(int(fraction * len(video)), tick + 1)
        for fraction in WINDOW_FRACTIONS
    ]
    renders = count_renders(video)
    runs = {
        wf: _run_schedule(video, config, wf, schedule, renders)
        for wf in windows
    }

    small, large = windows
    rows = [
        [
            f"{e_small['kind']}({e_small['size']})",
            f"{e_small['watermark']:,}",
            f"{e_small['fresh_confirms']}",
            f"{e_large['fresh_confirms']}",
            f"{e_small['batch_calls']}",
            f"{e_small['live_seconds']:.2f}s",
        ]
        for e_small, e_large in zip(runs[small], runs[large])
    ]
    print()
    print(format_table(
        ("event", "watermark", f"fresh(w={small})",
         f"fresh(w={large})", "batch-calls", "live-lat"),
        rows,
        title=f"Sliding window on {video.name} ({len(video):,} frames, "
              f"windows {small:,}/{large:,})",
    ))

    fresh_small = [e["fresh_confirms"] for e in runs[small]]
    fresh_large = [e["fresh_confirms"] for e in runs[large]]
    mean_small = sum(fresh_small) / len(fresh_small)
    mean_large = sum(fresh_large) / len(fresh_large)
    # Tripling the window may surface a few more candidates, but the
    # per-event physical spend must stay delta-shaped — far from the
    # 3x a window-proportional refresh would cost.
    bound = max(2.0 * mean_small, float(chunk))
    write_bench_result(
        "window",
        scale=scale_label(bench_scale),
        seconds=time.perf_counter() - bench_started,
        margin=1.0 - mean_large / max(bound, 1.0),
        rounds=NUM_ROUNDS,
        window_frames=windows,
        fresh_small=fresh_small,
        fresh_large=fresh_large,
        batch_calls=[e["batch_calls"] for e in runs[small]],
        renders_per_appended_frame=sum(
            e["rendered"] for events in runs.values() for e in events)
        / (len(runs) * NUM_ROUNDS * chunk),
        byte_identical=True,
    )
    assert mean_large <= bound, (
        f"per-event fresh work scales with the window: "
        f"{fresh_large} (w={large}) vs {fresh_small} (w={small})")
