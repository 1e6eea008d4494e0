"""Bench for the federated corpus engine: fleet answers, pooled shards.

Opens a 4-shard corpus of Table-7 counting videos and answers one
global top-k twice — once with the serial per-shard Phase-1 loop
(``prepare(workers=1)``), once with the builds fanned across a
4-worker process pool — printing the wall-clock speedup and the
cross-shard budget allocation. Asserts the acceptance contract:

* the federated report is byte-identical at every worker count AND to
  a plain single-video execution over the concatenated footage with
  the same merged Phase-1 entry (the DESIGN.md §9 equivalence), and
* at bench scale with at least 4 usable CPUs, the pooled per-shard
  Phase-1 prepare runs >= 2x faster than the serial per-shard loop
  (on fewer CPUs or at quick scale the speedup is reported, not
  asserted).
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.api.executor import QueryExecutor
from repro.corpus import VideoCorpus
from repro.experiments.runner import (
    config_for,
    counting_videos,
    format_table,
)
from repro.oracle import counting_udf
from repro.video.views import ConcatVideo

from bench_util import available_cpus, scale_label, write_bench_result

WORKER_COUNTS = (1, 4)
NUM_SHARDS = 4
TOP_K = 10
THRES = 0.9


def _fresh_corpus(bench_scale) -> VideoCorpus:
    videos = counting_videos(bench_scale)[:NUM_SHARDS]
    return VideoCorpus.open(
        videos, counting_udf("car"), config=config_for(bench_scale))


def test_corpus_federated_speedup(bench_scale, bench_strict):
    prepare_timings = {}
    query_timings = {}
    outcomes = {}
    corpora = {}
    for workers in WORKER_COUNTS:
        corpus = _fresh_corpus(bench_scale)
        start = time.perf_counter()
        corpus.prepare(workers=workers)
        prepare_timings[workers] = time.perf_counter() - start
        start = time.perf_counter()
        outcomes[workers] = (
            corpus.query().topk(TOP_K).guarantee(THRES)
            .run_detailed()
        )
        query_timings[workers] = time.perf_counter() - start
        corpora[workers] = corpus

    rows = [
        [
            f"{workers}",
            f"{prepare_timings[workers]:.2f}s",
            f"{prepare_timings[1] / prepare_timings[workers]:.2f}x",
            f"{query_timings[workers]:.2f}s",
        ]
        for workers in WORKER_COUNTS
    ]
    print()
    print(format_table(
        ("prepare-workers", "prepare", "prepare-speedup", "query"),
        rows,
        title=f"Federated corpus: {NUM_SHARDS} shards, "
              f"{corpora[1].total_frames:,} frames, "
              f"{available_cpus()} usable CPUs",
    ))
    allocation = outcomes[1].allocation()
    print("budget allocation:", ", ".join(
        f"{name}={confirms}" for name, confirms in allocation.items()))

    # Bit-identical reports at every worker count.
    baseline = outcomes[1].report.to_json()
    for workers in WORKER_COUNTS[1:]:
        assert outcomes[workers].report.to_json() == baseline, \
            f"workers={workers}"

    # ... and to the plain concatenated-execution reference.
    corpus = corpora[1]
    state = corpus.merged_state()
    reference_session = Session(
        ConcatVideo([m.video for m in corpus.members], name=corpus.name),
        corpus.scoring, config=config_for(bench_scale))
    reference_session.adopt_phase1(state.entry, config_for(bench_scale))
    reference = QueryExecutor(reference_session).execute(
        corpus.query().topk(TOP_K).guarantee(THRES).plan())
    assert reference.to_json() == baseline

    speedup = prepare_timings[1] / prepare_timings[4]
    write_bench_result(
        "corpus_federated",
        scale=scale_label(bench_scale),
        seconds=sum(prepare_timings.values()) + sum(query_timings.values()),
        margin=speedup - 2.0 if bench_strict else None,
        shards=NUM_SHARDS,
        total_frames=corpora[1].total_frames,
        prepare_seconds={
            str(w): prepare_timings[w] for w in WORKER_COUNTS},
        prepare_speedup=speedup,
        byte_identical=True,
    )

    # Wall-clock acceptance: the pooled per-shard Phase-1 builds beat
    # the serial per-shard loop >= 2x at 4 workers, when the hardware
    # and workload can support it (quick-scale Phase 1 is too small to
    # amortize pool startup; it smoke-tests the path instead).
    if bench_strict and available_cpus() >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x prepare speedup with 4 prepare workers on "
            f"{available_cpus()} CPUs, got {speedup:.2f}x")
