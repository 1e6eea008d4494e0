"""Federated top-k over a fleet of cameras — one answer, many shards.

A city operator asks "the top-10 busiest moments across all three
feeds from last week". The corpus opens one session per camera, runs
Phase 1 independently per shard, merges the per-shard uncertain
relations into one global relation over namespaced frame keys, and
drives a single Phase-2 cleaning loop whose candidate selector
allocates the oracle budget greedily across shards by expected
confidence gain. The report — answer, confidence, ledger — is
byte-identical to running the paper's engine over the concatenated
footage, but every artifact stayed per-shard.

Also shown: the registry's corpus spec grammar.

Run:  PYTHONPATH=src python examples/corpus_topk.py
"""

from __future__ import annotations

from repro import EverestConfig, VideoCorpus
from repro.api import resolve_corpus
from repro.oracle import counting_udf
from repro.video import TrafficVideo


def main() -> None:
    config = EverestConfig.fast()

    # -- a fleet of three cameras, one global question ----------------
    cameras = [
        TrafficVideo(f"intersection-{i}", 1_200, seed=100 + i)
        for i in range(3)
    ]
    corpus = VideoCorpus.open(cameras, counting_udf("car"), config=config)
    query = corpus.query().topk(10).guarantee(0.9)
    print(query.explain(), "\n")

    outcome = query.run_detailed()
    report = outcome.report
    print(report.summary())
    print("answer by shard:")
    for name, local in outcome.answer_members():
        print(f"  {name} frame {local}")
    print("oracle budget allocation:", outcome.allocation())
    merged = outcome.merged_cost()
    print(f"merged ledger: {merged.total_seconds():.0f}s simulated "
          f"({merged.units('oracle_confirm'):.0f} confirms across "
          f"{corpus.num_members} shards)\n")

    # -- the registry spec grammar ------------------------------------
    named = resolve_corpus(
        "count[car]@{traffic,dashcam}", num_frames=800, config=config)
    print(f"resolved corpus {named.name!r}: "
          f"{named.num_members} members, {named.total_frames} frames")


if __name__ == "__main__":
    main()
