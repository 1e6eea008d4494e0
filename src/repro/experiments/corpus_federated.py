"""Federated corpus experiment: one top-k over a whole camera fleet.

Not a paper figure — the paper's engine answers one video at a time —
but the measurement that justifies the corpus layer (DESIGN.md §9):
open N Table-7 counting videos as one :class:`~repro.corpus.corpus
.VideoCorpus`, answer the *global* "top-k frames across every feed"
query federated, and report

* how the cross-shard selector allocated the oracle budget (confirms
  per shard — the shards whose frames plausibly contend for the global
  answer get the spend, quiet shards get none);
* the global answer's shard composition and confidence; and
* the simulated speedup over scanning the whole fleet.

The federated run is byte-identical to a single-video run over the
concatenated footage (``tests/test_corpus_equivalence.py``), so these
numbers are exactly the paper's machinery at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..corpus.corpus import VideoCorpus
from ..oracle.detector import counting_udf
from ..service import QueryService
from .runner import (
    ExperimentScale,
    config_for,
    counting_videos,
    experiment_main,
    format_table,
)


@dataclass
class ShardMeasurement:
    """One shard's slice of a federated query."""

    member: str
    frames: int
    confirms: int
    confirm_share: float
    answers: int


@dataclass
class CorpusMeasurement:
    """One federated corpus query, summarized."""

    members: List[ShardMeasurement]
    k: int
    thres: float
    total_frames: int
    confidence: float
    cleaned: int
    speedup: float
    simulated_seconds: float


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    num_members: int = 3,
    k: int = 10,
    thres: float = 0.9,
    workers: Optional[int] = None,
    videos=None,
) -> CorpusMeasurement:
    """Answer one global top-k over ``num_members`` counting videos."""
    if videos is None:
        videos = counting_videos(scale)[:num_members]
    config = config_for(scale)
    corpus = VideoCorpus.open(videos, counting_udf("car"), config=config)
    query = corpus.query().topk(k).guarantee(thres)
    # The service builds the cold shards (side by side in pool workers
    # on its process lane); the per-shard detail is then read from a
    # warm run, byte-identical to the served report.
    with QueryService(workers=workers, max_pending=None) as service:
        service.submit(query).result()
    outcome = query.run_detailed()

    answer_counts = {name: 0 for name in corpus.member_names}
    for name, _local in outcome.answer_members():
        answer_counts[name] += 1
    total_confirms = max(1, sum(outcome.shard_confirms))
    members = [
        ShardMeasurement(
            member=member.name,
            frames=len(member.video),
            confirms=confirms,
            confirm_share=confirms / total_confirms,
            answers=answer_counts[member.name],
        )
        for member, confirms in zip(corpus.members, outcome.shard_confirms)
    ]
    report = outcome.report
    return CorpusMeasurement(
        members=members,
        k=k,
        thres=thres,
        total_frames=corpus.total_frames,
        confidence=report.confidence,
        cleaned=report.cleaned,
        speedup=report.speedup,
        simulated_seconds=report.simulated_seconds,
    )


def render(measurement: CorpusMeasurement) -> str:
    rows = [
        [
            shard.member,
            f"{shard.frames:,}",
            f"{shard.confirms}",
            f"{shard.confirm_share:.0%}",
            f"{shard.answers}",
        ]
        for shard in measurement.members
    ]
    table = format_table(
        ("shard", "frames", "confirms", "share", "answers"),
        rows,
        title=(
            f"Federated top-{measurement.k} over "
            f"{len(measurement.members)} shards "
            f"({measurement.total_frames:,} frames), "
            f"guarantee >= {measurement.thres:g}"
        ),
    )
    footer = (
        f"confidence={measurement.confidence:.3f} "
        f"cleaned={measurement.cleaned} "
        f"speedup={measurement.speedup:.1f}x "
        f"(simulated {measurement.simulated_seconds:.0f}s vs fleet scan)"
    )
    return f"{table}\n{footer}"


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main(ExperimentScale.bench())
