"""The federated top-k engine: one global Phase 2 over many shards.

The algorithmic insight is that the paper's Phase-2 machinery never
cares where a tuple's frame physically lives: the uncertain relation,
the CLT confidence state and the Eq-6 candidate selector are functions
of (ids, pmfs) alone. A corpus query is therefore the plain engine over
the members' :class:`~repro.video.views.ConcatVideo`, given

1. the **merged** Phase-1 entry: one global
   :class:`~repro.core.uncertain.UncertainRelation` over namespaced
   ``offset + local_frame`` ids — on one shared quantization grid, with
   every shard's labelled frames inserted as certain tuples exactly as
   a single-video build would (:func:`merge_phase1_entries`); and
2. the members' own score caches, seen through one per-query
   :class:`MemberScoreCaches` view: the confirming oracle is the plain
   :class:`~repro.oracle.cache.CachingOracle`, whose cache reads and
   writes each global id in its member's cache under the local id and
   counts the confirms each member served. The global selector *is*
   the cross-shard budget allocator: every iteration it hands the next
   batch to whichever shards own the frames with the highest expected
   confidence gain (Equation 6 over the merged relation).

The corpus report and the canonical merged ledger are therefore
**byte-identical** to a plain :class:`~repro.api.executor.QueryExecutor`
run over the ConcatVideo with the same merged entry at the same global
budget (certified by ``tests/test_corpus_equivalence``), and failures
are the plain run's: ``ConcatVideo.frames`` reads the members in
canonical order, so the earliest member's error is the one that
re-raises, and a batch that fails stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.phase1 import Phase1Entry
from ..core.result import QueryReport
from ..core.uncertain import (
    QuantizationGrid,
    build_relation,
    quantize_mixtures,
)
from ..oracle.cost import CostModel, merge_cost_models
from ..video.diff import DiffResult
from ..video.views import ConcatVideo, owners

# ----------------------------------------------------------------------
# Phase-1 merging
# ----------------------------------------------------------------------


def merged_grid(
    entries: Sequence[Phase1Entry], *, floor: float, step: float
) -> QuantizationGrid:
    """One quantization grid covering every shard's mixtures and labels.

    Each member's relation already sits on the grid a single-video
    build chose for it — over its *full prefix* even when a sliding
    window has evicted the mixtures below the edge; the shared grid
    takes the widest. ``ceil`` is monotone, so the maximum of the
    per-member level counts equals the level count a joint build over
    the concatenated mixtures would choose — which is what keeps a
    corpus-of-one bit-identical to the plain build.
    """
    return QuantizationGrid(floor=floor, step=step, num_levels=max(
        entry.relation.grid.num_levels for entry in entries))


def merge_phase1_entries(
    entries: Sequence[Phase1Entry],
    offsets: Sequence[int],
    *,
    floor: float,
    step: float,
) -> Phase1Entry:
    """Merge per-shard entries: artifacts, labels and ledgers.

    The relation is :func:`~repro.core.uncertain.build_relation`'s over
    the members' covered rows on :func:`merged_grid`, in member order
    (globally ascending ids, since offsets are cumulative), with every
    member's labelled frames as the known scores — for a single member
    the plain build, bit for bit.

    ``grid_result`` (so ``proxy``) / ``mixtures`` carry the *first*
    member's artifacts (canonical; heterogeneous shards train distinct
    proxies and no single model describes the union — the merged
    relation is the cross-shard artifact). The merged result serves
    frame-mode queries only.

    The merged ledger folds the member ledgers key-wise in canonical
    member order — the same association a later
    ``merge_cost_models([*phase1_costs, phase2])`` produces, so the
    corpus ``merged_cost`` is bit-identical to the reference ledger
    built from this entry.
    """
    grid = merged_grid(entries, floor=floor, step=step)
    covered_blocks: List[np.ndarray] = []
    retained_blocks: List[np.ndarray] = []
    rep_blocks: List[np.ndarray] = []
    known_global: Dict[int, float] = {}
    for offset, entry in zip(offsets, entries):
        offset = int(offset)
        retained = entry.diff_result.retained.astype(np.int64) + offset
        retained_blocks.append(retained)
        # The rows the mixtures cover: all of them, or the open-window
        # tail on a sliding member (lower rows have been evicted).
        covered_blocks.append(
            retained[retained.size - len(entry.mixtures.mu):])
        rep_blocks.append(
            entry.diff_result.representative.astype(np.int64) + offset)
        for frame, score in entry.known_scores.items():
            known_global[int(frame) + offset] = float(score)

    relation = build_relation(
        np.concatenate(covered_blocks),
        None,
        floor=floor,
        step=step,
        known_scores=known_global,
        grid=grid,
        pmf=np.vstack([
            quantize_mixtures(entry.mixtures, grid) for entry in entries]),
    )
    first = entries[0]
    return Phase1Entry(
        relation=relation,
        grid_result=first.grid_result,
        diff_result=DiffResult(
            retained=np.concatenate(retained_blocks),
            representative=np.concatenate(rep_blocks),
            num_frames=sum(e.diff_result.num_frames for e in entries),
        ),
        known_scores=known_global,
        mixtures=first.mixtures,
        cost_model=merge_cost_models(
            [entry.cost_model for entry in entries]),
    )


# ----------------------------------------------------------------------
# The members' score caches, seen by global frame id
# ----------------------------------------------------------------------


class MemberScoreCaches:
    """One corpus query's view of its members' score caches.

    Offers the :class:`~repro.oracle.cache.ScoreCache` surface a
    :class:`~repro.oracle.cache.CachingOracle` uses (``lookup`` /
    ``merge``) over global frame ids: global id ``g`` lives in its
    member's own cache under the local id ``ConcatVideo.locate(g)``
    gives, so a frame revealed by a member session (or by an earlier
    corpus query) is never scored again. Every id a lookup asks for —
    repeats included — counts as one confirm its member served.
    """

    def __init__(self, video: ConcatVideo, caches: Sequence):
        self.video = video
        self.caches = list(caches)
        #: Confirms each member served, canonical member order.
        self.confirms = [0] * len(self.caches)

    def lookup(self, frames: Iterable[int]) -> Dict[int, float]:
        frames = list(frames)
        found: Dict[int, float] = {}
        for member, rows, local in self.video.by_member(frames)[1]:
            self.confirms[member] += rows.size
            hits = self.caches[member].lookup(local.tolist())
            for row, frame in zip(rows.tolist(), local.tolist()):
                if frame in hits:
                    found[frames[row]] = hits[frame]
        return found

    def merge(self, items: Iterable[Tuple[int, float]]) -> None:
        items = list(items)
        groups = self.video.by_member([frame for frame, _ in items])[1]
        for member, rows, local in groups:
            self.caches[member].merge(zip(
                local.tolist(), (items[row][1] for row in rows.tolist())))


# ----------------------------------------------------------------------
# The outcome of one corpus query
# ----------------------------------------------------------------------


@dataclass
class CorpusOutcome:
    """Everything one federated corpus query produced.

    ``report`` is a standard :class:`~repro.core.result.QueryReport`
    whose ``answer_ids`` are global (namespaced) frame ids —
    byte-identical to the concatenated reference execution.
    """

    report: QueryReport
    #: The global Phase-2 ledger behind the report.
    phase2_cost: CostModel
    #: Per-shard Phase-1 ledgers, canonical member order.
    phase1_costs: List[CostModel]
    #: Confirmations each shard served.
    shard_confirms: List[int]
    member_names: List[str]
    offsets: List[int]
    #: Physical (cache-miss) confirmations.
    fresh_confirm_calls: int

    def merged_cost(self) -> CostModel:
        """The canonical corpus ledger (DESIGN.md §9 merge order).

        Per-shard Phase-1 ledgers fold in canonical member order, each
        exactly once, then the global Phase-2 ledger — the association
        the reference execution's ``[entry ledger, phase2]`` merge
        produces, so the result is byte-comparable against it.
        """
        return merge_cost_models([*self.phase1_costs, self.phase2_cost])

    def answer_members(self) -> List[Tuple[str, int]]:
        """The answer as ``(member_name, local_frame)`` pairs."""
        offsets = np.asarray(self.offsets, dtype=np.int64)
        ids = np.asarray(self.report.answer_ids, dtype=np.int64)
        members = owners(offsets, ids)
        return [
            (self.member_names[member], local)
            for member, local in zip(
                members.tolist(), (ids - offsets[members]).tolist())
        ]

    def allocation(self) -> Dict[str, int]:
        """Oracle confirmations the selector allocated to each shard."""
        return dict(zip(self.member_names, self.shard_confirms))
