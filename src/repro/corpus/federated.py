"""The federated top-k engine: one global Phase 2 over many shards.

The algorithmic insight is that the paper's Phase-2 machinery never
cares where a tuple's frame physically lives: the uncertain relation,
the CLT confidence state and the Eq-6 candidate selector are functions
of (ids, pmfs) alone. Federation therefore reduces to

1. **merging** per-shard Phase-1 artifacts into one global
   :class:`~repro.core.uncertain.UncertainRelation` over namespaced
   ``offset + local_frame`` ids — on one shared quantization grid, with
   every shard's labelled frames inserted as certain tuples exactly as
   a single-video build would (:func:`merge_phase1_entries`); and
2. **routing** each cleaning batch's confirmations back to the owning
   shards (:class:`FederatedOracle`). The global selector *is* the
   greedy cross-shard budget allocator: every iteration it hands the
   next batch to whichever shards own the frames with the highest
   expected confidence gain (Equation 6 evaluated over the merged
   relation), and the federated oracle enforces the global budget
   before any shard is touched, so the spend — like the answer — is
   identical to a single-video run over the concatenated footage.

Determinism contract (certified by ``tests/test_corpus_equivalence``):
the federated report and the canonical merged ledger are
**byte-identical** to a plain
:class:`~repro.api.executor.QueryExecutor` run over the
:class:`~repro.video.views.ConcatVideo` with the same merged entry at
the same global budget — for any shard count, and whether the query
runs alone or through the service. Failures are deterministic too:
per-shard budgets are checked in canonical member order *before* any
charge from the offending batch lands, and the shards' misses are
scored in canonical member order in the calling thread, so the
earliest member's error is the one that re-raises. (Scoring one
8-frame batch costs tens of µs of GIL-bound Python — less than a
thread or pool round trip — so the shards are not fanned out.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.executor import QueryExecutor
from ..core.phase1 import Phase1Entry, Phase1Result
from ..core.result import QueryReport
from ..core.uncertain import (
    QuantizationGrid,
    build_relation,
    quantize_mixtures,
)
from ..errors import (
    OracleBudgetExceededError,
    QueryError,
    ShardBudgetExceededError,
)
from ..oracle.base import Oracle
from ..oracle.cost import CostModel, merge_cost_models
from ..video.diff import DiffResult
from .corpus import locate_global

# ----------------------------------------------------------------------
# Phase-1 merging
# ----------------------------------------------------------------------


def merged_grid(
    results: Sequence[Phase1Result], *, floor: float, step: float
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
        result.relation.grid.num_levels for result in results))


def merge_phase1_entries(
    entries: Sequence[Phase1Entry],
    offsets: Sequence[int],
    *,
    floor: float,
    step: float,
) -> Phase1Entry:
    """Merge per-shard entries: artifacts, call counts and ledgers.

    The relation is :func:`~repro.core.uncertain.build_relation`'s over
    the members' covered rows on :func:`merged_grid`, in member order
    (globally ascending ids, since offsets are cumulative), with every
    member's labelled frames as the known scores — for a single member
    the plain build, bit for bit.

    ``proxy`` / ``grid_result`` / ``mixtures`` carry the *first*
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
    results = [entry.result for entry in entries]
    grid = merged_grid(results, floor=floor, step=step)
    covered_blocks: List[np.ndarray] = []
    retained_blocks: List[np.ndarray] = []
    rep_blocks: List[np.ndarray] = []
    known_global: Dict[int, float] = {}
    for offset, result in zip(offsets, results):
        offset = int(offset)
        retained = result.diff_result.retained.astype(np.int64) + offset
        retained_blocks.append(retained)
        # The rows the mixtures cover: all of them, or the open-window
        # tail on a sliding member (lower rows have been evicted).
        covered_blocks.append(
            retained[retained.size - len(result.mixtures.mu):])
        rep_blocks.append(
            result.diff_result.representative.astype(np.int64) + offset)
        for frame, score in result.known_scores.items():
            known_global[int(frame) + offset] = float(score)

    relation = build_relation(
        np.concatenate(covered_blocks),
        None,
        floor=floor,
        step=step,
        known_scores=known_global,
        grid=grid,
        pmf=np.vstack([
            quantize_mixtures(result.mixtures, grid) for result in results]),
    )
    first = results[0]
    return Phase1Entry(
        result=Phase1Result(
            relation=relation,
            proxy=first.proxy,
            grid_result=first.grid_result,
            diff_result=DiffResult(
                retained=np.concatenate(retained_blocks),
                representative=np.concatenate(rep_blocks),
                num_frames=sum(r.diff_result.num_frames for r in results),
            ),
            known_scores=known_global,
            mixtures=first.mixtures,
        ),
        oracle_calls=sum(entry.oracle_calls for entry in entries),
        cost_model=merge_cost_models(
            [entry.cost_model for entry in entries]),
    )


# ----------------------------------------------------------------------
# The federated confirming oracle
# ----------------------------------------------------------------------


class FederatedOracle(Oracle):
    """A confirming oracle that routes each batch to its shards.

    Charging, call counting and *global* budget enforcement are
    byte-identical to the plain :class:`~repro.oracle.base.Oracle`: the
    global ledger receives one charge per batch and the budget check
    precedes any work, so a federated report cannot differ from the
    concatenated reference. On top of that it keeps per-shard
    attribution — one :class:`~repro.oracle.cost.CostModel` view, call
    counter and optional budget per member — and consults the members'
    score caches (local frame ids).

    Failure discipline: the global budget, then every shard budget in
    canonical member order, are checked *before* the batch charges
    anything — a failed allocation leaves every ledger (global and
    per-shard) exactly as it was, so retries never double-charge.
    """

    def __init__(
        self,
        scoring,
        cost_model: CostModel,
        *,
        videos: Sequence,
        member_names: Sequence[str],
        offsets: np.ndarray,
        shard_costs: Sequence[CostModel],
        caches: Sequence[Optional[object]],
        budget: Optional[int] = None,
        shard_budgets: Optional[Sequence[Optional[int]]] = None,
        cost_key: str = "oracle_confirm",
    ):
        super().__init__(
            scoring, cost_model, budget=budget, cost_key=cost_key)
        self.videos = list(videos)
        self.member_names = list(member_names)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.shard_costs = list(shard_costs)
        self.caches = list(caches)
        self.shard_budgets = list(
            shard_budgets if shard_budgets is not None
            else [None] * len(self.videos))
        self.shard_calls = [0] * len(self.videos)
        self.fresh_calls = 0

    # ------------------------------------------------------------------
    def locate(self, global_id: int) -> Tuple[int, int]:
        return locate_global(self.offsets, global_id)

    def score(self, video, indices: Sequence[int]) -> np.ndarray:
        indices = [int(i) for i in indices]
        if self.budget is not None and \
                self.calls + len(indices) > self.budget:
            raise OracleBudgetExceededError(self.budget)

        # Group by owning member, preserving intra-batch positions.
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for position, global_id in enumerate(indices):
            member, local = self.locate(global_id)
            groups.setdefault(member, []).append((position, local))
        order = sorted(groups)

        # Per-shard budgets, canonical member order, before any charge.
        for member in order:
            limit = self.shard_budgets[member]
            if limit is not None and \
                    self.shard_calls[member] + len(groups[member]) > limit:
                raise ShardBudgetExceededError(
                    limit, self.member_names[member])

        self.calls += len(indices)
        self.cost_model.charge(self.cost_key, len(indices))

        # Cached scores first, then every member's misses, scored here in
        # canonical member order before anything is stored: a batch that
        # fails part-way (the earliest member's error re-raises) leaves
        # every cache and shard ledger as it was.
        known: Dict[int, Dict[int, float]] = {}
        fresh: List[Tuple[int, List[int], np.ndarray]] = []
        for member in order:
            locals_ = [local for _, local in groups[member]]
            cache = self.caches[member]
            known[member] = cache.lookup(locals_) if cache is not None else {}
            missing = list(dict.fromkeys(
                local for local in locals_ if local not in known[member]))
            if missing:
                fresh.append((member, missing, np.asarray(
                    self.scoring(self.videos[member].frames(missing)))))
        for member, missing, scores in fresh:
            revealed = dict(zip(missing, map(float, scores)))
            known[member].update(revealed)
            if self.caches[member] is not None:
                self.caches[member].merge(revealed.items())
            self.fresh_calls += len(missing)

        # Per-shard attribution and the scatter back into batch order.
        out = np.empty(len(indices), dtype=np.float64)
        for member in order:
            pairs = groups[member]
            self.shard_calls[member] += len(pairs)
            ledger = self.shard_costs[member]
            ledger.charge(self.cost_key, len(pairs))
            ledger.charge("decode", len(pairs))
            for position, local in pairs:
                out[position] = known[member][local]
        return out


# ----------------------------------------------------------------------
# Execution
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
    #: Per-shard Phase-1 ledgers, canonical member order (a single
    #: archive ledger for split corpora).
    phase1_costs: List[CostModel]
    #: Per-shard Phase-2 attribution views (confirm + decode charges).
    shard_costs: List[CostModel]
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
        resolved = []
        for global_id in self.report.answer_ids:
            member, local = locate_global(offsets, global_id)
            resolved.append((self.member_names[member], local))
        return resolved

    def allocation(self) -> Dict[str, int]:
        """Oracle confirmations the selector allocated to each shard."""
        return dict(zip(self.member_names, self.shard_confirms))


class FederatedTopK:
    """Federated top-k over a :class:`~repro.corpus.corpus.VideoCorpus`.

    A cold corpus's missing member builds run one after another
    (:meth:`~repro.corpus.corpus.VideoCorpus.prepare`; a
    :class:`~repro.service.QueryService` fans them out first);
    confirmations are scored in the calling thread.
    """

    def __init__(self, corpus):
        self.corpus = corpus

    def execute(self, plan, *,
                shard_budgets: Optional[Sequence[Optional[int]]] = None
                ) -> QueryReport:
        return self.execute_detailed(
            plan, shard_budgets=shard_budgets).report

    def execute_detailed(
        self,
        plan,
        *,
        shard_budgets: Optional[Sequence[Optional[int]]] = None,
    ) -> CorpusOutcome:
        """Run one compiled plan federated; returns the full outcome.

        The plain executor runs it with the confirming oracle swapped
        out — the relation read, the cleaning loop, ledger assembly and
        report construction are the single-video ones, so the corpus
        report *is* a plain report over the merged relation. Only
        frame-mode plans are accepted: window semantics across shard
        boundaries are undefined.
        """
        if plan.mode != "frames":  # before the merge builds any Phase 1
            raise QueryError(
                "corpus queries rank frames; window aggregation across "
                "shard boundaries is undefined — query a member "
                "session for windows")
        corpus = self.corpus
        state = corpus.merged_state(plan.config)
        videos = [member.video for member in corpus.members]
        # Members route their own caches (local frame ids).
        caches = [
            member.session.shared_score_cache for member in corpus.members]

        def confirm_oracle(plan, phase2_cost: CostModel) -> Oracle:
            return FederatedOracle(
                corpus.scoring,
                phase2_cost,
                videos=videos,
                member_names=corpus.member_names,
                offsets=corpus.offsets(),
                shard_costs=[CostModel(plan.unit_costs) for _ in videos],
                caches=caches,
                budget=plan.oracle_budget,
                shard_budgets=shard_budgets,
            )

        executor = QueryExecutor(
            state.session, confirm_oracle=confirm_oracle)
        detail = executor.execute_detailed(plan)
        oracle = executor.last_confirm_oracle
        assert isinstance(oracle, FederatedOracle)
        return CorpusOutcome(
            report=detail.report,
            phase2_cost=detail.phase2_cost,
            phase1_costs=list(state.phase1_costs),
            shard_costs=list(oracle.shard_costs),
            shard_confirms=list(oracle.shard_calls),
            member_names=corpus.member_names,
            offsets=[int(o) for o in corpus.offsets()],
            fresh_confirm_calls=oracle.fresh_calls,
        )
