"""Plan execution: Phase 2 cleaning against a session's cached Phase 1.

:class:`QueryExecutor` is the only place that turns a
:class:`~repro.api.plan.QueryPlan` into work: it fetches (or builds)
the session's Phase 1 artifacts, materializes the frame- or
window-level uncertain relation, runs the cleaning loop with a fresh
cost ledger, and assembles the :class:`~repro.core.result.QueryReport`.
Every execution reads the cached relation in place and keeps what it
cleans in its own :class:`~repro.core.cleaner.TopKCleaner`, so a query
never perturbs its session and per-query Table 8 breakdowns stay
exact. Many plans fan out one level up (a
:class:`~repro.service.QueryService`, DESIGN.md §6); every one still
ends in :meth:`QueryExecutor.execute_detailed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.cleaner import TopKCleaner
from ..core.result import PhaseBreakdown, QueryReport
from ..core.uncertain import restrict_relation
from ..core.windows import WindowCleaner
from ..errors import QueryError
from ..oracle.base import Oracle
from ..oracle.cache import CachingOracle
from ..oracle.cost import CostModel
from ..trace import span as trace_span
from ..video.streaming import is_sliding
from .plan import QueryPlan
from .session import Phase1Entry, Session


@dataclass
class ExecutionDetail:
    """A report plus the per-query Phase 2 ledger that produced it.

    The ledger is what parallel sweeps merge (see
    :meth:`~repro.oracle.cost.CostModel.merge_from`): it contains only
    this query's Phase 2 charges, never the shared Phase 1 ledger.
    ``fresh_confirm_calls`` is the physical (cache-miss) confirmation
    count — the ledger always carries the full charges.
    """

    report: QueryReport
    phase2_cost: CostModel
    fresh_confirm_calls: int


class QueryExecutor:
    """Executes compiled plans against one session, in-process.

    Confirmations go through a
    :class:`~repro.oracle.cache.CachingOracle` over the session's
    :attr:`Session.shared_score_cache` (its own, its stream's, or its
    service group's): ledgers and reports are those of a plain
    :class:`~repro.oracle.base.Oracle`, but frames an earlier query
    already cleaned are not physically re-scored. This
    is what makes a repeated query cheap, the cross-query sharing hook
    the service layer builds on (DESIGN.md §8) and what makes a
    stream's per-event re-certification delta-sized (§7). A plan's
    cache-miss confirmations ride its :class:`ExecutionDetail`, and
    :attr:`fresh_confirm_calls` totals them over this executor's
    plans — a stream event's refresh pass reads its own executor's.

    ``confirm_oracle`` — a ``(plan, phase2_cost) -> Oracle`` factory —
    replaces the confirming oracle altogether; the relation, the
    cleaning loop, ledger assembly and report construction stay as
    they are. A corpus query uses it to confirm through its members'
    score caches (DESIGN.md §9); the guarantee audit, to record what
    was scored.
    """

    def __init__(
        self,
        session: Session,
        *,
        confirm_oracle: Optional[
            Callable[[QueryPlan, CostModel], Oracle]] = None,
    ):
        self.session = session
        # The factory or None — not a bound method of self, which would
        # be a reference cycle keeping every executor (and whatever its
        # oracle closes over) alive until the cyclic GC runs.
        self._confirm_oracle = confirm_oracle
        #: The confirming oracle behind the most recent execution —
        #: how callers (the process lane, the guarantee audit, tests)
        #: read what it revealed or recorded.
        self.last_confirm_oracle: Optional[Oracle] = None
        #: Cache-miss confirmations of every plan this executor ran.
        self.fresh_confirm_calls = 0

    def execute(self, plan: QueryPlan) -> QueryReport:
        return self.execute_detailed(plan).report

    def execute_detailed(self, plan: QueryPlan) -> ExecutionDetail:
        session = self.session
        if (plan.video_name != session.video.name
                or plan.num_frames != len(session.video)
                or plan.udf_name != session.scoring.name):
            raise QueryError(
                f"plan targets ({plan.video_name!r}, {plan.num_frames} "
                f"frames, {plan.udf_name!r}) but the session opened "
                f"({session.video.name!r}, {len(session.video)} frames, "
                f"{session.scoring.name!r})")
        if plan.mode == "frames" and plan.frame_ranges is None \
                and is_sliding(session.video):
            # The maintained relation holds only the open window, so
            # an unrestricted plan would silently mislabel a windowed
            # answer as a full-prefix one. The fluent builder windows
            # every plan implicitly; this guard is for hand-built ones.
            raise QueryError(
                "plans on a windowed session must carry a sliding "
                "window; compile them with session.query() (the "
                "session window applies implicitly)")
        entry = session.phase1(plan.config)
        if plan.mode == "windows":
            detail = self._run_windows(plan, entry)
        else:
            detail = self._run_frames(plan, entry)
        self.fresh_confirm_calls += detail.fresh_confirm_calls
        return detail

    # ------------------------------------------------------------------
    def _phase2_context(self, plan: QueryPlan):
        """A fresh per-query cost ledger plus the confirming oracle."""
        phase2_cost = CostModel(plan.unit_costs)
        make_oracle = self._confirm_oracle or self._default_confirm_oracle
        confirm_oracle = make_oracle(plan, phase2_cost)
        self.last_confirm_oracle = confirm_oracle
        return phase2_cost, confirm_oracle

    def _default_confirm_oracle(
        self, plan: QueryPlan, phase2_cost: CostModel
    ) -> Oracle:
        """The Phase 2 confirming oracle, over the session's cache."""
        return CachingOracle(
            self.session.scoring,
            phase2_cost,
            cache=self.session.shared_score_cache,
            cost_key="oracle_confirm",
            budget=plan.oracle_budget,
        )

    def _clean(
        self, plan, entry, relation, clean_fn, phase2_cost, confirm_oracle
    ) -> ExecutionDetail:
        """The shared Phase 2 tail: cleaning loop + report assembly."""
        cleaner = TopKCleaner(
            relation,
            clean_fn,
            plan.config.phase2,
            cost_model=phase2_cost,
        )
        with trace_span(
                "clean_loop", category="phase2", ledger=phase2_cost,
                k=plan.k, thres=plan.thres,
                mode=plan.mode) as loop_span:
            outcome = cleaner.run(plan.k, plan.thres)
            # A factory's plain Oracle pays every confirmation.
            fresh = getattr(
                confirm_oracle, "fresh_calls", confirm_oracle.calls)
            if loop_span is not None:
                loop_span.set(
                    iterations=outcome.iterations,
                    cleaned=outcome.cleaned,
                    confidence=outcome.confidence,
                    confirm_calls=confirm_oracle.calls,
                    fresh_confirm_calls=fresh)
        report = self._report(
            plan, outcome, entry, phase2_cost,
            oracle_calls=entry.oracle_calls + confirm_oracle.calls,
            num_tuples=len(relation),
        )
        return ExecutionDetail(
            report=report, phase2_cost=phase2_cost, fresh_confirm_calls=fresh)

    def _run_frames(
        self, plan: QueryPlan, entry: Phase1Entry
    ) -> ExecutionDetail:
        session = self.session
        phase2_cost, confirm_oracle = self._phase2_context(plan)
        relation = entry.relation
        if plan.frame_ranges is not None:
            # Sliding-window restriction: mask the cached full relation
            # down to the window's rows on the same grid. A windowed
            # maintainer's relation is the window already and comes
            # back as it is.
            with trace_span(
                    "window_slide", category="phase2",
                    window_seconds=plan.window_seconds,
                    num_ranges=len(plan.frame_ranges)) as slide_span:
                relation = restrict_relation(relation, plan.frame_ranges)
                if slide_span is not None:
                    slide_span.set(num_tuples=len(relation))

        def clean_fn(ids: Sequence[int]) -> np.ndarray:
            phase2_cost.charge("decode", len(ids))
            return confirm_oracle.score(session.video, ids)

        return self._clean(
            plan, entry, relation, clean_fn, phase2_cost, confirm_oracle)

    def _run_windows(
        self, plan: QueryPlan, entry: Phase1Entry
    ) -> ExecutionDetail:
        session = self.session
        assert plan.window_size is not None and plan.window_step is not None
        with trace_span(
                "window_relation", category="phase2",
                window_size=plan.window_size, window_step=plan.window_step):
            relation = entry.window_relation(
                window_size=plan.window_size,
                floor=session.scoring.score_floor,
                step=plan.window_step,
            )
        phase2_cost, confirm_oracle = self._phase2_context(plan)
        clean_fn = WindowCleaner(
            video=session.video,
            oracle=confirm_oracle,
            window_size=plan.window_size,
            seed=plan.config.seed,
            cost_model=phase2_cost,
        )
        return self._clean(
            plan, entry, relation, clean_fn, phase2_cost, confirm_oracle)

    # ------------------------------------------------------------------
    def _breakdown(
        self, entry: Phase1Entry, phase2_cost: CostModel
    ) -> PhaseBreakdown:
        p1 = entry.cost_model
        return PhaseBreakdown(
            label_sample=p1.seconds("oracle_label"),
            cmdn_training=p1.seconds("cmdn_train"),
            populate_d0=(
                p1.seconds("cmdn_infer")
                + p1.seconds("diff_detect")
                + p1.seconds("decode")
            ),
            confirm_oracle=(
                phase2_cost.seconds("oracle_confirm")
                + phase2_cost.seconds("decode")
            ),
        )

    def _report(
        self,
        plan: QueryPlan,
        outcome,
        entry: Phase1Entry,
        phase2_cost: CostModel,
        *,
        oracle_calls: int,
        num_tuples: int,
    ) -> QueryReport:
        session = self.session
        best = entry.grid_result.best_history
        return QueryReport(
            video_name=session.video.name,
            udf_name=session.scoring.name,
            k=plan.k,
            thres=plan.thres,
            window_size=plan.window_size,
            num_frames=len(session.video),
            answer_ids=outcome.answer_ids,
            answer_scores=outcome.answer_scores,
            confidence=outcome.confidence,
            iterations=outcome.iterations,
            cleaned=outcome.cleaned,
            num_tuples=num_tuples,
            num_retained=entry.diff_result.num_retained,
            oracle_calls=oracle_calls,
            breakdown=self._breakdown(entry, phase2_cost),
            scan_seconds=session.scan_seconds(),
            proxy_hyperparameters=best.hyperparameters,
            holdout_nll=best.holdout_nll,
            confidence_trace=outcome.confidence_trace,
            selection_examine_fraction=(
                outcome.selection_stats.examine_fraction
                if outcome.selection_stats else 0.0
            ),
        )
