"""Streaming sessions: maintain answers over a growing video.

A :class:`StreamingSession` is a :class:`~repro.api.session.Session`
whose video is a :class:`~repro.video.streaming.StreamingVideo` view.
Opening one pins the Phase-1 training policy to the bootstrap segment
(``phase1.sample_prefix``), which is what makes every live answer
comparable — bit-identically, while drift auditing is off — to a batch
run of the engine over the same frames under the same policy:

    stream = Session.open_stream(video, "count[car]", initial_frames=5_000)
    live = stream.query().topk(10).guarantee(0.9).subscribe()
    stream.append(900)        # one report per append, per subscription
    live.latest.summary()

``append`` advances the watermark, folds the arrivals into the
incremental Phase-1 state, and re-certifies every subscription through
a cache-backed executor, so the *physical* oracle work per append
scales with the delta while reports keep batch semantics.
``checkpoint``/``resume`` persist the whole state through the artifact
store; a resumed session re-serves its watermark with **zero** Phase-1
oracle calls.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.executor import QueryExecutor
from ..api.session import Phase1Entry, Session, phase1_key
from ..config import EverestConfig
from ..core.result import QueryReport
from ..errors import CheckpointError, QueryError
from ..oracle.cost import CostModel
from ..trace import span as trace_span
from ..video.streaming import Segment, StreamingVideo
from .live_topk import CachingOracle, LiveTopK, ScoreCache
from .phase1_incremental import (
    IncrementalPhase1,
    StreamingConfig,
    StreamingStats,
)
from .store import read_checkpoint, write_checkpoint


@dataclass
class AppendResult:
    """Everything one ``append`` changed, for callers and experiments."""

    segment: Segment
    watermark: int
    #: One refreshed report per live subscription, in subscribe order.
    reports: List[QueryReport] = field(default_factory=list)
    #: Drift statistic after auditing (None while unknown / disabled).
    drift: Optional[float] = None
    retrained: bool = False
    audited: int = 0
    #: Physical (cache-miss) work this append actually paid.
    fresh_label_calls: int = 0
    fresh_confirm_calls: int = 0
    fresh_inferred_frames: int = 0
    wall_seconds: float = 0.0

    @property
    def fresh_oracle_calls(self) -> int:
        return self.fresh_label_calls + self.fresh_confirm_calls

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe summary (the gateway's ``/append`` payload).

        Reports are serialized through their canonical
        :meth:`~repro.core.result.QueryReport.to_json` strings so the
        wire bytes equal direct in-process execution's.
        """
        return {
            "segment": {
                "index": self.segment.index,
                "start": self.segment.start,
                "end": self.segment.end,
            },
            "watermark": self.watermark,
            "reports": [report.to_json() for report in self.reports],
            "drift": self.drift,
            "retrained": self.retrained,
            "audited": self.audited,
            "fresh_label_calls": self.fresh_label_calls,
            "fresh_confirm_calls": self.fresh_confirm_calls,
            "fresh_inferred_frames": self.fresh_inferred_frames,
            "wall_seconds": self.wall_seconds,
        }


class StreamingSession(Session):
    """An appendable (video, UDF) session with live-maintained answers."""

    def __init__(
        self,
        video,
        scoring,
        *,
        initial_frames: Optional[int] = None,
        config: Optional[EverestConfig] = None,
        unit_costs: Optional[Dict[str, float]] = None,
        streaming: Optional[StreamingConfig] = None,
        autosave_path=None,
        score_cache: Optional[ScoreCache] = None,
    ):
        if isinstance(video, StreamingVideo):
            if initial_frames is not None:
                raise QueryError(
                    "initial_frames is implied by an existing "
                    "StreamingVideo; pass one or the other")
            stream = video
        else:
            if initial_frames is None:
                raise QueryError(
                    "open_stream needs initial_frames: the bootstrap "
                    "segment Phase 1 trains on")
            stream = StreamingVideo(video, initial_frames)
        config = config if config is not None else EverestConfig()
        if config.phase1.sample_prefix is None:
            # Pin training to the bootstrap segment: the policy under
            # which live answers equal batch re-runs (DESIGN.md §7).
            config = dataclasses.replace(
                config,
                phase1=dataclasses.replace(
                    config.phase1, sample_prefix=stream.watermark),
            )
        self._user_unit_costs = dict(unit_costs) if unit_costs else None
        super().__init__(stream, scoring, config=config,
                         unit_costs=unit_costs)
        self.streaming = streaming if streaming is not None \
            else StreamingConfig()
        self.autosave_path = autosave_path
        # Every executor over this session confirms through one
        # revelation memo, which is what makes re-certification
        # delta-sized. ``score_cache`` lets the service layer promote it
        # to service scope (shared with batch queries over the same
        # footage); ledgers are unaffected either way.
        self.shared_score_cache = score_cache if score_cache is not None \
            else ScoreCache()
        self._stats = StreamingStats()
        #: Service hook: when set, ``append`` hands the per-append
        #: subscription refresh pass to this callable (the service
        #: routes it through its scheduler) instead of running inline.
        self.refresh_dispatcher = None
        self._incremental = IncrementalPhase1(
            stream,
            CachingOracle(
                scoring,
                CostModel(self._unit_costs),
                cache=self.shared_score_cache,
                cost_key="oracle_label",
            ),
            self.config, self._unit_costs, self.streaming, self._stats)
        #: Where the maintained entry lives in the Phase-1 cache.
        self._key = phase1_key(self.config)
        self._subscriptions: List[LiveTopK] = []
        self._append_log: List[AppendResult] = []

    # ------------------------------------------------------------------
    # Streaming lifecycle
    # ------------------------------------------------------------------
    @property
    def video_stream(self) -> StreamingVideo:
        return self.video  # typed alias; Session stores it as .video

    @property
    def watermark(self) -> int:
        return self.video.watermark

    @property
    def segments(self) -> List[Segment]:
        return self.video.segments

    @property
    def stats(self) -> StreamingStats:
        self._stats.fresh_label_calls = \
            self._incremental.label_oracle.fresh_calls
        return self._stats

    @property
    def diverged(self) -> bool:
        """True once auditing/retraining broke batch-ledger equality."""
        return self._incremental.diverged

    @property
    def drift(self) -> Optional[float]:
        tracker = self._incremental.drift_tracker
        return tracker.drift if tracker is not None else None

    @property
    def append_log(self) -> List[AppendResult]:
        return list(self._append_log)

    def append(self, num_frames: int) -> AppendResult:
        """Reveal ``num_frames`` more source frames and re-certify.

        Folds the arrivals into the Phase-1 state (diff, inference,
        relation; drift audit and possible warm retrain when enabled),
        refreshes every subscription, and returns the
        :class:`AppendResult` — including the physical cache-miss work
        this append paid, as opposed to the batch-equivalent charges
        its reports carry.
        """
        self.phase1()
        started = time.perf_counter()
        before = self.stats.snapshot()
        segment = self.video.append(num_frames)
        entry, outcome = self._incremental.advance(segment)
        self._phase1_cache[self._key] = entry
        self._stats.appends += 1
        return self._finish_event(
            started, before, self._append_log,
            AppendResult(
                segment=segment,
                watermark=self.watermark,
                drift=outcome.drift,
                retrained=outcome.retrained,
                audited=outcome.audited,
                fresh_label_calls=(
                    self._incremental.label_oracle.fresh_calls
                    - before["fresh_label_calls"]),
            ))

    def _finish_event(self, started: float, before: Dict[str, int],
                      log: list, result):
        """The tail every clock event (append, tick) shares.

        Refreshes every subscription even if one fails (e.g. a
        subscribed query's oracle budget trips): the video clock and
        Phase-1 state have already advanced, so the event must
        complete its bookkeeping either way — the first error
        re-raises after the result is logged, leaving the session
        consistent and retryable. A service-attached session hands
        the whole pass to the dispatcher (one scheduled job, so it
        competes fairly with batch tenants) and blocks on it — and a
        dispatch failure (admission refusal, service closing) is
        treated exactly like a refresh failure.
        """
        if self.refresh_dispatcher is not None:
            try:
                result.reports, refresh_error = \
                    self.refresh_dispatcher(self._refresh_subscriptions)
            except Exception as error:
                refresh_error = error
        else:
            result.reports, refresh_error = self._refresh_subscriptions()
        after = self.stats.snapshot()
        result.fresh_confirm_calls = \
            after["fresh_confirm_calls"] - before["fresh_confirm_calls"]
        result.fresh_inferred_frames = \
            after["fresh_inferred_frames"] - before["fresh_inferred_frames"]
        result.wall_seconds = time.perf_counter() - started
        log.append(result)
        self._trim_history()
        if self.autosave_path is not None:
            self.checkpoint(self.autosave_path)
        if refresh_error is not None:
            raise refresh_error
        return result

    def _trim_history(self) -> None:
        """Bound per-event history under ``max_history``.

        Trims only *delivered* results — the append log and each
        subscription's report history (the latest always survives).
        Phase-1 bookkeeping and, on windowed sessions, the window's
        own frame set are never touched: history pruning must not
        evict frames still inside an open window (DESIGN.md §13).
        """
        limit = self.streaming.max_history
        if limit is None:
            return
        del self._append_log[:-limit]
        for subscription in self._subscriptions:
            subscription.trim(limit)

    def _refresh_subscriptions(self):
        """One refresh pass over every subscription (see append)."""
        reports: List[QueryReport] = []
        refresh_error: Optional[BaseException] = None
        for index, subscription in enumerate(self._subscriptions):
            try:
                with trace_span(
                        "subscription_refresh", category="streaming",
                        subscription=index,
                        watermark=self.watermark) as refresh_span:
                    report = subscription.refresh(QueryExecutor(self))
                    if refresh_span is not None:
                        refresh_span.set(
                            k=report.k, confidence=report.confidence)
                reports.append(report)
            except Exception as error:
                if refresh_error is None:
                    refresh_error = error
        return reports, refresh_error

    def share_inference_cache(self, shared) -> None:
        """Adopt a service-scope block-inference cache (DESIGN.md §8).

        Proxy mixtures already inferred by sibling sessions over the
        same artifact become free here (and vice versa). No-op once
        this session has warm-retrained — its proxy is private then.
        """
        self._incremental.adopt_inference_cache(shared)

    def subscribe(self, query) -> LiveTopK:
        """Register a query for per-append maintenance.

        The subscription is refreshed immediately (its first report
        answers over the current watermark) and again on every append.
        """
        if query.session is not self:
            raise QueryError(
                "subscribe a query built from this streaming session")
        self.phase1()
        subscription = LiveTopK(query=query)
        subscription.refresh(QueryExecutor(self))
        self._subscriptions.append(subscription)
        return subscription

    def attach_subscription(self, subscription) -> None:
        """Register an external live consumer refreshed on every append.

        The object only needs the subscription protocol —
        ``refresh(executor)`` returning a report and
        ``trim(max_history)``. This is how corpus subscriptions
        (DESIGN.md §9) ride the per-append refresh pass: a member's
        append re-certifies the *federated* answer alongside the
        member's own live queries, under the same error/bookkeeping
        discipline (and through the service dispatcher when attached).
        """
        self.phase1()
        self._subscriptions.append(subscription)

    @property
    def subscriptions(self) -> List[LiveTopK]:
        return list(self._subscriptions)

    # ------------------------------------------------------------------
    # Session surface, redirected at the incremental state
    # ------------------------------------------------------------------
    def _check_config(self, config: Optional[EverestConfig]) -> None:
        if config is not None and \
                phase1_key(config) != self._key:
            raise QueryError(
                "streaming sessions maintain Phase 1 for the session "
                "configuration only; Phase 2 overrides are fine, but "
                "a different (phase1, diff, seed) needs its own session")

    def phase1(self, config: Optional[EverestConfig] = None) -> Phase1Entry:
        self._check_config(config)
        entry = self._phase1_cache.get(self._key)
        if entry is None:
            entry = self._phase1_cache[self._key] = \
                self._incremental.bootstrap()
        return entry

    def phase1_cost_model(
        self, config: Optional[EverestConfig] = None
    ) -> CostModel:
        return self.phase1(config).cost_model

    def adopt_phase1(self, entry, config=None) -> None:
        raise QueryError(
            "streaming sessions build Phase 1 incrementally; "
            "adopt_phase1 is a batch-session operation")

    def execute_many(
        self, plans: Sequence, *, workers: Optional[int] = None
    ) -> List[QueryReport]:
        if workers is not None and workers > 1:
            # Make the single-process constraint visible instead of
            # silently delivering no speedup.
            raise QueryError(
                "streaming sessions execute serially (the incremental "
                "state is single-process); fan a sweep out from a "
                "batch Session instead")
        executor = QueryExecutor(self)
        return [executor.execute(plan) for plan in plans]

    # ------------------------------------------------------------------
    # Batch reference
    # ------------------------------------------------------------------
    def batch_session(self) -> Session:
        """A from-scratch batch session over the current prefix.

        Shares nothing with this session except the (sealed) frames
        and the pinned configuration — the reference the equivalence
        suite compares live answers against.
        """
        return Session(
            self.video.snapshot(),
            self.scoring,
            config=self.config,
            unit_costs=self._user_unit_costs,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> None:
        """Persist the full streaming state to ``path`` (a directory).

        Subscriptions are not persisted (they close over live session
        objects); re-subscribe after :meth:`resume`. Everything else —
        watermark, CMDN weights, diff arrays, inference blocks, score
        cache, ledgers, drift state — round-trips, so the resumed
        session re-serves its watermark with zero Phase-1 oracle calls.
        """
        self.phase1()
        state = self._checkpoint_state()
        write_checkpoint(
            path,
            state,
            metadata={
                "video_name": self.video.name,
                "udf_name": self.scoring.name,
                "watermark": self.watermark,
                "segments": len(self.video.segments),
                "diverged": self.diverged,
            },
        )

    def _checkpoint_state(self) -> Dict[str, object]:
        """The pickled state dict (subclasses add their own fields)."""
        return {
            "video": self.video,
            "scoring": self.scoring,
            "config": self.config,
            "user_unit_costs": self._user_unit_costs,
            "streaming": self.streaming,
            "autosave_path": self.autosave_path,
            "incremental": self._incremental,
            "cache": self.shared_score_cache,
            "stats": self.stats,
            "append_log": self._append_log,
        }

    def _restore_extra(self, state: Dict[str, object]) -> None:
        """Splice subclass-only checkpoint fields back in (hook)."""

    @classmethod
    def resume(cls, path) -> "StreamingSession":
        """Warm-start a session from a checkpoint directory."""
        state, _manifest = read_checkpoint(path)
        try:
            video = state["video"]
            scoring = state["scoring"]
            config = state["config"]
        except KeyError as error:  # pragma: no cover - corrupt state
            raise CheckpointError(
                f"checkpoint state is missing field {error}") from error
        if cls is StreamingSession:
            # A checkpointed windowed session resumes as one even when
            # restored through the base class.
            from ..windowed.session import WindowedSession
            from ..windowed.view import WindowedVideo

            if isinstance(video, WindowedVideo):
                cls = WindowedSession
        session = cls(
            video,
            scoring,
            config=config,
            unit_costs=state.get("user_unit_costs"),
            streaming=state.get("streaming"),
            autosave_path=state.get("autosave_path"),
        )
        # Splice the persisted components back in. The pickle graph
        # preserved identity between them (the maintainer's label
        # oracle shares the score cache), so rewiring is by reference.
        session.shared_score_cache = state["cache"]
        session._stats = state["stats"]
        session._incremental = state["incremental"]
        session._append_log = list(state.get("append_log", []))
        session._restore_extra(state)
        session._phase1_cache[session._key] = \
            session._incremental.rebuild_entry()
        return session
