"""Sessions: one opened (video, UDF) pair, many queries.

A :class:`Session` is the unit of Phase-1 reuse. Opening a session
binds a video to a scoring function and sets up the cost ledgers;
every query built from it (``session.query()...run()``) shares the
uncertain relation D0, so a parameter sweep over K / thres / window
size pays for sampling, labelling and CMDN training exactly once while
each report still accounts the full Phase 1 cost (the paper re-runs
Phase 1 per query; the ledger arithmetic is identical).

The Phase 1 cache is explicit and keyed on the parts of the
configuration D0 actually depends on — ``(phase1, diff, seed)`` — so
queries that override only Phase 2 knobs (batch size, oracle budget)
still hit the cache, while a changed training grid transparently
builds a second relation.

There is one session class; what it can do beyond answering queries
is read off its video. Over a growing
:class:`~repro.video.streaming.StreamingVideo` the session is **live**
(DESIGN.md §7) — it maintains D0 incrementally under a training policy
pinned to the bootstrap segment, so every live answer is bit-identical
to a batch run over the same frames:

    stream = Session.open_stream(video, "count[car]", initial_frames=5_000)
    live = stream.query().topk(10).guarantee(0.9).subscribe()
    stream.append(900)        # one report per append, per subscription
    live.latest.summary()

Under ``window_seconds`` the video also slides (§13, and the view's
own module, :mod:`repro.video.streaming`): answers cover the last
``window_seconds`` of stream time, ``tick(frames)`` expires frames
without arrivals, and every windowed report is byte-identical to a
fresh batch run over the window snapshot — ``batch_session()`` seals
the prefix (horizon included), and a plain batch query over it
compiles to the same window-restricted plan.

A closed video is the stream that never appends, an unwindowed stream
the window that never expires: the events a video cannot do are
refused with a :class:`~repro.errors.QueryError` naming how to open
the right thing.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..config import EverestConfig
from ..errors import CheckpointError, QueryError
from ..oracle.base import ScoringFunction
from ..oracle.cache import CachingOracle, ScoreCache
from ..oracle.cost import CostModel
from ..core.phase1 import Phase1Entry, Phase1Maintainer, run_phase1
from ..trace import span as trace_span
from ..video.streaming import Segment, StreamingVideo
from ..video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .query import Query
    from .plan import QueryPlan
    from ..core.result import QueryReport


def _streaming():
    """:mod:`repro.streaming`, imported on first use: its package import
    reaches back here (``live_topk`` -> ``api.executor`` ->
    ``api.session``), so a module-top import is a cycle."""
    from .. import streaming

    return streaming


#: Cache key capturing everything D0 depends on: explicit
#: ``(field, value)`` pairs, stable across dataclass field reordering,
#: default changes, and ``repr`` formatting (the durable identity the
#: streaming artifact store persists).
Phase1Key = Tuple[Tuple[str, object], ...]


def phase1_key(config: EverestConfig) -> Phase1Key:
    """The cache key for a configuration's Phase 1 artifacts.

    Every configuration field D0 depends on is named explicitly — the
    earlier ``repr()``-based key silently split the cache whenever a
    dataclass gained a field or changed its field order, and could not
    be persisted meaningfully. Phase 2 knobs are deliberately absent:
    queries that override only them must keep hitting the cache.
    """
    phase1, diff = config.phase1, config.diff
    return (
        ("sample_fraction", float(phase1.sample_fraction)),
        ("min_train_samples", int(phase1.min_train_samples)),
        ("holdout_samples", int(phase1.holdout_samples)),
        ("cmdn_grid",
         tuple((int(g), int(h)) for g, h in phase1.cmdn_grid)),
        ("epochs", int(phase1.epochs)),
        ("use_feature_mdn", bool(phase1.use_feature_mdn)),
        ("sample_prefix",
         None if phase1.sample_prefix is None
         else int(phase1.sample_prefix)),
        ("mse_threshold", float(diff.mse_threshold)),
        ("clip_size", int(diff.clip_size)),
        ("seed", int(config.seed)),
    )


def _check_phase1_key_covers_every_field() -> None:
    """Import-time guard: the key must name every config field.

    The explicit key is fail-unsafe if a field is added to
    :class:`Phase1Config` / :class:`DiffDetectorConfig` and forgotten
    here (two configs differing only in the new field would share
    Phase-1 artifacts). This trips the moment such a field lands —
    unconditionally, not via ``assert`` (``python -O`` must not strip
    the one check that makes the explicit key safe).
    """
    import dataclasses

    from ..config import DiffDetectorConfig, Phase1Config

    named = {name for name, _ in phase1_key(EverestConfig())}
    expected = (
        {f.name for f in dataclasses.fields(Phase1Config)}
        | {f.name for f in dataclasses.fields(DiffDetectorConfig)}
        | {"seed"}
    )
    if named != expected:
        raise RuntimeError(
            "phase1_key is out of sync with the config dataclasses: "
            f"missing {sorted(expected - named)}, "
            f"stale {sorted(named - expected)}")


_check_phase1_key_covers_every_field()


@dataclass
class AppendResult:
    """Everything one ``append`` changed, for callers and experiments."""

    segment: Segment
    watermark: int
    #: One refreshed report per live subscription, in subscribe order.
    reports: List["QueryReport"] = field(default_factory=list)
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
            "fresh_label_calls": self.fresh_label_calls,
            "fresh_confirm_calls": self.fresh_confirm_calls,
            "fresh_inferred_frames": self.fresh_inferred_frames,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class ExpiryResult:
    """Everything one expiry ``tick`` changed (the append-side twin of
    :class:`AppendResult`)."""

    #: Stream clock after the tick, in frames.
    horizon: int
    #: First frame id inside the window after the tick.
    window_lo: int
    #: How many frames the tick advanced the clock.
    ticked_frames: int
    watermark: int
    #: One refreshed report per live subscription, in subscribe order.
    reports: List["QueryReport"] = field(default_factory=list)
    #: Physical (cache-miss) work this tick actually paid.
    fresh_confirm_calls: int = 0
    fresh_inferred_frames: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe summary (the gateway's ``/tick`` payload)."""
        return {
            "horizon": self.horizon,
            "window_lo": self.window_lo,
            "ticked_frames": self.ticked_frames,
            "watermark": self.watermark,
            "reports": [report.to_json() for report in self.reports],
            "fresh_confirm_calls": self.fresh_confirm_calls,
            "fresh_inferred_frames": self.fresh_inferred_frames,
            "wall_seconds": self.wall_seconds,
        }


class Session:
    """An opened (video, scoring function) pair that serves queries.

    ``autosave_path`` and ``score_cache`` configure a live session; a
    closed video refuses them.
    """

    def __init__(
        self,
        video: SyntheticVideo,
        scoring: ScoringFunction,
        *,
        config: Optional[EverestConfig] = None,
        unit_costs: Optional[Dict[str, float]] = None,
        autosave_path=None,
        score_cache: Optional[ScoreCache] = None,
    ):
        self.video = video
        self.scoring = scoring
        #: Whether the video can still grow (an unsealed
        #: ``StreamingVideo``), read once: the one fact every layer
        #: tells session kinds apart by.
        self.live = isinstance(video, StreamingVideo) and not video.sealed
        config = config if config is not None else EverestConfig()
        if self.live and config.phase1.sample_prefix is None:
            # Pin training to the bootstrap segment: the policy under
            # which live answers equal batch re-runs (DESIGN.md §7).
            config = dataclasses.replace(
                config,
                phase1=dataclasses.replace(
                    config.phase1, sample_prefix=video.watermark),
            )
        self.config = config
        # Labelling and confirming charge the same per-frame latency as
        # the UDF's oracle, under dedicated Table 8 ledger keys.
        base = CostModel(unit_costs)
        oracle_unit = base.unit_costs.get(scoring.cost_key, 0.0)
        overrides = dict(unit_costs or {})
        overrides.setdefault("oracle_label", oracle_unit)
        overrides.setdefault("oracle_confirm", oracle_unit)
        self._unit_costs = overrides
        self._phase1_cache: Dict[Phase1Key, Phase1Entry] = {}
        # A shared artifact provider supplying single-flight Phase-1
        # builds (None outside a QueryService), and the score cache
        # every executor confirms through: the session's own (on a
        # stream also its label oracle's), or the service's group cache
        # once bound. Ledgers and reports are unaffected either way —
        # only frames never confirmed here pay a physical UDF call.
        self.artifacts = None
        self.shared_score_cache = score_cache if score_cache is not None \
            else ScoreCache()
        #: Service hook: when set, a clock event hands its subscription
        #: refresh pass to this callable (the service routes it through
        #: its scheduler) instead of running inline.
        self.refresh_dispatcher = None
        self.autosave_path = autosave_path
        self._subscriptions: list = []
        if not self.live:
            if autosave_path is not None or score_cache is not None:
                raise QueryError(
                    "autosave_path= and score_cache= need a growing "
                    "video and this one is closed; open it with "
                    "Session.open_stream(..., window_seconds=...)")
            return
        # Labels land in the same memo the executors confirm through,
        # which is what makes re-certification delta-sized.
        # ``score_cache`` lets the service layer promote it to service
        # scope (shared with batch queries over the same footage).
        self._maintainer = Phase1Maintainer(
            video,
            CachingOracle(
                scoring,
                CostModel(self._unit_costs),
                cache=self.shared_score_cache,
                cost_key="oracle_label",
            ),
            self.config, self._unit_costs)
        #: Where the maintained entry lives in the Phase-1 cache.
        self._key = phase1_key(self.config)

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        video,
        scoring,
        *,
        config: Optional[EverestConfig] = None,
        unit_costs: Optional[Dict[str, float]] = None,
        **video_kwargs,
    ) -> "Session":
        """Open a session, resolving registry names for either side.

        ``video`` and ``scoring`` may be objects or registered names —
        e.g. ``Session.open("daxi-old-street", "count[person]")``.
        Extra keyword arguments are forwarded to the video builder.
        """
        from .registry import resolve_pair

        video, scoring = resolve_pair(
            video, scoring, video_kwargs, call="Session.open")
        return cls(video, scoring, config=config, unit_costs=unit_costs)

    @classmethod
    def open_stream(
        cls,
        video,
        scoring,
        *,
        initial_frames: Optional[int] = None,
        config: Optional[EverestConfig] = None,
        unit_costs: Optional[Dict[str, float]] = None,
        autosave_path=None,
        score_cache=None,
        window_seconds: Optional[float] = None,
        **video_kwargs,
    ) -> "Session":
        """Open a live session over a growing video (DESIGN.md §7).

        ``video`` may be a closed source (object or registry name —
        wrapped with ``initial_frames`` as the bootstrap segment) or a
        ready :class:`~repro.video.streaming.StreamingVideo`. On the
        returned session ``append(n)`` reveals frames and returns that
        event's reports and fresh work, ``query()...subscribe()`` keeps
        an answer refreshed per append, and ``checkpoint(path)``
        persists the Phase-1 artifacts.

        ``window_seconds`` makes the video slide (DESIGN.md §13):
        answers cover only the last ``window_seconds`` of stream time,
        ``tick(frames)`` expires frames without arrivals, and every
        subscription delivers one report per append *and* per tick.
        """
        from .registry import resolve_pair

        video, scoring = resolve_pair(
            video, scoring, video_kwargs, call="Session.open_stream")
        if isinstance(video, StreamingVideo):
            if initial_frames is not None:
                raise QueryError(
                    "initial_frames is implied by an existing "
                    "StreamingVideo; pass one or the other")
            if window_seconds is not None \
                    and float(window_seconds) != video.window_seconds:
                raise QueryError(
                    f"window_seconds={window_seconds!r} conflicts with "
                    f"the StreamingVideo's own ({video.window_seconds!r}); "
                    f"pass one or the other, or wrap the closed source")
            if video.sealed:
                raise QueryError(
                    f"video {video.name!r} is a sealed snapshot and "
                    f"never grows; open_stream the live view instead")
        else:
            if initial_frames is None:
                raise QueryError(
                    "open_stream needs initial_frames: the bootstrap "
                    "segment Phase 1 trains on")
            video = StreamingVideo(
                video, initial_frames, window_seconds=window_seconds)
        return cls(
            video, scoring, config=config, unit_costs=unit_costs,
            autosave_path=autosave_path, score_cache=score_cache)

    # ------------------------------------------------------------------
    def query(self) -> "Query":
        """Start building a query against this session (fluent API)."""
        from .query import Query

        return Query(target=self)

    def _executor(self):
        from .executor import QueryExecutor  # imports this module

        return QueryExecutor(self)

    def execute(self, plan: "QueryPlan") -> "QueryReport":
        """Run a compiled plan against this session's cached Phase 1."""
        return self._executor().execute(plan)

    # ------------------------------------------------------------------
    # Phase 1: the maintained entry for the pinned key when live; the
    # keyed cache and single-flight lease otherwise
    # ------------------------------------------------------------------
    def resolved_unit_costs(self) -> Dict[str, float]:
        """The full ledger-key -> seconds map queries will charge."""
        return dict(CostModel(self._unit_costs).unit_costs)

    def _phase1_key(self, config: Optional[EverestConfig]) -> Phase1Key:
        """The cache key ``config`` (None: the session's) resolves to."""
        if not self.live:
            return phase1_key(config if config is not None else self.config)
        if config is not None and phase1_key(config) != self._key:
            raise QueryError(
                "streaming sessions maintain Phase 1 for the session "
                "configuration only; Phase 2 overrides are fine, but "
                "a different (phase1, diff, seed) needs its own session")
        return self._key

    def phase1(self, config: Optional[EverestConfig] = None) -> Phase1Entry:
        """The cached Phase 1 artifacts for ``config`` (runs on miss).

        A service-bound session (:meth:`bind_service`) delegates the
        build to the shared artifact layer — concurrent sessions over
        the same ``phase1_key`` block on one single-flight build — and
        pins the leased entry locally so later queries skip the store.
        A live session bootstraps its maintainer instead; every clock
        event then replaces the entry under the same key.
        """
        key = self._phase1_key(config)
        entry = self._phase1_cache.get(key)
        if entry is not None:
            return entry
        if self.live:
            entry = self._maintainer.bootstrap()
        else:
            config = config if config is not None else self.config
            with trace_span("phase1", category="phase1") as p1_span:
                if self.artifacts is not None:
                    entry = self.artifacts.lease(self, config, key)
                else:
                    entry = run_phase1(
                        self.video, self.scoring, self._unit_costs, config)
                if p1_span is not None:
                    p1_span.set(
                        video=self.video.name, udf=self.scoring.name,
                        shared=self.artifacts is not None,
                        sim_seconds_total=entry.cost_model.total_seconds(),
                        oracle_calls=entry.oracle_calls)
        self._phase1_cache[key] = entry
        return entry

    def _refuse_live(self, operation: str) -> None:
        if self.live:
            raise QueryError(
                f"{operation} is for closed videos: a live session keeps "
                f"its own Phase 1 and labels through its own score cache;"
                f" wire it in with QueryService.attach_stream(stream)")

    def bind_service(self, artifacts, score_cache=None) -> "Session":
        """Attach this session to a service's shared artifact layer.

        ``artifacts`` supplies single-flight Phase-1 builds (an object
        with ``lease(session, config, key)``); ``score_cache`` makes
        every executor confirm through the service-scope
        :class:`~repro.oracle.cache.ScoreCache` instead of the
        session's own, so queries reuse frames other queries already
        cleaned (without one the session keeps its own). Returns
        ``self``.
        """
        self._refuse_live("bind_service")
        self.artifacts = artifacts
        if score_cache is not None:
            self.shared_score_cache = score_cache
        return self

    def adopt_phase1(
        self,
        entry: Phase1Entry,
        config: Optional[EverestConfig] = None,
    ) -> None:
        """Seed the Phase 1 cache with an externally built entry.

        This is how pool workers skip redundant CMDN training: the
        parent process builds (or fetches) the entry once, serializes
        it, and each worker adopts it into a fresh session before
        executing plans. The entry must have been built under the same
        ``(phase1, diff, seed)`` configuration it is adopted for.
        """
        self._refuse_live("adopt_phase1")
        self._phase1_cache[self._phase1_key(config)] = entry

    def phase1_cached(
        self,
        config: Optional[EverestConfig] = None,
        *,
        key: Optional[Phase1Key] = None,
    ) -> bool:
        """Whether this session already pins Phase-1 artifacts.

        Pass either a configuration (``None`` means the session
        config) or a precomputed ``key``. A pinned entry means a query
        under that configuration pays zero new Phase-1 cost — the
        warmness signal the workload planner reads.
        """
        if key is None:
            key = phase1_key(config if config is not None else self.config)
        return key in self._phase1_cache

    @property
    def phase1_runs(self) -> int:
        """How many distinct Phase 1 builds this session has paid for."""
        return len(self._phase1_cache)

    def scan_seconds(self) -> float:
        """Simulated cost of scan-and-test with this UDF's oracle."""
        costs = self.resolved_unit_costs()
        per_frame = costs.get(self.scoring.cost_key, 0.0) + costs["decode"]
        return len(self.video) * per_frame

    # ------------------------------------------------------------------
    # What a growing video adds: clock events and live answers
    # ------------------------------------------------------------------
    def _require_live(self, operation: str, *, windowed: bool = False):
        """Refuse a clock event (or live state) the video cannot do."""
        if not self.live:
            raise QueryError(
                f"{operation} needs a streaming session and this video "
                f"is closed; open a growing one with "
                f"Session.open_stream(..., window_seconds=...)")
        if windowed and self.video.window_frames is None:
            raise QueryError(
                f"{operation} needs a sliding window; open the stream "
                f"with Session.open_stream(..., window_seconds=...)")

    @property
    def watermark(self) -> int:
        return self.video.watermark

    @property
    def segments(self) -> List[Segment]:
        return self.video.segments

    @property
    def window_seconds(self) -> Optional[float]:
        return self.video.window_seconds

    @property
    def window_frames(self) -> Optional[int]:
        """Sliding-window length in frames (None: never expires)."""
        return self.video.window_frames

    @property
    def horizon(self) -> int:
        return self.video.horizon

    @property
    def window_lo(self) -> int:
        return self.video.window_lo

    def append(self, num_frames: int) -> AppendResult:
        """Reveal ``num_frames`` more source frames and re-certify.

        Folds the arrivals into the Phase-1 state (diff, inference,
        relation — what a batch run over the new prefix builds),
        refreshes every subscription, and returns the
        :class:`AppendResult` — including the physical cache-miss work
        this append paid, as opposed to the batch-equivalent charges
        its reports carry.
        """
        self._require_live("append()")
        self.phase1()
        started = time.perf_counter()
        maintainer = self._maintainer
        labels = maintainer.label_oracle.fresh_calls
        inferred = maintainer.fresh_inferred_frames
        segment = self.video.append(num_frames)
        maintainer.scan_arrivals()
        self._phase1_cache[self._key] = maintainer.rebuild_entry()
        return self._finish_event(
            started, inferred,
            AppendResult(
                segment=segment,
                watermark=self.watermark,
                fresh_label_calls=(
                    maintainer.label_oracle.fresh_calls - labels),
            ))

    def tick(self, frames: int) -> ExpiryResult:
        """Advance the stream clock without arrivals; expire frames.

        The window's lower edge moves forward, evicted inference
        blocks are retracted, and every subscription is refreshed
        against the narrowed relation — one report per tick, under the
        same bookkeeping-before-reraise discipline as ``append``.
        """
        self._require_live("tick()", windowed=True)
        self.phase1()
        started = time.perf_counter()
        inferred = self._maintainer.fresh_inferred_frames
        with trace_span(
                "expiry", category="streaming", frames=frames,
                horizon=self.video.horizon) as expiry_span:
            horizon = self.video.tick(frames)
            self._phase1_cache[self._key] = \
                self._maintainer.rebuild_entry()
            if expiry_span is not None:
                expiry_span.set(
                    window_lo=self.video.window_lo,
                    watermark=self.watermark)
        return self._finish_event(
            started, inferred,
            ExpiryResult(
                horizon=horizon,
                window_lo=self.video.window_lo,
                ticked_frames=int(frames),
                watermark=self.watermark,
            ))

    def _finish_event(self, started: float, inferred: int, result):
        """The tail every clock event (append, tick) shares.

        Refreshes every subscription even if one fails (e.g. a
        subscribed query's oracle budget trips): the video clock and
        Phase-1 state have already advanced, so the event stays
        applied: the first error re-raises after the autosave, and the
        caller reads the event off ``watermark`` / ``segments`` /
        ``horizon`` and each healthy subscription's ``latest``, leaving
        the session consistent and retryable. A service-attached
        session hands the whole pass to the dispatcher (one scheduled
        job, so it competes fairly with batch tenants) and blocks on it
        — and a dispatch failure (admission refusal, service closing)
        is treated exactly like a refresh failure. The event reports
        the confirmations its own pass's executor paid; ad-hoc queries
        on other threads count theirs on their own executors.
        """
        if self.refresh_dispatcher is not None:
            try:
                result.reports, result.fresh_confirm_calls, refresh_error \
                    = self.refresh_dispatcher(self._refresh_subscriptions)
            except Exception as error:
                refresh_error = error
        else:
            result.reports, result.fresh_confirm_calls, refresh_error = \
                self._refresh_subscriptions()
        result.fresh_inferred_frames = \
            self._maintainer.fresh_inferred_frames - inferred
        result.wall_seconds = time.perf_counter() - started
        if self.autosave_path is not None:
            self.checkpoint(self.autosave_path)
        if refresh_error is not None:
            raise refresh_error
        return result

    def _refresh_subscriptions(self):
        """One refresh pass over every subscription (see append):
        ``(reports, fresh, first_error)``, ``fresh`` being the cache-miss
        confirmations of the pass's own executor (an external
        subscription that ignores it contributes none)."""
        executor = self._executor()
        reports: List["QueryReport"] = []
        refresh_error: Optional[BaseException] = None
        for index, subscription in enumerate(self._subscriptions):
            try:
                with trace_span(
                        "subscription_refresh", category="streaming",
                        subscription=index,
                        watermark=self.watermark) as refresh_span:
                    report = subscription.refresh(executor)
                    if refresh_span is not None:
                        refresh_span.set(
                            k=report.k, confidence=report.confidence)
                reports.append(report)
            except Exception as error:
                if refresh_error is None:
                    refresh_error = error
        return reports, executor.fresh_confirm_calls, refresh_error

    def subscribe(self, query):
        """Register a query for per-event maintenance.

        Returns a :class:`~repro.streaming.live_topk.LiveTopK`,
        refreshed immediately (its first report answers over the
        current watermark) and again on every append and tick.
        """
        self._require_live("subscribe()")
        if query.target is not self:
            raise QueryError(
                "subscribe a query built from this streaming session")
        self.phase1()
        subscription = _streaming().LiveTopK(query=query)
        subscription.refresh(self._executor())
        self._subscriptions.append(subscription)
        return subscription

    def attach_subscription(self, subscription) -> None:
        """Register an external live consumer refreshed on every event.

        The object only needs the subscription protocol —
        ``refresh(executor)`` returning a report. This is how a corpus
        query's :class:`~repro.streaming.live_topk.LiveTopK` (DESIGN.md
        §9) rides the per-append refresh pass: a member's
        append re-certifies the *federated* answer alongside the
        member's own live queries, under the same error/bookkeeping
        discipline (and through the service dispatcher when attached).
        """
        self._require_live("attach_subscription()")
        self.phase1()
        self._subscriptions.append(subscription)

    def batch_session(self) -> "Session":
        """A from-scratch batch session over the current prefix.

        Shares nothing with this session except the (sealed) frames
        and the pinned configuration — the reference the equivalence
        suite compares live answers against.
        """
        self._require_live("batch_session()")
        return Session(
            self.video.snapshot(),
            self.scoring,
            config=self.config,
            unit_costs=self._unit_costs,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> None:
        """Persist the full streaming state to ``path`` (a directory).

        Subscriptions are not persisted (they close over live session
        objects); re-subscribe after :meth:`resume`. Everything else —
        watermark, horizon, CMDN weights, diff arrays, inference
        blocks, score cache, ledgers — round-trips, so
        the resumed session re-serves its watermark with zero Phase-1
        oracle calls.
        """
        self._require_live("checkpoint()")
        self.phase1()
        # The maintainer carries the video, UDF, configurations and
        # score cache by reference; nothing per delivered event is kept.
        _streaming().write_checkpoint(
            path,
            {
                "maintainer": self._maintainer,
                "autosave_path": self.autosave_path,
            },
            metadata={
                "video_name": self.video.name,
                "udf_name": self.scoring.name,
                "watermark": self.watermark,
                "segments": len(self.video.segments),
            },
        )

    @classmethod
    def resume(cls, path) -> "Session":
        """Warm-start a live session from a checkpoint directory.

        The resumed session re-serves its watermark with zero Phase-1
        oracle calls: CMDN weights, the difference-detector state, the
        inference cache, revealed scores and ledgers all come from the
        artifact store; the pickled video carries its own window, so a
        windowed stream resumes windowed. Subscriptions are not
        persisted — re-subscribe.
        """
        state, _manifest = _streaming().read_checkpoint(path)
        try:
            restored = state["maintainer"]
            # Everything is read off the restored maintainer, so the
            # session is rewired to it by reference: the pickle graph
            # preserved that its label oracle shares the score cache.
            session = cls(
                restored.video,
                restored.scoring,
                config=restored.config,
                unit_costs=restored.unit_costs,
                autosave_path=state["autosave_path"],
                score_cache=restored.label_oracle.cache,
            )
        except KeyError as error:  # pragma: no cover - corrupt state
            raise CheckpointError(
                f"checkpoint state is missing field {error}") from error
        session._maintainer = restored
        session._phase1_cache[session._key] = restored.rebuild_entry()
        return session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(video={self.video.name!r}, "
            f"udf={self.scoring.name!r}, phase1_runs={self.phase1_runs})"
        )
