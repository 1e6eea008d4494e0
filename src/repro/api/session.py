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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..config import EverestConfig
from ..oracle.base import Oracle, ScoringFunction
from ..oracle.cost import CostModel
from ..core.phase1 import Phase1Entry, Phase1Result, run_phase1
from ..trace import span as trace_span
from ..video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .query import Query
    from .plan import QueryPlan
    from ..core.result import QueryReport

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
        ("max_train_samples", int(phase1.max_train_samples)),
        ("min_train_samples", int(phase1.min_train_samples)),
        ("holdout_samples", int(phase1.holdout_samples)),
        ("cmdn_grid",
         tuple((int(g), int(h)) for g, h in phase1.cmdn_grid)),
        ("epochs", int(phase1.epochs)),
        ("batch_size", int(phase1.batch_size)),
        ("learning_rate", float(phase1.learning_rate)),
        ("use_feature_mdn", bool(phase1.use_feature_mdn)),
        ("quantization_step",
         None if phase1.quantization_step is None
         else float(phase1.quantization_step)),
        ("truncate_sigmas", float(phase1.truncate_sigmas)),
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


def build_phase1_entry(
    video,
    scoring: ScoringFunction,
    unit_costs: Dict[str, float],
    config: EverestConfig,
    *,
    cost_model: Optional[CostModel] = None,
) -> Phase1Entry:
    """Run Phase 1 and package the artifacts with their ledger.

    The one Phase-1 build routine, shared by :meth:`Session.phase1`
    and the service artifact layer (whose single-flight builds happen
    outside any one session). Charges are purely simulated — no
    wall-clock timers run during Phase 1 — so two builds of the same
    ``(video, scoring, config)`` produce bit-identical entries; the
    default ledger is marked ``wall_clock=False`` accordingly, so
    merged ledgers built from Phase-1 folds stay deterministic
    (:func:`~repro.oracle.cost.merge_cost_models` propagates the flag).
    """
    cost_model = cost_model if cost_model is not None \
        else CostModel(unit_costs, wall_clock=False)
    # The labelling oracle keeps a ledger of its own: run_phase1 writes
    # the whole charge sequence, labelling included, into cost_model.
    oracle = Oracle(scoring, cost_key="oracle_label")
    result = run_phase1(
        video,
        oracle,
        config=config.phase1,
        diff_config=config.diff,
        cost_model=cost_model,
        seed=config.seed,
    )
    return Phase1Entry(
        result=result,
        oracle_calls=oracle.calls,
        cost_model=cost_model,
    )


def estimate_phase1_seconds(
    num_frames: int,
    unit_costs: Dict[str, float],
    config: EverestConfig,
    *,
    retained_fraction: float = 1.0,
) -> float:
    """A prior for one Phase-1 build's simulated cost (no build run).

    Mirrors the charge structure of
    :func:`~repro.core.phase1.replay_phase1_charges` with the two
    quantities unknowable before the build estimated: the number of
    retained frames (``retained_fraction`` of the prefix; the
    difference detector discards the rest) and the grid's
    sample-epochs (every candidate trains on the full sample for every
    epoch). This is the cold-start prior the optimizer's
    :class:`~repro.optimizer.estimator.CostEstimator` uses until real
    build ledgers calibrate it.
    """
    phase1 = config.phase1
    pool = phase1.sample_pool(num_frames)
    train = phase1.train_sample_size(pool)
    holdout = phase1.holdout_sample_size(pool)
    retained = retained_fraction * num_frames
    get = unit_costs.get
    return (
        (train + holdout) * (get("oracle_label", 0.0) + get("decode", 0.0))
        + train * phase1.epochs * len(phase1.cmdn_grid)
        * get("cmdn_train", 0.0)
        + num_frames * (get("diff_detect", 0.0) + get("decode", 0.0))
        + retained * get("cmdn_infer", 0.0)
    )


class Session:
    """An opened (video, scoring function) pair that serves queries."""

    def __init__(
        self,
        video: SyntheticVideo,
        scoring: ScoringFunction,
        *,
        config: Optional[EverestConfig] = None,
        unit_costs: Optional[Dict[str, float]] = None,
    ):
        self.video = video
        self.scoring = scoring
        self.config = config if config is not None else EverestConfig()
        # Labelling and confirming charge the same per-frame latency as
        # the UDF's oracle, under dedicated Table 8 ledger keys.
        base = CostModel(unit_costs)
        oracle_unit = base.unit_costs.get(scoring.cost_key, 0.0)
        overrides = dict(unit_costs or {})
        overrides.setdefault("oracle_label", oracle_unit)
        overrides.setdefault("oracle_confirm", oracle_unit)
        self._unit_costs = overrides
        self._phase1_cache: Dict[Phase1Key, Phase1Entry] = {}
        # Ledgers handed out before their Phase 1 runs (so callers can
        # hold a stable reference to the ledger Phase 1 will charge).
        self._phase1_cost_models: Dict[Phase1Key, CostModel] = {}
        # A shared artifact provider supplying single-flight Phase-1
        # builds (None outside a QueryService), and the score cache
        # executors confirm through (None: every confirmation is a
        # physical UDF call) — service-scope on a bound session, the
        # session's own on a stream.
        self.artifacts = None
        self.shared_score_cache = None

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
        from .registry import resolve_udf, resolve_video

        if isinstance(video, str):
            video = resolve_video(video, **video_kwargs)
        elif video_kwargs:
            raise TypeError(
                "video keyword arguments need a registry name, "
                "not a video object")
        if isinstance(scoring, str):
            scoring = resolve_udf(scoring)
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
        streaming=None,
        autosave_path=None,
        score_cache=None,
        window_seconds: Optional[float] = None,
        **video_kwargs,
    ):
        """Open a streaming session over a growing video (DESIGN.md §7).

        ``video`` may be a closed source (object or registry name —
        wrapped with ``initial_frames`` as the bootstrap segment) or a
        ready :class:`~repro.video.streaming.StreamingVideo`.
        ``streaming`` takes a
        :class:`~repro.streaming.phase1_incremental.StreamingConfig`
        (drift auditing / warm-retraining knobs). Returns a
        :class:`~repro.streaming.session.StreamingSession`:
        ``append(n)`` reveals frames, ``query()...subscribe()`` yields
        a report per append, ``checkpoint(path)`` persists the Phase-1
        artifacts.

        ``window_seconds`` opens a sliding-window session instead
        (:class:`~repro.windowed.WindowedSession`, DESIGN.md §13):
        answers cover only the last ``window_seconds`` of stream time,
        ``tick(frames)`` expires frames without arrivals, and every
        subscription delivers one report per append *and* per tick.
        """
        from ..streaming.session import StreamingSession
        from ..windowed.session import WindowedSession
        from ..windowed.view import WindowedVideo
        from .registry import resolve_udf, resolve_video

        if isinstance(video, str):
            video = resolve_video(video, **video_kwargs)
        elif video_kwargs:
            raise TypeError(
                "video keyword arguments need a registry name, "
                "not a video object")
        if isinstance(scoring, str):
            scoring = resolve_udf(scoring)
        if window_seconds is not None or isinstance(video, WindowedVideo):
            return WindowedSession(
                video, scoring, window_seconds=window_seconds,
                initial_frames=initial_frames,
                config=config, unit_costs=unit_costs,
                streaming=streaming, autosave_path=autosave_path,
                score_cache=score_cache)
        # initial_frames is forwarded unconditionally: the constructor
        # validates the (StreamingVideo, initial_frames) combinations.
        return StreamingSession(
            video, scoring, initial_frames=initial_frames,
            config=config, unit_costs=unit_costs,
            streaming=streaming, autosave_path=autosave_path,
            score_cache=score_cache)

    @classmethod
    def resume(cls, path):
        """Warm-start a streaming session from a checkpoint directory.

        The resumed session re-serves its watermark with zero Phase-1
        oracle calls: CMDN weights, the difference-detector state, the
        inference cache, revealed scores and ledgers all come from the
        artifact store. Subscriptions are not persisted — re-subscribe.
        """
        from ..streaming.session import StreamingSession

        return StreamingSession.resume(path)

    # ------------------------------------------------------------------
    def query(self) -> "Query":
        """Start building a query against this session (fluent API)."""
        from .query import Query

        return Query(session=self)

    def execute(self, plan: "QueryPlan") -> "QueryReport":
        """Run a compiled plan against this session's cached Phase 1."""
        from .executor import QueryExecutor

        return QueryExecutor(self).execute(plan)

    def execute_many(
        self,
        plans: "Sequence[QueryPlan]",
        *,
        workers: Optional[int] = None,
    ) -> "List[QueryReport]":
        """Run a sweep of plans, fanning across a process pool.

        Phase 1 is built once per configuration in this process and
        shared with the workers (DESIGN.md §6); reports come back in
        plan order and are identical for every worker count.
        ``workers`` defaults to the ``REPRO_WORKERS`` environment
        variable, falling back to serial execution.
        """
        from ..parallel.runner import ParallelRunner

        return ParallelRunner(workers).run_sweep(self, plans)

    # ------------------------------------------------------------------
    def resolved_unit_costs(self) -> Dict[str, float]:
        """The full ledger-key -> seconds map queries will charge."""
        return dict(CostModel(self._unit_costs).unit_costs)

    def phase1_cost_model(
        self, config: Optional[EverestConfig] = None
    ) -> CostModel:
        """The ledger Phase 1 under ``config`` charges (no Phase 1 run)."""
        config = config if config is not None else self.config
        key = phase1_key(config)
        entry = self._phase1_cache.get(key)
        if entry is not None:
            return entry.cost_model
        # Deterministic like every Phase-1 ledger: the build it will
        # receive charges from never runs wall-clock timers.
        return self._phase1_cost_models.setdefault(
            key, CostModel(self._unit_costs, wall_clock=False))

    def phase1(self, config: Optional[EverestConfig] = None) -> Phase1Entry:
        """The cached Phase 1 artifacts for ``config`` (runs on miss).

        A service-bound session (:meth:`bind_service`) delegates the
        build to the shared artifact layer — concurrent sessions over
        the same ``phase1_key`` block on one single-flight build — and
        pins the leased entry locally so later queries skip the store.
        """
        config = config if config is not None else self.config
        key = phase1_key(config)
        entry = self._phase1_cache.get(key)
        if entry is None:
            with trace_span("phase1", category="phase1") as p1_span:
                if self.artifacts is not None:
                    entry = self.artifacts.lease(self, config, key)
                    # A ledger handed out via phase1_cost_model() before
                    # this build was promised to receive Phase 1's
                    # charges; the shared build charged the store's
                    # ledger instead, so replay the (bit-identical,
                    # purely simulated) charges into the held reference
                    # exactly once.
                    pre = self._phase1_cost_models.pop(key, None)
                    if pre is not None and pre is not entry.cost_model:
                        pre.merge_from(entry.cost_model)
                else:
                    entry = build_phase1_entry(
                        self.video, self.scoring, self._unit_costs,
                        config,
                        cost_model=self.phase1_cost_model(config),
                    )
                if p1_span is not None:
                    p1_span.set(
                        video=self.video.name, udf=self.scoring.name,
                        shared=self.artifacts is not None,
                        sim_seconds_total=entry.cost_model.total_seconds(),
                        oracle_calls=entry.oracle_calls)
            self._phase1_cache[key] = entry
        return entry

    def bind_service(self, artifacts, score_cache=None) -> "Session":
        """Attach this session to a service's shared artifact layer.

        ``artifacts`` supplies single-flight Phase-1 builds (an object
        with ``lease(session, config, key)``); ``score_cache`` makes
        every executor confirm through the service-scope
        :class:`~repro.oracle.cache.ScoreCache`, so queries reuse
        frames other queries already cleaned. Returns ``self``.
        """
        self.artifacts = artifacts
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
        config = config if config is not None else self.config
        self._phase1_cache[phase1_key(config)] = entry

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
        warmness signal the cost optimizer orders by.
        """
        if key is None:
            key = phase1_key(config if config is not None else self.config)
        return key in self._phase1_cache

    @property
    def phase1_result(self) -> Phase1Result:
        """Phase 1 artifacts under the session config (runs on first use)."""
        return self.phase1().result

    @property
    def phase1_runs(self) -> int:
        """How many distinct Phase 1 builds this session has paid for."""
        return len(self._phase1_cache)

    def scan_seconds(self) -> float:
        """Simulated cost of scan-and-test with this UDF's oracle."""
        costs = self.resolved_unit_costs()
        per_frame = costs.get(self.scoring.cost_key, 0.0) + costs["decode"]
        return len(self.video) * per_frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(video={self.video.name!r}, "
            f"udf={self.scoring.name!r}, phase1_runs={self.phase1_runs})"
        )
