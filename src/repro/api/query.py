"""The fluent, immutable query builder.

``session.query().windows(size=30).topk(k=10).guarantee(0.9)`` builds
a description of a Top-K query one clause at a time. Every clause
validates its arguments eagerly (raising
:class:`~repro.errors.QueryError` /
:class:`~repro.errors.ConfigurationError` at call time, not at run
time) and returns a *new* builder, so partial queries can be shared
and forked across a sweep without aliasing surprises::

    base = session.query().guarantee(0.95)
    for k in (5, 10, 25):
        report = base.topk(k).run()

``plan()`` compiles the builder to an executable
:class:`~repro.api.plan.QueryPlan`; ``run()`` compiles and executes.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import EverestConfig
from ..core.windows import WINDOW_STEP_DIVISOR
from ..errors import ConfigurationError, QueryError
from .plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.result import QueryReport
    from .session import Session

#: Sentinel distinguishing "not set" from an explicit ``None``.
_UNSET = object()


@dataclass(frozen=True)
class Query:
    """An immutable, partially built Top-K query."""

    session: "Session" = field(repr=False, compare=False)
    _k: int = 50
    _thres: float = 0.9
    _mode: str = "frames"
    _window_size: Optional[int] = None
    _window_step: Optional[float] = None
    _oracle_budget: object = _UNSET
    _config: Optional[EverestConfig] = None
    _deterministic_timing: bool = False
    _window_seconds: Optional[float] = None

    # -- clauses -------------------------------------------------------
    def topk(self, k: int) -> "Query":
        """Ask for the Top-``k`` highest-scoring frames or windows."""
        # Integral (not bare int) so numpy integers keep working.
        if not isinstance(k, numbers.Integral) or isinstance(k, bool) \
                or k < 1:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        return dataclasses.replace(self, _k=int(k))

    def guarantee(self, thres: float) -> "Query":
        """Require the answer to be exact with probability >= ``thres``."""
        if not 0.0 < thres <= 1.0:
            raise QueryError(
                f"guarantee threshold must be in (0, 1], got {thres!r}")
        return dataclasses.replace(self, _thres=float(thres))

    def frames(self) -> "Query":
        """Rank individual frames (the default)."""
        return dataclasses.replace(
            self, _mode="frames", _window_size=None, _window_step=None)

    def windows(
        self, size: int, *, step: Optional[float] = None
    ) -> "Query":
        """Rank tumbling windows of ``size`` frames by mean score.

        ``step`` is the window relation's quantization step; the
        default is the UDF step / 4 (windows live on a finer scale
        than single frames). ``size=1`` is the frame query.
        """
        if not isinstance(size, numbers.Integral) or isinstance(size, bool) \
                or size < 1:
            raise QueryError(
                f"window size must be a positive integer, got {size!r}")
        if step is not None and not step > 0:
            raise QueryError(
                f"window_step must be positive, got {step!r}")
        if self._window_seconds is not None:
            raise QueryError(
                "tumbling windows(size=...) cannot be combined with a "
                "sliding window(seconds=...) clause")
        return dataclasses.replace(
            self, _mode="windows", _window_size=int(size), _window_step=step)

    def window(self, *, seconds: float) -> "Query":
        """Restrict the query to the last ``seconds`` of the video.

        Sliding-window semantics (DESIGN.md §13): the answer is the
        Top-K over frames in ``[horizon - seconds, watermark)``, where
        the horizon is the stream clock for windowed
        :class:`~repro.video.streaming.StreamingVideo` sources and the
        end of the video otherwise. Mutually exclusive with the tumbling
        ``windows(size=...)`` relation. On a windowed streaming session
        the clause is implicit — every query is windowed to the
        session's window — and an explicit value may not exceed it.
        """
        if isinstance(seconds, bool) \
                or not isinstance(seconds, numbers.Real) \
                or not float(seconds) > 0.0 \
                or not float(seconds) < float("inf"):
            raise QueryError(
                f"window seconds must be a positive finite number, "
                f"got {seconds!r}")
        if self._mode == "windows":
            raise QueryError(
                "sliding window(seconds=...) cannot be combined with a "
                "tumbling windows(size=...) relation")
        return dataclasses.replace(self, _window_seconds=float(seconds))

    def oracle_budget(self, budget: Optional[int]) -> "Query":
        """Cap Phase 2 oracle invocations (``None`` = unbounded)."""
        if budget is not None:
            if not isinstance(budget, numbers.Integral) \
                    or isinstance(budget, bool) or budget < 1:
                raise ConfigurationError(
                    f"oracle_budget must be None or a positive integer, "
                    f"got {budget!r}")
            budget = int(budget)
        return dataclasses.replace(self, _oracle_budget=budget)

    def with_config(self, config: EverestConfig) -> "Query":
        """Override the session configuration for this query only.

        Overrides that keep ``(phase1, diff, seed)`` untouched still
        hit the session's Phase 1 cache.
        """
        if not isinstance(config, EverestConfig):
            raise ConfigurationError(
                f"with_config expects an EverestConfig, got {config!r}")
        return dataclasses.replace(self, _config=config)

    def deterministic_timing(self, enabled: bool = True) -> "Query":
        """Make the report a pure function of the plan and Phase 1.

        Disables wall-clock measurement of the algorithmic stages
        (select-candidate), which is the only nondeterministic input to
        a :class:`~repro.core.result.QueryReport`. Parallel execution
        forces this on so serial and pooled runs are bit-identical.
        """
        return dataclasses.replace(
            self, _deterministic_timing=bool(enabled))

    # -- compilation and execution -------------------------------------
    def plan(self) -> QueryPlan:
        """Compile to an executable plan (cheap; Phase 1 not run)."""
        session = self.session
        config = self._config if self._config is not None else session.config
        mode = self._mode
        window_size = self._window_size
        window_step = self._window_step
        if mode == "windows" and window_size == 1:
            # A 1-frame window is the frame query (paper Section 3.4).
            mode, window_size, window_step = "frames", None, None
        if mode == "windows" and window_step is None:
            window_step = session.scoring.step / WINDOW_STEP_DIVISOR
        budget = (
            config.phase2.oracle_budget
            if self._oracle_budget is _UNSET else self._oracle_budget
        )
        frame_ranges, window_seconds = self._resolve_window(mode)
        return QueryPlan(
            video_name=session.video.name,
            udf_name=session.scoring.name,
            num_frames=len(session.video),
            mode=mode,
            k=self._k,
            thres=self._thres,
            window_size=window_size,
            window_step=window_step,
            oracle_budget=budget,
            config=config,
            unit_costs=session.resolved_unit_costs(),
            deterministic_timing=self._deterministic_timing,
            frame_ranges=frame_ranges,
            window_seconds=window_seconds,
        )

    def _resolve_window(self, mode):
        """Compile the sliding-window clause to a frame range.

        On a windowed video the session window applies implicitly; an
        explicit clause may narrow but never widen it (the maintained
        relation only covers the session window).
        """
        from ..video.streaming import window_frames_for

        video = self.session.video
        session_window = getattr(video, "window_frames", None)
        seconds = self._window_seconds
        if seconds is None and session_window is None:
            return None, None
        if mode != "frames":  # pragma: no cover - clauses reject earlier
            raise QueryError(
                "sliding windows require the frame relation")
        num_frames = len(video)
        horizon = int(getattr(video, "horizon", num_frames))
        if seconds is None:
            window_frames = session_window
            seconds = float(video.window_seconds)
        else:
            window_frames = window_frames_for(seconds, video.fps)
            if session_window is not None \
                    and window_frames > session_window:
                raise QueryError(
                    f"window of {seconds:g}s ({window_frames} frames) is "
                    f"wider than the session window "
                    f"({session_window} frames); the maintained relation "
                    f"does not cover it")
        lo = max(0, horizon - window_frames)
        if lo >= num_frames:
            raise QueryError(
                f"window of {seconds:g}s has fully expired: it starts at "
                f"frame {lo} but the stream has only {num_frames} frames")
        return ((lo, num_frames),), float(seconds)

    def explain(self) -> str:
        """The compiled plan, rendered for humans."""
        return self.plan().explain()

    def run(
        self,
        *,
        parallel: bool = False,
        workers: Optional[int] = None,
    ) -> "QueryReport":
        """Compile and execute, returning the full query report.

        ``parallel=True`` routes execution through the sweep path
        (:class:`~repro.parallel.runner.ParallelRunner`) under its
        deterministic-timing contract, making the report bit-identical
        to ``self.deterministic_timing().run()``. A single plan is not
        worth a pool, so the runner's serial fallback executes it
        in-process; actual fan-out happens when several plans go
        through :meth:`Session.execute_many` together. ``workers``
        defaults to the ``REPRO_WORKERS`` environment variable.
        """
        if not parallel:
            return self.session.execute(self.plan())
        return self.session.execute_many(
            [self.plan()], workers=workers)[0]

    def over_corpus(self, corpus) -> "object":
        """Re-target this query's parameters at a whole corpus.

        Returns a :class:`~repro.corpus.query.CorpusQuery` carrying
        this builder's K, guarantee, budget, config override, timing
        mode and sliding-window clause — the federated equivalent of
        the same query. The session is dropped (the corpus owns one
        per member); tumbling window clauses do not transfer, since
        window aggregation across shard boundaries is undefined.
        """
        from ..corpus.corpus import VideoCorpus
        from ..corpus.query import CorpusQuery

        if not isinstance(corpus, VideoCorpus):
            raise QueryError(
                f"over_corpus expects a VideoCorpus, got {corpus!r}")
        if self._mode == "windows":
            raise QueryError(
                "window queries cannot target a corpus; window "
                "aggregation across shard boundaries is undefined")
        return CorpusQuery(
            corpus=corpus,
            _k=self._k,
            _thres=self._thres,
            _oracle_budget=self._oracle_budget,
            _config=self._config,
            _deterministic_timing=self._deterministic_timing,
            _window_seconds=self._window_seconds,
        )

    def subscribe(self):
        """Maintain this query live over a streaming session.

        Only valid on queries built from a live session
        (:meth:`Session.open_stream`; a closed one refuses). Returns a
        :class:`~repro.streaming.live_topk.LiveTopK` that is refreshed
        immediately and then re-certified on every ``append`` — one
        report per append, batch-equivalent ledgers, fresh oracle work
        proportional to the delta.
        """
        return self.session.subscribe(self)
