"""The fluent, immutable query builder — one class for every target.

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

The *target* is a :class:`~repro.api.session.Session` or a
:class:`~repro.corpus.corpus.VideoCorpus` — anything exposing
``scoring``, ``config``, ``resolved_unit_costs()`` and ``query()``.
Both compile to the same :class:`~repro.api.plan.QueryPlan` (a corpus
plan targets the concatenated frame namespace, which is what makes
federated execution byte-comparable to a plain run)::

    outcome = (corpus.query()
               .topk(10).guarantee(0.9)
               .oracle_budget(500)
               .run_detailed())
    outcome.allocation()     # confirms per shard
    outcome.merged_cost()    # canonical corpus ledger

Tumbling ``windows(size=...)`` needs a session (aggregation across
shard boundaries is undefined) and is refused on a corpus with an
error naming the right door. ``plan()`` compiles the builder;
``run()`` compiles and executes.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import EverestConfig
from ..core.windows import WINDOW_STEP_DIVISOR
from ..errors import ConfigurationError, QueryError
from ..video.streaming import window_frames_for
from .plan import QueryPlan
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.result import QueryReport

#: Sentinel distinguishing "not set" from an explicit ``None``.
_UNSET = object()


def _positive_int(value, rule: str, error=QueryError) -> int:
    """``value`` as an int, or ``error`` unless it is an integer >= 1."""
    # Integral (not bare int) so numpy integers keep working; bool is an
    # Integral but never a count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise error(f"{rule}, got {value!r}")
    return int(value)


def _positive_real(value, rule: str, *, most: float = float("inf")) -> float:
    """``value`` as a float, or a QueryError unless it is a finite real
    in ``(0, most]`` (NaN fails the first comparison)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0.0 < value <= most or value == float("inf"):
        raise QueryError(f"{rule}, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Query:
    """An immutable, partially built Top-K query over one target."""

    target: object = field(repr=False, compare=False)
    _k: int = 50
    _thres: float = 0.9
    _mode: str = "frames"
    _window_size: Optional[int] = None
    _window_step: Optional[float] = None
    _oracle_budget: object = _UNSET
    _config: Optional[EverestConfig] = None
    _window_seconds: Optional[float] = None

    @property
    def _corpus(self):
        """The target when it is a corpus, ``None`` for a session."""
        return None if isinstance(self.target, Session) else self.target

    # -- clauses -------------------------------------------------------
    def topk(self, k: int) -> "Query":
        """Ask for the Top-``k`` highest-scoring frames or windows."""
        return dataclasses.replace(self, _k=_positive_int(
            k, "k must be a positive integer"))

    def guarantee(self, thres: float) -> "Query":
        """Require the answer to be exact with probability >= ``thres``."""
        return dataclasses.replace(self, _thres=_positive_real(
            thres, "guarantee threshold must be in (0, 1]", most=1.0))

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
        than single frames). ``size=1`` is the frame query. Sessions
        only.
        """
        if self._corpus is not None:
            raise QueryError(
                "tumbling windows(size=...) cannot target a corpus: "
                "window aggregation across shard boundaries is undefined; "
                "build the query from a member session's query() instead")
        size = _positive_int(
            size, "window size must be a positive integer")
        if step is not None:
            # Kept as given (not the validator's float): the step rides
            # the plan verbatim.
            _positive_real(step, "window_step must be positive")
        if self._window_seconds is not None:
            raise QueryError(
                "tumbling windows(size=...) cannot be combined with a "
                "sliding window(seconds=...) clause")
        return dataclasses.replace(
            self, _mode="windows", _window_size=size, _window_step=step)

    def window(self, *, seconds: float) -> "Query":
        """Restrict the query to the last ``seconds`` of every video.

        Sliding-window semantics (DESIGN.md §13): the answer is the
        Top-K over frames in ``[horizon - seconds, watermark)`` of each
        video under the target — one range for a session, one per
        member (in the concatenated namespace) for a corpus — where the
        horizon is the stream clock for windowed
        :class:`~repro.video.streaming.StreamingVideo` sources and the
        end of the video otherwise. Mutually exclusive with the tumbling
        ``windows(size=...)`` relation. On a windowed stream the clause
        is implicit — every query is windowed to the stream's own
        window — and an explicit value may not exceed it.
        """
        seconds = _positive_real(
            seconds, "window seconds must be a positive finite number")
        if self._mode == "windows":
            raise QueryError(
                "sliding window(seconds=...) cannot be combined with a "
                "tumbling windows(size=...) relation")
        return dataclasses.replace(self, _window_seconds=seconds)

    def oracle_budget(self, budget: Optional[int]) -> "Query":
        """Cap Phase 2 oracle invocations (``None`` = unbounded); the
        *global* spend across every shard on a corpus."""
        if budget is not None:
            budget = _positive_int(
                budget, "oracle_budget must be None or a positive integer",
                ConfigurationError)
        return dataclasses.replace(self, _oracle_budget=budget)

    def with_config(self, config: EverestConfig) -> "Query":
        """Override the target's configuration for this query only.

        Overrides that keep ``(phase1, diff, seed)`` untouched still
        hit the Phase 1 cache.
        """
        if not isinstance(config, EverestConfig):
            raise ConfigurationError(
                f"with_config expects an EverestConfig, got {config!r}")
        return dataclasses.replace(self, _config=config)

    def deterministic_timing(self) -> "Query":
        """A no-op kept for old callers: returns this query unchanged.

        Every report is a pure function of its plan and Phase 1; the
        ledger never reads a clock.
        """
        return self

    # -- compilation and execution -------------------------------------
    def _videos(self):
        """``(video, offset, where)`` per video under the target, in
        the order (and at the offsets) of the target's frame namespace;
        ``where`` names the member in error messages."""
        corpus = self._corpus
        if corpus is None:
            return [(self.target.video, 0, "")]
        return [
            (member.video, int(offset), f" on member {member.name!r}")
            for member, offset in zip(corpus.members, corpus.offsets())
        ]

    def plan(self) -> QueryPlan:
        """Compile to an executable plan (cheap; Phase 1 not run)."""
        target, corpus = self.target, self._corpus
        config = self._config if self._config is not None else target.config
        mode = self._mode
        window_size = self._window_size
        window_step = self._window_step
        if mode == "windows" and window_size == 1:
            # A 1-frame window is the frame query (paper Section 3.4).
            mode, window_size, window_step = "frames", None, None
        if mode == "windows" and window_step is None:
            window_step = target.scoring.step / WINDOW_STEP_DIVISOR
        budget = (
            config.phase2.oracle_budget
            if self._oracle_budget is _UNSET else self._oracle_budget
        )
        videos = self._videos()
        frame_ranges, window_seconds = self._resolve_window(mode, videos)
        return QueryPlan(
            video_name=target.video.name,
            udf_name=target.scoring.name,
            num_frames=sum(len(video) for video, _, _ in videos),
            mode=mode,
            k=self._k,
            thres=self._thres,
            window_size=window_size,
            window_step=window_step,
            oracle_budget=budget,
            config=config,
            unit_costs=target.resolved_unit_costs(),
            frame_ranges=frame_ranges,
            window_seconds=window_seconds,
        )

    def _resolve_window(self, mode, videos):
        """The one sliding-window rule: ``(frame_ranges, seconds)``.

        Per video: its own window (a windowed stream's) applies
        implicitly; an explicit clause may narrow but never widen it
        (the maintained relation only covers the video's window); the
        range starts ``window`` frames below the video's horizon — the
        stream clock where there is one, the end otherwise — and is
        offset into the target's namespace. A video with neither
        window contributes all its frames; a target with neither is
        unrestricted (``None``). ``seconds`` is the clause, else the
        widest implicit window.
        """
        explicit = self._window_seconds
        ranges, reported = [], explicit
        for video, offset, where in videos:
            num_frames = len(video)
            own = getattr(video, "window_frames", None)
            if explicit is None and own is None:
                ranges.append((offset, offset + num_frames))
                continue
            if mode != "frames":
                raise QueryError(
                    "sliding windows require the frame relation")
            seconds = explicit if explicit is not None \
                else float(video.window_seconds)
            window_frames = own if explicit is None \
                else window_frames_for(seconds, video.fps)
            if own is not None and window_frames > own:
                raise QueryError(
                    f"window of {seconds:g}s ({window_frames} frames) is "
                    f"wider than the session window ({own} frames){where}; "
                    f"the maintained relation does not cover it")
            horizon = int(getattr(video, "horizon", num_frames))
            lo = max(0, horizon - window_frames)
            if lo >= num_frames:
                raise QueryError(
                    f"window of {seconds:g}s has fully expired{where}: it "
                    f"starts at frame {lo} but only {num_frames} frames "
                    f"have arrived")
            ranges.append((offset + lo, offset + num_frames))
            reported = seconds if reported is None else max(reported, seconds)
        if reported is None:
            return None, None
        return tuple(ranges), reported

    def explain(self) -> str:
        """The compiled plan (plus a corpus's shard map), for humans."""
        text = self.plan().explain()
        corpus = self._corpus
        if corpus is None:
            return text
        shards = ", ".join(
            f"{member.name}[{int(offset)}:{int(offset) + len(member.video)}]"
            for member, offset in zip(corpus.members, corpus.offsets())
        )
        return f"{text}\n  shards   : {shards}"

    def run_detailed(self):
        """Compile and execute; the full outcome behind the report.

        An :class:`~repro.api.executor.ExecutionDetail` for a session,
        a :class:`~repro.corpus.federated.CorpusOutcome` (allocation,
        answer members, merged ledger) for a corpus — both carry
        ``.report``.
        """
        plan = self.plan()
        corpus = self._corpus
        if corpus is None:
            return self.target._executor().execute_detailed(plan)
        return corpus.execute_detailed(plan)

    def run(self) -> "QueryReport":
        """Compile and execute, returning the full query report."""
        return self.run_detailed().report

    def subscribe(self):
        """Maintain this query live over a growing target.

        Returns a :class:`~repro.streaming.live_topk.LiveTopK`, refreshed
        immediately and then re-certified on every ``append`` / ``tick``
        — one report per event, batch-equivalent ledgers. On a live
        session (:meth:`Session.open_stream`; a closed one refuses) fresh
        oracle work is proportional to the delta. On a corpus (at least
        one streaming member) the subscription is attached to every
        streaming member, and each member event re-runs the federated
        query.
        """
        corpus = self._corpus
        if corpus is None:
            return self.target.subscribe(self)
        streaming = [member for member in corpus.members if member.streaming]
        if not streaming:
            raise QueryError(
                "corpus subscriptions need at least one streaming "
                "member; open members with Session.open_stream(...)")
        from ..streaming.live_topk import LiveTopK

        subscription = LiveTopK(query=self)
        subscription.refresh()
        for member in streaming:
            member.session.attach_subscription(subscription)
        return subscription
