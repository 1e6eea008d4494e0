"""The corpus abstraction: N member videos behind one frame namespace.

A :class:`VideoCorpus` owns one :class:`~repro.api.session.Session`
per member (the unit of per-shard Phase-1 reuse — service-bound
members lease their builds single-flight through
:class:`~repro.service.artifacts.SharedArtifacts`, streaming members
maintain theirs incrementally) plus the merged corpus-level state a
corpus query executes against:

* **Shard identity.** Members are ordered; member ``m`` owns the
  global frame range ``[offset[m], offset[m] + len(m))`` where
  ``offset`` is the cumulative length of the preceding members — the
  rule of the corpus's one :class:`~repro.video.views.ConcatVideo`,
  which :meth:`VideoCorpus.offsets` reads and whose
  :meth:`~repro.video.views.ConcatVideo.locate` maps a global id
  back. All cross-shard structures — the merged relation's tuple ids,
  ledger merge order, error precedence — follow this one canonical
  order.
* **Merged Phase-1 state.** Per plan configuration, the member
  Phase-1 entries are merged into one corpus
  :class:`~repro.api.session.Phase1Entry` (see
  :func:`~repro.corpus.federated.merge_phase1_entries`) adopted by an
  internal session over that ConcatVideo. The merge is cached beside
  the member entries it merged, so a streaming member's append or tick
  (each a new entry) transparently invalidates it.
* **Execution.** :meth:`VideoCorpus.execute_detailed` runs a plan on
  the plain :class:`~repro.api.executor.QueryExecutor` of that
  session, confirming through the members' own score caches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..api.executor import QueryExecutor
from ..api.session import Phase1Entry, Session, phase1_key
from ..config import EverestConfig
from ..errors import CorpusError, QueryError
from ..oracle.cache import CachingOracle
from ..oracle.cost import CostModel
from ..video.views import ConcatVideo
from .federated import CorpusOutcome, MemberScoreCaches, merge_phase1_entries


@dataclass
class CorpusMember:
    """One shard: a name plus the session owning its video and Phase 1."""

    name: str
    session: Session

    @property
    def video(self):
        return self.session.video

    @property
    def streaming(self) -> bool:
        """Streaming members maintain Phase 1 incrementally."""
        return self.session.live


@dataclass
class _MergedState:
    """Corpus-level execution state for one ``phase1_key``."""

    #: The merged corpus Phase-1 entry the internal session adopted.
    entry: Phase1Entry
    #: The member entries merged, canonical member order.
    members: List[Phase1Entry]
    #: Internal session over the concat view, merged entry adopted.
    session: Session


class VideoCorpus:
    """An ordered set of member videos served as one top-k target."""

    def __init__(
        self,
        sessions: Sequence[Session],
        *,
        name: Optional[str] = None,
    ):
        if not sessions:
            raise CorpusError("a corpus needs at least one member")
        member_names = [session.video.name for session in sessions]
        if len(set(member_names)) != len(member_names):
            raise CorpusError(
                f"member names must be unique, got {member_names}")
        self.members: List[CorpusMember] = [
            CorpusMember(name=str(n), session=s)
            for n, s in zip(member_names, sessions)
        ]
        first = sessions[0]
        for member in self.members[1:]:
            if member.session.scoring.name != first.scoring.name:
                raise CorpusError(
                    f"corpus members must share one UDF; member "
                    f"{member.name!r} uses "
                    f"{member.session.scoring.name!r}, member "
                    f"{self.members[0].name!r} uses "
                    f"{first.scoring.name!r}")
            if member.session.resolved_unit_costs() != \
                    first.resolved_unit_costs():
                raise CorpusError(
                    f"corpus members must share one unit-cost map; "
                    f"member {member.name!r} differs")
        self.name = name if name is not None \
            else "+".join(m.name for m in self.members)
        self.scoring = first.scoring
        self.config = first.config
        #: The one frame namespace: offsets, ownership and reads.
        self.video = ConcatVideo(
            [member.video for member in self.members], name=self.name)
        self._merged_states: Dict[tuple, _MergedState] = {}
        # Serializes merge builds: concurrent service submissions of
        # the same corpus wait for one merge instead of redoing it
        # (the per-member Phase-1 builds already go single-flight
        # through the shared artifact layer when service-bound).
        self._merge_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        videos: Sequence,
        scoring,
        *,
        config: Optional[EverestConfig] = None,
        unit_costs: Optional[Dict[str, float]] = None,
        name: Optional[str] = None,
        **video_kwargs,
    ) -> "VideoCorpus":
        """Open a corpus over videos (objects or registry names).

        One session per member is opened with the shared ``scoring``
        (object or ``"count[car]"``-style spec) and configuration;
        ``video_kwargs`` are forwarded to every member's registry-name
        build, so they are refused beside a video-object member.
        """
        from ..api.registry import resolve_pair, resolve_udf

        if isinstance(scoring, str):
            scoring = resolve_udf(scoring)
        sessions = [
            Session(*resolve_pair(video, scoring, video_kwargs,
                                  call="VideoCorpus.open"),
                    config=config, unit_costs=unit_costs)
            for video in videos
        ]
        return cls(sessions, name=name)

    # ------------------------------------------------------------------
    # Shard identity
    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def member_names(self) -> List[str]:
        return [member.name for member in self.members]

    @property
    def total_frames(self) -> int:
        return len(self.video)

    def offsets(self) -> np.ndarray:
        """Global frame id of each member's frame 0 (member order)."""
        return self.video.offsets()

    def resolved_unit_costs(self) -> Dict[str, float]:
        return self.members[0].session.resolved_unit_costs()

    def scan_seconds(self) -> float:
        """Simulated scan-and-test cost over the whole corpus."""
        return sum(
            member.session.scan_seconds() for member in self.members)

    # ------------------------------------------------------------------
    # Phase 1: per-shard builds and the merged corpus entry
    # ------------------------------------------------------------------
    def _member_entry(
        self, member: CorpusMember, config: EverestConfig
    ) -> Phase1Entry:
        # Streaming sessions pin (phase1, diff, seed) themselves; their
        # incremental entry is the shard's Phase 1 regardless of the
        # corpus plan's Phase-2 knobs.
        if member.streaming:
            return member.session.phase1()
        return member.session.phase1(config)

    def prepare(
        self, config: Optional[EverestConfig] = None
    ) -> List[Phase1Entry]:
        """Build (or fetch) every member's Phase-1 entry, in order.

        One member after another; a cold corpus's builds fan out when
        it is submitted to a :class:`~repro.service.QueryService`,
        whose process lane leases :meth:`cold_members` side by side.
        """
        config = config if config is not None else self.config
        return [
            self._member_entry(member, config) for member in self.members
        ]

    def cold_members(self, config: EverestConfig) -> List[CorpusMember]:
        """Closed members whose Phase-1 entry for ``config`` is still
        to be built, in member order."""
        return [
            member for member in self.members
            if not member.streaming
            and not member.session.phase1_cached(config)
        ]

    def merged_state(
        self, config: Optional[EverestConfig] = None
    ) -> _MergedState:
        """The corpus-level execution state for ``config`` (cached).

        Builds member entries on demand (:meth:`prepare`), merges them
        into one global relation / entry, and binds an internal session
        over the concat view. The cache holds while every member
        returns the very entry it merged (an entry is a value: a
        streaming member's append or tick replaces it), so a clock
        event rebuilds the merge while closed corpora pay it once.
        """
        config = config if config is not None else self.config
        key = phase1_key(config)
        with self._merge_lock:
            return self._merged_state_locked(config, key)

    def _merged_state_locked(self, config, key) -> _MergedState:
        cached = self._merged_states.get(key)
        entries = self.prepare(config)
        if cached is not None and all(
                entry is merged
                for entry, merged in zip(entries, cached.members)):
            return cached

        entry = merge_phase1_entries(
            entries,
            self.offsets(),
            floor=self.scoring.score_floor,
            step=self.scoring.step,
        )
        session = Session(
            self.video, self.scoring, config=config,
            unit_costs=self.members[0].session._unit_costs)
        session.adopt_phase1(entry, config)
        state = _MergedState(
            entry=entry, members=entries, session=session)
        self._merged_states[key] = state
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self) -> "Query":
        """Start building a federated top-k query (fluent API)."""
        from ..api.query import Query

        return Query(target=self)

    def execute_detailed(self, plan) -> CorpusOutcome:
        """Run one compiled plan over the corpus; the full outcome.

        The plain executor of the merged state's session runs it: the
        relation read, the cleaning loop, ledger assembly and report
        construction are the single-video ones, and the confirming
        oracle is the plain :class:`~repro.oracle.cache.CachingOracle`
        over the members' own score caches — so the corpus report *is*
        a plain report over the merged relation. Only frame-mode plans
        are accepted: window semantics across shard boundaries are
        undefined.
        """
        if plan.mode != "frames":  # before the merge builds any Phase 1
            raise QueryError(
                "corpus queries rank frames; window aggregation across "
                "shard boundaries is undefined — query a member "
                "session for windows")
        state = self.merged_state(plan.config)
        caches = MemberScoreCaches(self.video, [
            member.session.shared_score_cache for member in self.members])

        def confirm_oracle(plan, phase2_cost: CostModel) -> CachingOracle:
            return CachingOracle(
                self.scoring, phase2_cost, cache=caches,
                cost_key="oracle_confirm", budget=plan.oracle_budget)

        detail = QueryExecutor(
            state.session, confirm_oracle=confirm_oracle
        ).execute_detailed(plan)
        return CorpusOutcome(
            report=detail.report,
            phase2_cost=detail.phase2_cost,
            phase1_costs=[e.cost_model for e in state.members],
            shard_confirms=caches.confirms,
            member_names=self.member_names,
            offsets=self.offsets().tolist(),
            fresh_confirm_calls=detail.fresh_confirm_calls,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VideoCorpus({self.name!r}, members={self.member_names}, "
            f"frames={self.total_frames})"
        )
