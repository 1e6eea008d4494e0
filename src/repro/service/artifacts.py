"""The service-scope shared artifact layer (DESIGN.md §8).

Everest's expensive state — Phase-1 artifacts (trained CMDN, diff
decisions, proxy mixtures, their ledger) and revealed exact scores —
is a pure function of ``(video, UDF, phase1 configuration)``. One
query paying for it should mean no concurrent or later query pays
again. :class:`SharedArtifacts` holds that state at *service* scope:

* **Single-flight Phase-1 builds.** ``lease()`` callers racing on the
  same :func:`~repro.api.session.phase1_key` block on one build; the
  winner's entry is shared by reference. Exactly one build per
  distinct key, no matter how many sessions, threads, or tenants ask.
  On a service's process lane the winner runs the build in a pool
  worker (:func:`~repro.service.backend.build_in_pool`) — the
  scheduler's threads would convoy on the GIL — and everything else
  about the lease is the same.
* **Bounded LRU.** ``max_entries`` caps resident Phase-1 entries;
  evicted keys rebuild (or warm-load) on next use. Sessions pin the
  entries they have leased, so eviction bounds *service* memory
  without invalidating in-flight queries.
* **Warm-start tier.** With ``warm_dir`` set, built entries persist
  through the streaming artifact store
  (:mod:`repro.streaming.store`: pickled state + sha256-verified
  manifest), and a cold service warm-loads them instead of retraining.
  Ledgers ride along, so a warm-loaded entry charges exactly what its
  original build charged — Phase 1 has no wall-clock timers.
* **Score cache registry.** One append-only
  :class:`~repro.oracle.cache.ScoreCache` per artifact *group* (video
  content × UDF), shared by every session the service opens over that
  group.

What the layer shares is immutable (a :class:`Phase1Entry`) or
append-only (a score cache); a live session's mutable inference
blocks stay its own.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api.session import Phase1Key
from ..core.phase1 import Phase1Entry, run_phase1
from ..errors import ConfigurationError, ServiceError
from ..oracle.cache import ScoreCache
from ..oracle.cost import CostModel
from ..trace import add_event, span as trace_span
from .backend import build_in_pool
from .scheduler import _clone_error

#: Identity of the (video content, UDF) pair an artifact belongs to.
#: Synthetic videos are fully determined by (family, name, length,
#: seed); the UDF by its registered name.
GroupKey = Tuple[str, str, int, Optional[int], str]

#: Identity of one Phase-1 artifact: its group plus the explicit
#: (phase1, diff, seed) key.
ArtifactKey = Tuple[GroupKey, Phase1Key]


def group_key(video, scoring) -> GroupKey:
    """The artifact-group identity of a (video, scoring) pair.

    Streaming views are unwrapped to their closed source: the group
    names the underlying *content*, so a stream and a batch session
    over the same footage share one score cache, and the key does not
    drift as the stream's watermark advances.
    """
    while hasattr(video, "source"):
        video = video.source
    seed = getattr(video, "seed", None)
    return (
        type(video).__name__,
        str(video.name),
        len(video),
        None if seed is None else int(seed),
        str(scoring.name),
    )


def artifact_digest(key: ArtifactKey) -> str:
    """A stable filesystem-safe digest of an artifact key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]


@dataclass
class _Build:
    """One in-flight single-flight build."""

    done: threading.Event = field(default_factory=threading.Event)
    entry: Optional[Phase1Entry] = None
    error: Optional[BaseException] = None


@dataclass
class ArtifactStats:
    """Counters describing what the store did (monotonic)."""

    builds: int = 0
    hits: int = 0
    single_flight_waits: int = 0
    warm_hits: int = 0
    warm_writes: int = 0
    evictions: int = 0
    #: Simulated seconds paid across every build, *including* rebuilds
    #: of LRU-evicted keys — the physical Phase-1 spend, unlike the
    #: dedup'd ledger archive ``phase1_ledgers()`` returns.
    build_seconds: float = 0.0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class SharedArtifacts:
    """Service-scope Phase-1 entries and per-group caches."""

    def __init__(
        self,
        *,
        max_entries: Optional[int] = None,
        warm_dir=None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be None or >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.warm_dir = warm_dir
        self._lock = threading.Lock()
        self._entries: "OrderedDict[ArtifactKey, Phase1Entry]" = \
            OrderedDict()
        # Ledger archive: one Phase-1 ledger per key ever built or
        # warm-loaded, immune to LRU eviction (ledgers are tiny, and a
        # service-level fold must keep charging evicted keys' builds). A
        # rebuild after eviction overwrites with bit-identical charges.
        self._ledgers: Dict[ArtifactKey, CostModel] = {}
        self._building: Dict[ArtifactKey, _Build] = {}
        self._score_caches: Dict[GroupKey, ScoreCache] = {}
        self.stats = ArtifactStats()
        #: ``session -> the pool its builds run in`` (None: on the
        #: leasing thread). A service installs its lane rule here; a
        #: store on its own builds inline.
        self.build_pool = lambda session: None

    # ------------------------------------------------------------------
    # Phase-1 entries
    # ------------------------------------------------------------------
    def lease(self, session, config, key: Phase1Key) -> Phase1Entry:
        """The shared Phase-1 entry for ``(session's group, key)``.

        Hit: returns the resident entry. Miss: exactly one caller
        builds (warm-loading first when a warm tier is configured)
        while every concurrent caller on the same key blocks and then
        shares the result. A failed build raises in every blocked
        caller (a private copy each, chained to the builder's error)
        and the key becomes buildable again.
        """
        artifact = (group_key(session.video, session.scoring), key)
        while True:
            with self._lock:
                entry = self._entries.get(artifact)
                if entry is not None:
                    self._entries.move_to_end(artifact)
                    self.stats.hits += 1
                    add_event(
                        "artifact_lease", outcome="hit",
                        digest=artifact_digest(artifact))
                    return entry
                build = self._building.get(artifact)
                if build is None:
                    build = _Build()
                    self._building[artifact] = build
                    break
                self.stats.single_flight_waits += 1
            with trace_span(
                    "artifact_wait", category="phase1",
                    digest=artifact_digest(artifact)):
                build.done.wait()
            if build.error is None:
                # The builder stored the entry before signalling; loop
                # to fetch it (and refresh its LRU position) normally.
                continue
            # A private copy per waiter: they re-raise on different
            # threads, and a raise writes to the instance it raises.
            raise _clone_error(build.error) from build.error

        try:
            with trace_span(
                    "artifact_build", category="phase1",
                    digest=artifact_digest(artifact)) as build_span:
                entry = self._load_warm(artifact)
                warm = entry is not None
                if entry is None:
                    pool = self.build_pool(session)
                    args = (
                        session.video, session.scoring,
                        session.resolved_unit_costs(), config)
                    entry = run_phase1(*args) if pool is None \
                        else build_in_pool(pool, *args)
                    with self._lock:
                        self.stats.builds += 1
                        self.stats.build_seconds += \
                            entry.cost_model.total_seconds()
                    self._store_warm(artifact, entry)
                if build_span is not None:
                    build_span.set(
                        warm=warm,
                        sim_seconds_total=entry.cost_model.total_seconds())
            self._admit(artifact, entry)
            build.entry = entry
        except BaseException as error:
            build.error = error
            raise
        finally:
            with self._lock:
                self._building.pop(artifact, None)
            build.done.set()
        return entry

    def _admit(self, artifact: ArtifactKey, entry: Phase1Entry) -> None:
        with self._lock:
            self._entries[artifact] = entry
            self._ledgers[artifact] = entry.cost_model
            self._entries.move_to_end(artifact)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def resident(self, artifact: ArtifactKey) -> bool:
        """Whether the artifact is resident right now (no LRU touch)."""
        with self._lock:
            return artifact in self._entries

    def phase1_ledgers(self) -> List[CostModel]:
        """One Phase-1 ledger per key ever built, in digest order.

        Drawn from the eviction-immune ledger archive — an LRU-evicted
        key's build still happened and must stay in the service-level
        merged ledger. Sorted by :func:`artifact_digest` rather than
        admission order: float addition is not associative, so a
        canonical merge order is what lets a service-level merged
        ledger equal a serial reference bit-for-bit regardless of
        scheduling races.
        """
        with self._lock:
            items = sorted(
                self._ledgers.items(),
                key=lambda kv: artifact_digest(kv[0]),
            )
        return [ledger for _, ledger in items]

    # ------------------------------------------------------------------
    # Warm-start tier (streaming artifact store)
    # ------------------------------------------------------------------
    def _warm_path(self, artifact: ArtifactKey):
        from pathlib import Path

        return Path(self.warm_dir) / artifact_digest(artifact)

    def _load_warm(self, artifact: ArtifactKey) -> Optional[Phase1Entry]:
        if self.warm_dir is None:
            return None
        from ..errors import CheckpointError
        from ..streaming.store import read_checkpoint

        path = self._warm_path(artifact)
        if not path.is_dir():
            return None
        try:
            state, _manifest = read_checkpoint(path)
            entry = state["entry"]
        except (CheckpointError, KeyError):
            # A torn or stale checkpoint is a miss, not a failure —
            # the build below overwrites it.
            return None
        if not isinstance(entry, Phase1Entry):
            return None
        with self._lock:
            self.stats.warm_hits += 1
        return entry

    def _store_warm(self, artifact: ArtifactKey, entry: Phase1Entry) -> None:
        if self.warm_dir is None:
            return
        from ..streaming.store import write_checkpoint

        write_checkpoint(
            self._warm_path(artifact),
            {"entry": entry},
            metadata={"artifact": repr(artifact)},
        )
        with self._lock:
            self.stats.warm_writes += 1

    # ------------------------------------------------------------------
    # Per-group caches
    # ------------------------------------------------------------------
    def score_cache(self, group: GroupKey) -> ScoreCache:
        """The shared exact-score cache for an artifact group."""
        with self._lock:
            cache = self._score_caches.get(group)
            if cache is None:
                cache = ScoreCache()
                self._score_caches[group] = cache
            return cache

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                **self.stats.as_dict(),
                "resident_entries": len(self._entries),
                "score_cache_groups": len(self._score_caches),
                "cached_scores": sum(
                    len(c) for c in self._score_caches.values()),
            }


__all__ = [
    "ArtifactKey",
    "ArtifactStats",
    "GroupKey",
    "SharedArtifacts",
    "ServiceError",
    "artifact_digest",
    "group_key",
]
