"""perfbench's own tracer: spans recorded from *outside* the program.

Nothing under ``src/`` is touched. :func:`install` wraps the public
functions at each layer boundary (monkeypatching the class attribute,
or every ``repro.*`` module global bound to a function) with wrappers
that record a span into a :class:`Recorder`; :func:`uninstall` puts the
originals back. Spans stay in memory and are written out when the run
ends (``run.py --out``).

A span's *self time* is its duration minus the part its child spans
cover. Calls too hot for a span each (one frame render, one
Select-candidate scan) are *leaves*: their time is summed by name and
charged to the enclosing span as child time, so self times still add
up. Work a layer hands to another thread (a scheduler worker running a
query, a stream's refresh pass) is re-parented after the run by
:meth:`Recorder.adopt_orphans`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, Hashable, List, Optional

_now = time.perf_counter

#: Span names another thread's orphan may be adopted into.
_CONTAINERS = ("op", "streaming.append", "windowed.tick", "gateway.handle")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child",
                 "opaque", "thread")

    def __init__(self, name, start, parent, op, opaque, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: Seconds of this span covered by its children (and leaves).
        self.child = 0.0
        #: Nothing inside an opaque span is traced (its time is whole).
        self.opaque = opaque
        self.thread = thread

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - self.child)


class Recorder:
    """In-memory spans, leaf totals and counts for one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.leaf_seconds: Counter = Counter()
        #: id(QueryPlan) -> op id, so a plan executed on a scheduler
        #: thread is attributed to the client op that submitted it.
        self.plan_ops: Dict[int, Hashable] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, op: Hashable = None,
             opaque: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, _now(), parent, op, opaque,
                    threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child += span.seconds
        with self._lock:
            self.spans.append(span)

    def leaf(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].child += seconds
        with self._lock:
            self.leaf_seconds[name] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def op(self, op_id: Hashable) -> "_OpScope":
        """Root span of one benchmark op (``with recorder.op(i):``)."""
        return _OpScope(self, op_id)

    def untraced(self) -> "_OpScope":
        """A stretch of the timed region kept out of the ledger."""
        return _OpScope(self, None, name="untraced", opaque=True)

    def attribute(self, plan, op_id: Hashable) -> None:
        """Spans that execute ``plan`` on any thread belong to ``op_id``
        (the caller keeps ``plan`` alive: it is tracked by ``id()``)."""
        self.plan_ops[id(plan)] = op_id

    # -- patching ------------------------------------------------------
    def patch_attr(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def patch_function(self, module, name: str, make: Callable) -> None:
        """Wrap ``module.name`` everywhere ``repro`` bound it by name."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(name) is original:
                setattr(mod, name, wrapper)
                self._patched.append((mod, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def adopt_orphans(self) -> None:
        """Parent spans recorded on a thread the op did not run on.

        An orphan carrying an op id (a plan attributed through
        :attr:`plan_ops`) goes under that op's root; any other orphan
        goes under the innermost container span of another thread that
        covers it in time.
        """
        roots = {s.op: s for s in self.spans if s.name == "op"}
        containers = [s for s in self.spans if s.name in _CONTAINERS]
        for span in self.spans:
            if span.parent is not None or span.name == "op":
                continue
            parent = roots.get(span.op) if span.op is not None else None
            if parent is None:
                covering = [
                    c for c in containers
                    if c.thread != span.thread
                    and c.start <= span.start and span.end <= c.end]
                if not covering:
                    continue
                parent = min(covering, key=lambda c: c.seconds)
            span.parent = parent
            span.op = parent.op
            parent.child += span.seconds

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def self_total(self, *names: str) -> float:
        return sum(s.self_seconds for s in self.spans if s.name in names)

    def dump(self) -> Dict[str, object]:
        """JSON-able record of everything traced (for ``--out``)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "self": s.self_seconds, "op": _jsonable(s.op),
                 "parent": index.get(id(s.parent))}
                for s in self.spans],
            "leaf_seconds": dict(self.leaf_seconds),
            "counts": dict(self.counts),
        }


def _jsonable(value):
    return value if isinstance(value, (int, float, str, type(None))) \
        else repr(value)


class _OpScope:
    def __init__(self, recorder: Recorder, op_id: Hashable, *,
                 name: str = "op", opaque: bool = False):
        self._recorder = recorder
        self._args = (name, op_id, opaque)

    def __enter__(self) -> Span:
        name, op_id, opaque = self._args
        self._span = self._recorder.open(name, op=op_id, opaque=opaque)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._recorder.close(self._span)


class NullRecorder:
    """The untraced run's recorder: every hook is a no-op."""

    def op(self, op_id):
        return _NULL_SCOPE

    def untraced(self):
        return _NULL_SCOPE

    def attribute(self, plan, op_id):
        pass

    def restore(self):
        pass

    def count(self, name, amount=1):
        pass


class _NullScope:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        pass


_NULL_SCOPE = _NullScope()


# ----------------------------------------------------------------------
# Wrapper factories


def _span(rec: Recorder, name, *, opaque=False, before=None, after=None,
          op_of=None):
    """A wrapper factory recording one span per call.

    ``name`` is a string or ``f(args) -> str``; ``op_of(args)`` names
    the op for calls that arrive on a foreign thread; ``before`` /
    ``after`` are count hooks (``after`` also sees the result).
    """
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if stack and stack[-1].opaque:
                return original(*args, **kwargs)
            if before is not None:
                before(rec, args, kwargs)
            span = rec.open(
                name(args) if callable(name) else name,
                op=op_of(rec, args, kwargs) if op_of else None,
                opaque=opaque)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(rec, args, kwargs, result)
            return result
        return wrapper
    return make


def _leaf(rec: Recorder, name: str, counter: Optional[str] = None):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if stack and stack[-1].opaque:
                return original(*args, **kwargs)
            started = _now()
            try:
                return original(*args, **kwargs)
            finally:
                rec.leaf(name, _now() - started)
                if counter is not None:
                    rec.count(counter)
        return wrapper
    return make


# -- count hooks -------------------------------------------------------

def _after_clip(rec, args, kwargs, keep):
    rec.count("diff.frames", int(keep.size))
    rec.count("diff.retained", int(keep.sum()))


def _after_infer(rec, args, kwargs, result):
    rec.count("infer.frames", int(len(args[1])))


def _oracle_name(args):
    return "oracle.label" if args[0].cost_key == "oracle_label" \
        else "oracle.confirm"


def _after_oracle(rec, args, kwargs, scores):
    rec.count(_oracle_name(args) + "_calls", int(len(scores)))


def _caching_oracle(rec: Recorder):
    """``CachingOracle.score`` also yields the cache-hit ratio: the
    oracle's own ``fresh_calls`` counter moves by the misses."""
    def make(original):
        spanned = _span(rec, _oracle_name, after=_after_oracle)(original)

        @functools.wraps(original)
        def wrapper(self, video, indices):
            fresh_before = self.fresh_calls
            scores = spanned(self, video, indices)
            if self.cost_key != "oracle_label":
                rec.count("confirm.cacheable", int(len(scores)))
                rec.count("confirm.fresh", self.fresh_calls - fresh_before)
            return scores
        return wrapper
    return make


def _after_clean(rec, args, kwargs, outcome):
    rec.count("clean.iterations", outcome.iterations)
    rec.count("clean.cleaned", outcome.cleaned)
    rec.count("clean.tuples", len(args[0].relation))


def _before_phase1(rec, args, kwargs):
    session = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    rec.count("phase1.calls")
    if session.phase1_cached(config):
        rec.count("phase1.hits")


def _op_of_plan(rec, args, kwargs):
    return rec.plan_ops.get(id(args[1]))


def _op_of_batch(rec, args, kwargs):
    plans = kwargs["plans"]
    return rec.plan_ops.get(id(plans[0])) if plans else None


def install(rec: Recorder) -> None:
    """Wrap every layer boundary (see README.md, per-layer table)."""
    from repro.api.executor import QueryExecutor
    from repro.api.session import Session
    from repro.core import phase1 as core_phase1
    from repro.core import uncertain, windows
    from repro.core.cleaner import TopKCleaner
    from repro.core.select_candidate import CandidateSelector
    from repro.gateway.app import Gateway
    from repro.models import trainer
    from repro.models.cmdn import ConvMDNProxy, FeatureMDNProxy
    from repro.oracle.base import Oracle
    from repro.oracle.cache import CachingOracle
    from repro.service import backend
    from repro.streaming.live_topk import LiveTopK
    from repro.streaming.session import StreamingSession
    from repro.video import diff
    from repro.video.synthetic import SyntheticVideo
    from repro.windowed.session import WindowedSession

    # video: render + difference detector
    rec.patch_attr(SyntheticVideo, "pixels",
                   _leaf(rec, "video.render", "video.render_calls"))
    rec.patch_attr(SyntheticVideo, "batch_pixels",
                   _span(rec, "video.batch_pixels"))
    rec.patch_attr(diff.DifferenceDetector, "run", _span(rec, "video.diff"))
    rec.patch_function(diff, "process_clip",
                       _span(rec, "video.diff_clip", after=_after_clip))
    # models: training is opaque (its forward passes are training, not
    # inference); inference is the proxy's predict_mixtures.
    rec.patch_function(trainer, "train_proxy_grid",
                       _span(rec, "models.train", opaque=True))
    rec.patch_function(core_phase1, "predict_mixtures_chunked",
                       _span(rec, "models.infer_chunked"))
    for proxy in (FeatureMDNProxy, ConvMDNProxy):
        rec.patch_attr(proxy, "predict_mixtures",
                       _span(rec, "models.infer", after=_after_infer))
    # oracle: label vs confirm by ledger key
    rec.patch_attr(Oracle, "score",
                   _span(rec, _oracle_name, after=_after_oracle))
    rec.patch_attr(CachingOracle, "score", _caching_oracle(rec))
    # core: Phase 1 assembly, Phase 2 loop
    rec.patch_function(core_phase1, "run_phase1", _span(rec, "core.phase1"))
    rec.patch_function(uncertain, "build_relation",
                       _span(rec, "core.relation_build"))
    rec.patch_function(windows, "build_window_relation",
                       _span(rec, "core.window_relation"))
    rec.patch_attr(TopKCleaner, "run",
                   _span(rec, "core.clean_loop", after=_after_clean))
    rec.patch_attr(CandidateSelector, "select", _leaf(rec, "core.select"))
    # api
    rec.patch_attr(QueryExecutor, "execute_detailed",
                   _span(rec, "api.execute", op_of=_op_of_plan))
    rec.patch_attr(Session, "phase1",
                   _span(rec, "api.phase1", before=_before_phase1))
    # streaming / windowed / gateway / service process lane
    rec.patch_attr(StreamingSession, "append",
                   _span(rec, "streaming.append"))
    rec.patch_attr(LiveTopK, "refresh", _span(rec, "streaming.refresh"))
    rec.patch_attr(WindowedSession, "tick", _span(rec, "windowed.tick"))
    rec.patch_attr(Gateway, "handle", _span(rec, "gateway.handle"))
    rec.patch_function(backend, "run_batch_in_pool",
                       _span(rec, "service.pool_batch", op_of=_op_of_batch))


# ----------------------------------------------------------------------
# Per-layer metrics


def _under_op(span: Span) -> bool:
    while span.parent is not None:
        span = span.parent
    return span.name == "op"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer metrics derivable from the spans alone.

    Seconds and counts are **per traced op** (root span) unless the
    name says per call / per frame; ``*_self_s`` is exclusive time,
    ``*_s`` inclusive. Workloads add the metrics only they can see
    (service, gateway payloads).
    """
    counts, leaves = rec.counts, rec.leaf_seconds
    roots = rec.named("op")
    ops = len(roots)
    per_op = (lambda value: value / ops) if ops else (lambda value: 0.0)
    covered = leaves["video.render"] + leaves["core.select"] + sum(
        s.self_seconds for s in rec.spans
        if s.name != "op" and _under_op(s))
    return {
        "video.render_calls": per_op(counts["video.render_calls"]),
        "video.renders_per_frame": _ratio(
            counts["video.render_calls"], counts["video.frames"]),
        "video.render_self_s": per_op(
            leaves["video.render"] + rec.self_total("video.batch_pixels")),
        "video.diff_self_s": per_op(
            rec.self_total("video.diff", "video.diff_clip")),
        "video.diff_retained_frac": _ratio(
            counts["diff.retained"], counts["diff.frames"]),
        "models.train_s": per_op(rec.total("models.train")),
        "models.infer_self_s": per_op(
            rec.self_total("models.infer_chunked", "models.infer")),
        "models.infer_frames": per_op(counts["infer.frames"]),
        "oracle.label_s": per_op(rec.total("oracle.label")),
        "oracle.label_calls": per_op(counts["oracle.label_calls"]),
        "oracle.confirm_s": per_op(rec.total("oracle.confirm")),
        "oracle.confirm_calls": per_op(counts["oracle.confirm_calls"]),
        "oracle.cache_hit_frac": 1.0 - _ratio(
            counts["confirm.fresh"], counts["confirm.cacheable"])
        if counts["confirm.cacheable"] else 0.0,
        "core.phase1_s": per_op(rec.total("core.phase1")),
        "core.relation_build_s": per_op(rec.total("core.relation_build")),
        "core.clean_loop_self_s": per_op(rec.self_total("core.clean_loop")),
        "core.select_s": per_op(leaves["core.select"]),
        "core.clean_iterations": per_op(counts["clean.iterations"]),
        "core.cleaned_frac": _ratio(
            counts["clean.cleaned"], counts["clean.tuples"]),
        "core.window_relation_s": per_op(rec.total("core.window_relation")),
        "api.execute_overhead_self_s": per_op(rec.self_total("api.execute")),
        "api.phase1_cache_hit_frac": _ratio(
            counts["phase1.hits"], counts["phase1.calls"]),
        "streaming.append_self_s": _mean(
            [s.self_seconds for s in rec.named("streaming.append")]),
        "streaming.refresh_s": _mean(
            [s.seconds for s in rec.named("streaming.refresh")]),
        "windowed.tick_self_s": _mean(
            [s.self_seconds for s in rec.named("windowed.tick")]),
        "gateway.handle_self_s": _mean(
            [s.self_seconds for s in rec.named("gateway.handle")]),
        "trace.layer_coverage_frac": _ratio(
            covered, sum(s.seconds for s in roots)),
    }
