"""One session class, one live view, one executor (DESIGN.md §4).

Structure pins that keep the collapse collapsed, the refusal matrix
for operations a video cannot do, the perfbench seam rule for the
methods its tracer patches through the class ``__dict__`` (next to
``test_perfbench_seams.py``), and the traps the merge walks past: the
``repro.streaming`` import cycle, label counts on a closed and a live
session, by-reference rewiring on resume, sealed window snapshots, and
events that report what *they* paid.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import EverestConfig, QueryService, Session, StreamingVideo
from repro.config import Phase1Config
from repro.errors import QueryError
from repro.oracle import counting_udf
from repro.oracle.cache import ScoreCache
from repro.video import TrafficVideo
from repro.video.streaming import is_sliding

SRC = Path(repro.__file__).resolve().parent
ALIAS_MODULES = ("streaming/session.py", "windowed/session.py")

FRAMES, BOOTSTRAP, FPS = 480, 240, 30.0
CONFIG = EverestConfig(
    phase1=Phase1Config(
        sample_fraction=0.05,
        min_train_samples=96,
        holdout_samples=48,
        cmdn_grid=((3, 12),),
        epochs=15,
    ),
)


def source(name="kinds") -> TrafficVideo:
    return TrafficVideo(name, FRAMES, seed=17)


def open_stream(**kwargs) -> Session:
    return Session.open_stream(
        source(), counting_udf("car"), initial_frames=BOOTSTRAP,
        config=CONFIG, **kwargs)


def closed() -> Session:
    return Session(source(), counting_udf("car"), config=CONFIG)


# ----------------------------------------------------------------------
# (a) Structure: one of each, old paths deleted.

def _sources():
    return {path: path.read_text("utf-8") for path in SRC.rglob("*.py")}


def test_exactly_one_session_class_statement():
    found = [
        (path.relative_to(SRC).as_posix(), match.group(1))
        for path, text in _sources().items()
        if path.relative_to(SRC).parts[0] in ("api", "streaming", "windowed")
        for match in re.finditer(r"^class (\w*Session)\b", text, re.M)
    ]
    assert found == [("api/session.py", "Session")]


def test_old_names_are_plain_aliases():
    from repro.streaming.session import StreamingSession
    from repro.windowed.session import WindowedSession
    assert StreamingSession is Session
    assert WindowedSession is Session
    # Only the modules frozen perfbench imports keep an alias: neither
    # package, nor ``repro``, spells it a second time.
    for name in ("StreamingSession", "WindowedSession"):
        assert not hasattr(repro.streaming, name), name
        assert not hasattr(repro.windowed, name), name
    for name in ("StreamingSession", "WindowedSession", "WindowedVideo",
                 "open_session"):
        assert not hasattr(repro, name), name
    assert not hasattr(repro.windowed, "WindowedVideo")
    assert not (SRC / "windowed" / "view.py").exists()
    for name in ("CachingOracle", "ScoreCache", "INFER_BLOCK",
                 "BlockInferenceCache", "IncrementalDiff"):
        assert not hasattr(repro.streaming, name), name


@pytest.mark.parametrize("module", ALIAS_MODULES)
def test_alias_modules_hold_only_aliases_and_reexports(module):
    body = ast.parse((SRC / module).read_text("utf-8")).body
    assert isinstance(body[0], ast.Expr)  # the docstring saying why
    for node in body[1:]:
        assert isinstance(node, ast.ImportFrom) or (
            isinstance(node, ast.Assign)
            and node.targets[0].id == "__all__"), ast.dump(node)


def test_no_executor_subclass_and_no_kind_probes():
    for path, text in _sources().items():
        assert not re.search(r"^class \w+\([^)]*QueryExecutor", text, re.M), \
            f"{path}: the one executor takes a confirm_oracle= factory"
        assert not re.search(
            r"""hasattr\([^)]*["'](append|tick)["']\)""", text), \
            f"{path}: tell session kinds apart through Session.live"
        assert not re.search(
            r"""getattr\([^)]*["'](subscribe|stats)["']""", text), path
        assert not re.search(
            r"isinstance\([^)]*(StreamingSession|WindowedSession|"
            r"WindowedVideo)\)", text), path


# ----------------------------------------------------------------------
# (b) The perfbench seam rule: frozen perfbench/tracing.py patches these
# through ``owner.__dict__[attr]`` on the alias names.

@pytest.mark.parametrize("name", ["append", "tick", "phase1"])
def test_patched_methods_are_defined_on_the_one_class(name):
    assert name in Session.__dict__


# ----------------------------------------------------------------------
# (c) The wrong kind fails cleanly.

def test_closed_session_refuses_what_only_a_growing_video_can_do():
    session = closed()
    assert session.live is False and not hasattr(session, "_maintainer")
    hint = r"Session\.open_stream\(.*window_seconds=\.\.\.\)"
    for call in (
        lambda: session.append(5),
        lambda: session.tick(5),
        lambda: session.query().topk(3).subscribe(),
        lambda: session.attach_subscription(object()),
        lambda: session.checkpoint("unused"),
        lambda: session.batch_session(),
    ):
        with pytest.raises(QueryError, match=hint):
            call()
    # ... and nothing ran: no Phase 1 was built on the way to refusing.
    assert session.phase1_runs == 0


@pytest.mark.parametrize("kwargs", [
    {"autosave_path": "unused", "score_cache": ScoreCache()},
    {"autosave_path": "unused"},
    {"score_cache": ScoreCache()},
])
def test_live_only_constructor_arguments_are_refused_on_a_closed_video(
        kwargs):
    with pytest.raises(QueryError, match=r"Session\.open_stream\("):
        Session(source(), counting_udf("car"), config=CONFIG, **kwargs)
    # A sealed snapshot is closed too.
    sealed = StreamingVideo(source(), BOOTSTRAP).snapshot()
    with pytest.raises(QueryError, match=r"Session\.open_stream\("):
        Session(sealed, counting_udf("car"), config=CONFIG, **kwargs)


def test_unwindowed_stream_refuses_tick_and_nothing_moves():
    stream = open_stream()
    assert stream.live and stream.window_frames is None
    assert (stream.window_lo, stream.horizon) == (0, BOOTSTRAP)
    with pytest.raises(
            QueryError,
            match=r"Session\.open_stream\(\.\.\., window_seconds=\.\.\.\)"):
        stream.tick(5)
    assert stream.horizon == stream.watermark == BOOTSTRAP
    assert len(stream.segments) == 1
    # The horizon rides the watermark.
    stream.append(60)
    assert stream.horizon == stream.watermark == BOOTSTRAP + 60


def test_live_session_refuses_batch_side_service_wiring():
    stream = open_stream()
    label_cache = stream._maintainer.label_oracle.cache
    assert stream.shared_score_cache is label_cache
    entry = closed().phase1()
    with QueryService(workers=1, use_processes=False) as service:
        for call in (
            lambda: stream.bind_service(service.artifacts, ScoreCache()),
            lambda: stream.adopt_phase1(entry),
            lambda: service.adopt_session(stream),
        ):
            with pytest.raises(QueryError, match="attach_stream"):
                call()
        # The stream still confirms and labels through one cache.
        assert stream.artifacts is None
        assert stream.shared_score_cache is label_cache
        # attach_stream is the way in — and refuses the other kind.
        assert service.attach_stream(stream) is stream
        with pytest.raises(QueryError, match="live session"):
            service.attach_stream(closed())


# ----------------------------------------------------------------------
# (d) Resume: the pickled video carries its own window.

def test_plain_stream_resumes_unwindowed_and_rewired_by_reference(tmp_path):
    stream = open_stream()
    live = stream.query().topk(3).guarantee(0.85).subscribe()
    stream.append(60)
    stream.checkpoint(tmp_path / "ck")

    resumed = Session.resume(tmp_path / "ck")
    assert type(resumed) is Session and resumed.live
    assert resumed.window_frames is None
    assert resumed.horizon == resumed.watermark == stream.watermark
    with pytest.raises(QueryError, match="window_seconds"):
        resumed.tick(5)
    # The pickle graph kept the shared identities; resume rewired the
    # session to them instead of to the fresh ones its constructor made.
    maintainer = resumed._maintainer
    assert maintainer.label_oracle.cache is resumed.shared_score_cache
    assert maintainer.video is resumed.video
    assert len(resumed.shared_score_cache) == len(stream.shared_score_cache)
    assert maintainer.fresh_inferred_frames == \
        stream._maintainer.fresh_inferred_frames
    # Zero Phase-1 oracle calls to re-serve the watermark.
    again = resumed.query().topk(3).guarantee(0.85).subscribe()
    assert again.latest.to_json() == live.latest.to_json()
    assert maintainer.label_oracle.fresh_calls == \
        stream._maintainer.label_oracle.fresh_calls


# ----------------------------------------------------------------------
# Traps.

@pytest.mark.parametrize("first", [
    "repro.api.session", "repro.streaming", "repro.windowed.session"])
def test_either_import_order_works(first):
    # repro.streaming's package import reaches back into repro.api
    # (live_topk -> api.executor -> api.session), so api/session.py
    # must not import it at module top.
    code = (f"import {first}; from repro.api.session import Session; "
            f"from repro.streaming.session import StreamingSession; "
            f"assert StreamingSession is Session")
    subprocess.run(
        [sys.executable, "-c", code], check=True,
        env={"PYTHONPATH": str(SRC.parent)})


def test_executor_is_freed_without_the_cyclic_collector():
    # Storing a bound method of itself as the oracle factory made every
    # executor a reference cycle: +12 MB peak RSS on perfbench's
    # cold_archive until the cyclic GC caught up.
    import gc
    import weakref

    from repro.api.executor import QueryExecutor

    session = closed()
    plan = session.query().topk(3).guarantee(0.85).plan()
    gc.collect()
    gc.disable()
    try:
        executor = QueryExecutor(session)
        executor.execute(plan)
        freed = weakref.ref(executor)
        del executor
        assert freed() is None
    finally:
        gc.enable()


def test_stats_is_none_when_closed_and_syncs_labels_when_live():
    # A closed session keeps no label counter (its build labels through
    # a throwaway oracle); a live one reads its maintainer's, which an
    # append diffs for the labels *it* paid — none, training is pinned.
    session = closed()
    session.query().topk(3).guarantee(0.85).run()
    assert not hasattr(session, "_maintainer")
    stream = open_stream()
    labels = stream._maintainer.label_oracle
    assert labels.fresh_calls == 0
    stream.phase1()
    paid = labels.fresh_calls
    assert paid > 0
    assert stream.append(60).fresh_label_calls == 0
    assert labels.fresh_calls == paid


def test_sealed_window_snapshot_keeps_its_window_but_never_slides():
    stream = open_stream(window_seconds=200 / FPS)
    stream.append(60)
    stream.tick(30)
    snap = stream.video.snapshot()
    assert snap.sealed and not is_sliding(snap) and is_sliding(stream.video)
    assert (snap.window_frames, snap.horizon, snap.window_lo) == \
        (200, stream.horizon, stream.window_lo)
    batch = stream.batch_session()
    assert batch.live is False
    # The fluent builder windows the batch reference implicitly...
    plan = batch.query().topk(3).plan()
    assert plan.frame_ranges == ((stream.window_lo, stream.watermark),)
    # ...over a relation that keeps the whole prefix.
    assert len(batch.phase1().relation) > \
        len(stream.phase1().relation)


# ----------------------------------------------------------------------
# An event reports what *it* paid.

def test_event_reports_its_own_refresh_not_a_concurrent_query():
    def run(noisy: bool):
        stream = open_stream()
        live = stream.query().topk(3).guarantee(0.85).subscribe()
        unrelated = stream.query().topk(40).guarantee(0.99)

        def dispatch(refresh):
            # What a scheduler thread does mid-event: an ad-hoc query
            # on the same stream lands before the refresh pass runs.
            ad_hoc.append(stream._executor().execute_detailed(
                unrelated.plan()).fresh_confirm_calls)
            return refresh()

        ad_hoc = []
        if noisy:
            stream.refresh_dispatcher = dispatch
        return live, stream.append(120), ad_hoc

    plain_live, plain_result, _ = run(noisy=False)
    noisy_live, noisy_result, ad_hoc = run(noisy=True)
    assert plain_result.fresh_confirm_calls == \
        plain_live.detail.fresh_confirm_calls > 0
    # The ad-hoc query revealed every frame the refresh then needed.
    assert noisy_result.fresh_confirm_calls == \
        noisy_live.detail.fresh_confirm_calls
    assert noisy_result.fresh_confirm_calls < plain_result.fresh_confirm_calls
    assert [r.to_json() for r in noisy_result.reports] == \
        [r.to_json() for r in plain_result.reports]
    # The ad-hoc query's own confirms were counted on its own executor.
    assert ad_hoc[0] > 0
