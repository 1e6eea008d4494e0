"""The Phase-2 loop against its frozen reference, and the work it may do.

Three contracts (DESIGN.md §3):

* **Differential.** ``TopKCleaner`` — shared log tables, running
  certain Top-K, one validated batch update, pruned Select-candidate
  scan, its cleaning state kept beside a relation it never writes —
  returns field-for-field the ``Phase2Result`` of
  ``reference_phase2.ReferenceCleaner`` (the loop as it stood before,
  kept verbatim), cleans the same id batches in the same order,
  reports equal ``SelectionStats`` and ends knowing the scores the
  reference wrote into its copy.
* **Work pins.** What is a pure function of a Phase-1 entry is derived
  once per entry, however many queries read it, and a stream's append
  invalidates it by rebuilding the entry.
* **Derived state never crosses a pipe or lands on disk.**
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EverestConfig, QueryService, Session
from repro.config import Phase2Config
from repro.core import phase1 as core_phase1
from repro.core import uncertain
from repro.core.cleaner import TopKCleaner
from repro.core.select_candidate import (
    RESORT_EVERY,
    RESORT_WARMUP,
    CandidateSelector,
)
from repro.core.topk_prob import ConfidenceState
from repro.core.uncertain import (
    QuantizationGrid,
    UncertainRelation,
    restrict_relation,
)
from repro.core.windows import window_bounds, window_truth
from repro.oracle import counting_udf
from repro.service.backend import ship_spec
from repro.video import TrafficVideo

from conftest import with_certain
from reference_phase2 import (
    ReferenceCleaner,
    ReferenceConfidenceState,
    ReferenceSelector,
    SelectCandidateConfig,
)

WAIT = 60.0
FAST = EverestConfig.fast()
SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Differential: the optimised loop == the frozen loop.


RELATION_FIELDS = ("pmf", "cdf", "certain", "exact_scores")


def _relation_bytes(relation):
    return [getattr(relation, field).tobytes() for field in RELATION_FIELDS]


def _both(relation, truth, k, thres, config):
    """Run the reference (it cleans its own writable copy of
    ``relation``) and ``TopKCleaner`` on ``relation``; return what each
    saw.

    ``truth`` maps tuple id -> exact score. Each side records the id
    batches its ``clean_fn`` was handed. The last item of each outcome
    is what holds the cleaned scores: the reference's relation copy,
    the new loop's cleaner.
    """
    outcomes = []
    pristine = _relation_bytes(relation)
    for reference in (True, False):
        batches = []

        def clean_fn(ids, batches=batches):
            batches.append(list(ids))
            return np.asarray([truth[i] for i in ids], dtype=np.float64)

        if reference:
            cleaner = ReferenceCleaner(relation, clean_fn, config)
        else:
            cleaner = TopKCleaner(relation, clean_fn, config)
        result = cleaner.run(k, thres)
        outcomes.append((
            result, batches, cleaner.relation if reference else cleaner))
    # The new loop read D0 and wrote none of it.
    assert _relation_bytes(relation) == pristine
    return outcomes


def _assert_same(outcomes):
    (ref, ref_batches, ref_rel), (new, new_batches, cleaner) = outcomes
    assert new_batches == ref_batches
    assert new.answer_ids == ref.answer_ids
    assert new.answer_scores == ref.answer_scores
    assert new.confidence == ref.confidence
    assert new.iterations == ref.iterations
    assert new.cleaned == ref.cleaned
    assert new.confidence_trace == ref.confidence_trace
    assert new.selection_stats == ref.selection_stats
    assert new == ref  # and any field added later
    # What the reference wrote into its copy, the new loop holds itself.
    assert cleaner.certain.tobytes() == ref_rel.certain.tobytes()
    assert cleaner.exact_scores.tobytes() == ref_rel.exact_scores.tobytes()
    assert cleaner.num_certain == ref_rel.num_certain


@st.composite
def phase2_cases(draw):
    """A small relation built to hit the loop's corners.

    Scores come from a three-value pool so exact scores tie (the id
    tie-break decides the answer); ids are a shuffled range so
    position order is not id order; pmfs may start with zero levels so
    ``F_f(t) = 0`` and the ``-inf`` bookkeeping runs; the number of
    certain tuples ranges from 0 (bootstrap from nothing) past K.
    """
    n = draw(st.integers(2, 14))
    levels = draw(st.integers(2, 6))
    ids = draw(st.permutations(range(100, 100 + n)))
    pmf = np.zeros((n, levels))
    for row in range(n):
        lead = draw(st.integers(0, levels - 1))
        weights = draw(st.lists(
            st.floats(0.05, 1.0), min_size=levels - lead,
            max_size=levels - lead))
        pmf[row, lead:] = np.asarray(weights) / np.sum(weights)
    pool = draw(st.lists(
        st.integers(0, levels - 1), min_size=1, max_size=3))
    truth = {i: float(draw(st.sampled_from(pool))) for i in ids}
    relation = UncertainRelation(
        list(ids), pmf, QuantizationGrid(0.0, 1.0, levels))
    certain = draw(st.lists(
        st.integers(0, n - 1), max_size=n - 1, unique=True))
    if certain:
        relation = with_certain(
            relation, certain, [truth[ids[p]] for p in certain])
    k = draw(st.sampled_from([1, 2, n // 2 or 1, n]))
    thres = draw(st.sampled_from([0.5, 0.9, 0.99, 1.0]))
    config = Phase2Config(batch_size=draw(st.sampled_from([1, 2, 8])))
    return relation, truth, k, thres, config


@SETTINGS
@given(case=phase2_cases())
def test_small_relations_match_the_reference(case):
    _assert_same(_both(*case))


@st.composite
def wide_span_cases(draw):
    """A relation whose first iteration has S_k..S_p >= 8 levels apart.

    Two certain tuples sit at ``S_p`` and ``S_k``; every uncertain pmf
    spreads over the whole grid, so Eq. 6's middle case sums 8 to 22
    nonzero weight x exclusion terms per tuple — where NumPy's
    reduction turns pairwise and the summation order shows in the
    last bits.
    """
    levels = draw(st.integers(12, 24))
    gap = draw(st.integers(8, levels - 2))
    k_level = draw(st.integers(0, levels - 1 - gap))
    n = draw(st.integers(6, 40))
    weights = np.asarray(draw(st.lists(
        st.floats(0.05, 1.0), min_size=n * levels, max_size=n * levels)))
    pmf = weights.reshape(n, levels)
    pmf = pmf / pmf.sum(axis=1, keepdims=True)
    ids = draw(st.permutations(range(200, 200 + n)))
    truth = {i: float(draw(st.integers(0, levels - 1))) for i in ids}
    truth[ids[0]], truth[ids[1]] = float(k_level + gap), float(k_level)
    relation = UncertainRelation(
        list(ids), pmf, QuantizationGrid(0.0, 1.0, levels))
    relation = with_certain(relation, [0, 1], [truth[ids[0]], truth[ids[1]]])
    config = Phase2Config(batch_size=draw(st.sampled_from([1, 3, 8])))
    thres = draw(st.sampled_from([0.9, 0.99]))
    return relation, truth, (k_level, k_level + gap), thres, config


@SETTINGS
@given(case=wide_span_cases())
def test_wide_level_spans_sum_as_the_reference_does(case):
    """The Eq. 6 weights term over >= 8 levels: bit for bit the
    reference's sum along a C-contiguous (positions, levels) array,
    then the whole loop as the reference runs it."""
    relation, truth, (k_level, p_level), thres, config = case
    uncertain = relation.uncertain_positions()
    ours = CandidateSelector(
        relation, ConfidenceState(relation)).expected_confidences(
            uncertain, k_level, p_level)
    theirs = ReferenceSelector(
        relation, ReferenceConfidenceState(relation)).expected_confidences(
            uncertain, k_level, p_level)
    assert ours.tobytes() == theirs.tobytes()
    _assert_same(_both(relation, truth, 2, thres, config))


class _CheckedSelector(CandidateSelector):
    """The engine's one scan, each batch checked against the reference's
    exhaustive scan over the same uncertain tuples: as good a batch,
    however the ties fall."""

    def __init__(self, cleaner):
        super().__init__(cleaner.relation, cleaner.state)
        self.cleaner = cleaner

    def select(self, iteration, k_level, p_level, batch_size, p_hat):
        picked = super().select(
            iteration, k_level, p_level, batch_size, p_hat)
        cleaned = np.flatnonzero(
            ~self.state.uncertain_mask & ~self.relation.certain)
        relation = with_certain(
            self.relation, cleaned, self.cleaner.exact_scores[cleaned])
        reference = ReferenceSelector(
            relation, ReferenceConfidenceState(relation),
            SelectCandidateConfig(use_upper_bound=False))
        best = reference.select(iteration, k_level, p_level, batch_size)
        assert np.array_equal(
            np.sort(reference.expected_confidences(picked, k_level, p_level)),
            np.sort(reference.expected_confidences(best, k_level, p_level)))
        return picked


@pytest.mark.parametrize("use_upper_bound", [True, False])
@pytest.mark.parametrize("seed,flat", [(1, False), (2, True), (3, True)])
def test_multi_chunk_scans_match_the_reference(seed, flat, use_upper_bound):
    """1 400 uncertain tuples: the scan crosses its 512-row chunks
    (flat pmfs weaken the Eq. 7 bound, so it stops late) and the
    kept-best pruning ranks every chunk against the ones before. The
    reference runs the same scan; against its exhaustive one
    (``use_upper_bound=False``) every batch is as good."""
    rng = np.random.default_rng(seed)
    n, levels = 1_500, 9
    weights = rng.uniform(0.9, 1.0, (n, levels)) if flat \
        else rng.gamma(0.4, size=(n, levels)) + 1e-6
    lead = rng.integers(0, 4, n)
    weights[np.arange(levels)[None, :] < lead[:, None]] = 0.0
    pmf = weights / weights.sum(axis=1, keepdims=True)
    ids = rng.permutation(n) + 10
    truth = dict(zip(ids.tolist(), rng.integers(0, levels, n).astype(float)))
    relation = UncertainRelation(ids, pmf, QuantizationGrid(0.0, 1.0, levels))
    known = rng.choice(n, 100, replace=False)
    relation = with_certain(
        relation, known, [truth[int(ids[p])] for p in known])
    k, config = 50 if flat else 20, Phase2Config(batch_size=8)
    if use_upper_bound:
        outcomes = _both(relation, truth, k, 0.9, config)
        _assert_same(outcomes)
        stats = outcomes[1][0].selection_stats
    else:
        cleaner = TopKCleaner(
            relation,
            lambda ids: np.asarray([truth[i] for i in ids], dtype=np.float64),
            config)
        cleaner.selector = _CheckedSelector(cleaner)
        stats = cleaner.run(k, 0.9).selection_stats
    assert stats.calls > 0
    if flat:
        assert stats.frames_examined > 512 * stats.calls  # crossed chunks


def test_long_loops_resort_on_the_papers_schedule():
    """Past the re-sort warmup: 235 one-frame iterations re-sort every
    RESORT_EVERY for RESORT_WARMUP, then on a change of S_k / S_p only,
    as the reference does at its default schedule."""
    rng = np.random.default_rng(0)
    n, levels = 300, 9
    pmf = rng.gamma(0.4, size=(n, levels)) + 1e-6
    pmf /= pmf.sum(axis=1, keepdims=True)
    ids = rng.permutation(n) + 10
    truth = dict(zip(ids.tolist(), rng.integers(0, levels, n).astype(float)))
    relation = UncertainRelation(ids, pmf, QuantizationGrid(0.0, 1.0, levels))
    outcomes = _both(relation, truth, 40, 0.99, Phase2Config(batch_size=1))
    _assert_same(outcomes)
    result = outcomes[1][0]
    assert result.iterations > RESORT_WARMUP
    assert result.selection_stats.resorts > RESORT_WARMUP // RESORT_EVERY


@pytest.fixture(scope="module")
def session():
    session = Session(
        TrafficVideo("phase2-eq", 900, seed=77), counting_udf("car"),
        config=FAST)
    session.phase1()
    return session


@pytest.mark.parametrize("k,thres", [(1, 0.9), (5, 0.9), (20, 0.99)])
def test_phase1_relations_match_the_reference(session, k, thres):
    """A real D0, a row-restricted one (the sliding-window primitive:
    its tables are rows of the entry's) and a window-level one."""
    entry = session.phase1()
    truth = session.video.truth_array()
    frames = dict(enumerate(truth.tolist()))
    full = entry.relation
    restricted = restrict_relation(full, [(100, 400), (600, 850)])
    assert 0 < len(restricted) < len(full)
    windows = entry.window_relation(
        window_size=30, floor=0.0, step=0.25)
    window_scores = dict(enumerate(window_truth(truth, 30).tolist()))
    for relation, scores in ((full, frames), (restricted, frames),
                             (windows, window_scores)):
        _assert_same(_both(relation, scores, k, thres, Phase2Config()))


# ----------------------------------------------------------------------
# Work pins: derived once per entry, not once per query.


@pytest.fixture
def derivations(monkeypatch):
    """Count table builds and window-relation builds by wrapping."""
    counts = {"tables": 0, "window_relations": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        uncertain, "_with_sums", counted("tables", uncertain._with_sums))
    monkeypatch.setattr(
        core_phase1, "build_window_relation",
        counted("window_relations", core_phase1.build_window_relation))
    return counts


@pytest.fixture
def column_builds(monkeypatch):
    """The grid level of every level-column copy, by wrapping."""
    built = []
    original = uncertain._level_columns

    def wrapper(tables, level):
        built.append(level)
        return original(tables, level)

    monkeypatch.setattr(uncertain, "_level_columns", wrapper)
    return built


def _fresh_session(name="pins", seed=78, frames=700):
    session = Session(
        TrafficVideo(name, frames, seed=seed), counting_udf("car"),
        config=FAST)
    session.phase1()
    return session


def _ask(session, k=5, window=0):
    query = session.query().topk(k).guarantee(0.9)
    if window:
        query = query.windows(size=window)
    return query.run().to_json()


def test_log_tables_are_built_once_per_entry(derivations):
    session = _fresh_session()
    reports = [_ask(session, k) for k in (3, 5, 8, 5, 3, 12)]
    assert derivations == {"tables": 1, "window_relations": 0}
    assert reports[1] == reports[3] and reports[0] == reports[4]
    # The entry's relation still holds the tables every query shares;
    # a restriction to every row is the relation itself.
    relation = session.phase1().relation
    assert restrict_relation(relation, [(0, 10**9)]).log_tables() \
        is relation.log_tables()
    assert derivations["tables"] == 1


def test_window_relations_are_built_once_per_shape(derivations):
    session = _fresh_session()
    for _ in range(3):
        for window in (20, 30):
            _ask(session, window=window)
    _ask(session, k=7, window=30)  # K is not part of the shape
    # One relation and one set of tables per window shape.
    assert derivations == {"tables": 2, "window_relations": 2}
    # ...and one set of window samples per window size: a window id
    # means other frames under another size.
    samples = vars(session.phase1())["_window_samples"]
    assert sorted(samples) == [
        (size, FAST.seed, 700) for size in (20, 30)]
    for (size, _, frames), drawn in samples.items():
        assert drawn
        for window_id, sample in drawn.items():
            start, end = window_bounds(window_id, size, frames)
            assert sample.size == -(-(end - start) // 10)
            assert ((sample >= start) & (sample < end)).all()


def test_level_columns_are_built_once_per_level(column_builds):
    session = _fresh_session()
    relation = session.phase1().relation
    shapes = [(k, window) for k in (3, 5, 8, 12) for window in (0, 30)]
    reports = [_ask(session, k, window) for k, window in shapes]
    window = session.phase1().window_relation(
        window_size=30, floor=0.0, step=0.25)
    memos = [vars(relation)["_columns"], vars(window)["_columns"]]
    built = list(column_builds)
    # One copy per (relation, level) read, however many queries read it.
    assert len(built) == sum(len(memo) for memo in memos) > 0
    assert [_ask(session, k, w) for k, w in shapes] == reports
    assert column_builds == built
    # A restriction to every row is the relation itself; a real one
    # takes rows of every column built so far and copies nothing itself.
    level = next(iter(memos[0]))
    assert restrict_relation(relation, [(0, 10**9)]).level_columns(level) \
        is relation.level_columns(level)
    restricted = restrict_relation(relation, [(100, 400)])
    mask = (relation.ids >= 100) & (relation.ids < 400)
    assert vars(restricted)["_columns"].keys() == memos[0].keys()
    for level, columns in vars(restricted)["_columns"].items():
        for mine, full in zip(columns, memos[0][level]):
            assert mine.tobytes() == full[mask].tobytes()
    assert column_builds == built


def test_a_rebuild_with_one_more_certain_tuple_has_its_own_columns():
    session = _fresh_session()
    entry_relation = session.phase1().relation
    _ask(session)
    level = next(iter(vars(entry_relation)["_columns"]))
    shared = entry_relation.level_columns(level)
    relation = with_certain(
        entry_relation, [int(entry_relation.uncertain_positions()[0])], [2.0])
    assert "_columns" not in vars(relation)
    rebuilt = relation.level_columns(level)
    assert rebuilt is not shared
    assert rebuilt[2].tobytes() == relation.cdf[:, level].tobytes()
    assert rebuilt[3].tobytes() == relation.pmf[:, level].tobytes()
    # The entry's own memo is untouched.
    assert entry_relation.level_columns(level) is shared
    assert shared[2].tobytes() == entry_relation.cdf[:, level].tobytes()


def test_a_rebuild_with_one_more_certain_tuple_has_its_own_tables():
    session = _fresh_session()
    entry_relation = session.phase1().relation
    tables = entry_relation.log_tables()
    relation = with_certain(
        entry_relation, [int(entry_relation.uncertain_positions()[0])], [2.0])
    rebuilt = relation.log_tables()
    assert rebuilt is not tables
    # The sums left the certain row out; the entry's own are untouched.
    assert not np.array_equal(rebuilt[2], tables[2])
    assert entry_relation.log_tables() is tables


def test_two_threads_racing_the_first_use_answer_identically():
    """Inline lane, two scheduler threads, nothing derived yet: both
    queries reach ``log_tables`` / ``window_relation`` first."""
    shapes = [(5, 0), (8, 0), (5, 30), (8, 30)]
    serial = _fresh_session("race", 79)
    expected = [_ask(serial, k, window) for k, window in shapes]
    for _ in range(3):
        with QueryService(workers=2, use_processes=False) as service:
            session = service.open_session(
                TrafficVideo("race", 700, seed=79), counting_udf("car"),
                config=FAST)
            session.phase1()
            queries = []
            for k, window in shapes:
                query = session.query().topk(k).guarantee(0.9)
                queries.append(
                    query.windows(size=window) if window else query)
            reports = service.gather(
                [service.submit(query) for query in queries], timeout=WAIT)
        assert [report.to_json() for report in reports] == expected


def test_racing_first_use_of_one_relation_from_bare_threads():
    """The same race without the service in between: every thread gets
    tables and level columns equal to a serial build's, whichever
    assignment wins."""
    pristine = _fresh_session("race-bare", 80).phase1().relation
    level = pristine.grid.max_level // 2
    twin = pickle.loads(pickle.dumps(pristine))
    serial = twin.log_tables()
    serial_columns = twin.level_columns(level)
    assert "_log_tables" not in vars(pristine)
    assert "_columns" not in vars(pristine)
    barrier = threading.Barrier(4)
    seen = []

    def first_use():
        barrier.wait(timeout=WAIT)
        seen.append(pristine.level_columns(level) + pristine.log_tables())

    threads = [threading.Thread(target=first_use) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
        assert not thread.is_alive()
    assert len(seen) == 4
    for derived in seen:
        for mine, theirs in zip(derived, serial_columns + serial):
            assert mine.tobytes() == theirs.tobytes()


def test_a_streams_append_invalidates_by_rebuilding_the_entry(derivations):
    def open_stream():
        return Session.open_stream(
            TrafficVideo("pins-live", 1_000, seed=81), counting_udf("car"),
            initial_frames=700, config=FAST)

    stream, twin = open_stream(), open_stream()
    before = stream.phase1()
    _ask(stream), _ask(stream), _ask(stream, window=30)
    assert "_log_tables" in vars(before.relation)
    assert len(vars(before)["_window_relations"]) == 1
    assert list(vars(before)["_window_samples"]) == [(30, FAST.seed, 700)]
    built = dict(derivations)

    stream.append(150)
    after = stream.phase1()
    assert after is not before
    assert "_log_tables" not in vars(after.relation)
    assert "_window_relations" not in vars(after)
    assert "_window_samples" not in vars(after)
    twin.append(150)
    assert _ask(stream) == _ask(twin)
    assert _ask(stream, window=30) == _ask(twin, window=30)
    assert list(vars(after)["_window_samples"]) == [(30, FAST.seed, 850)]
    # stream and twin each derived the new entry's tables once.
    assert derivations["tables"] == built["tables"] + 4
    assert derivations["window_relations"] == built["window_relations"] + 2


# ----------------------------------------------------------------------
# Derived state never crosses a pipe or lands on disk.


def _warm(session):
    """Ten warm queries, frame and window shapes: every memo is full."""
    return [
        _ask(session, k, window)
        for k in (3, 5, 8, 12, 20) for window in (0, 30)]


def _tree_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def test_a_shipped_spec_carries_no_derived_state():
    session = _fresh_session("ship", 82)
    entry = session.phase1()
    entries = [(session.config, entry)]
    cold = ship_spec(session, entries).blob
    reports = _warm(session)
    assert "_log_tables" in vars(entry.relation)
    assert "_columns" in vars(entry.relation)
    assert vars(entry)["_window_relations"]
    assert vars(entry)["_window_samples"]
    warm = ship_spec(session, entries).blob
    # Not one byte more than before any query ran — which is the blob
    # the parent commit ships (nothing else about the entry changed).
    assert len(warm) == len(cold) and warm == cold
    assert b"_log_tables" not in warm and b"_window_relations" not in warm
    assert b"_columns" not in warm and b"_window_samples" not in warm

    # ...and what arrives answers as the original does.
    received = pickle.loads(pickle.dumps(entry))
    assert "_log_tables" not in vars(received.relation)
    assert "_columns" not in vars(received.relation)
    assert "_window_relations" not in vars(received)
    assert "_window_samples" not in vars(received)
    other = Session(session.video, session.scoring, config=FAST)
    other.adopt_phase1(received, session.config)
    assert _warm(other) == reports
    assert other.phase1() is received  # nothing was rebuilt


def test_a_stream_checkpoint_carries_no_derived_state(tmp_path):
    stream = Session.open_stream(
        TrafficVideo("ck", 1_000, seed=83), counting_udf("car"),
        initial_frames=700, config=FAST)
    stream.append(120)
    reports = _warm(stream)
    entry = stream.phase1()
    assert "_log_tables" in vars(entry.relation)
    assert "_columns" in vars(entry.relation)
    assert vars(entry)["_window_samples"]
    stream.checkpoint(tmp_path / "warm")
    # Strip every memo by hand: the state the parent commit would hold.
    vars(entry.relation).pop("_log_tables")
    vars(entry.relation).pop("_columns")
    vars(entry).pop("_window_relations")
    vars(entry).pop("_window_samples")
    stream.checkpoint(tmp_path / "stripped")
    assert _tree_bytes(tmp_path / "warm") \
        == _tree_bytes(tmp_path / "stripped")
    for blob in (tmp_path / "warm").rglob("*"):
        if blob.is_file():
            assert b"_log_tables" not in blob.read_bytes()
            assert b"_columns" not in blob.read_bytes()
            assert b"_window_relations" not in blob.read_bytes()
            assert b"_window_samples" not in blob.read_bytes()
    resumed = Session.resume(tmp_path / "warm")
    assert _warm(resumed) == reports
