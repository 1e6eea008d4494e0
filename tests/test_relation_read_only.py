"""An uncertain relation, and the Phase-1 entry around it, are values
(DESIGN.md §3).

Every relation is built once, its certain rows written during
construction (``build_relation``'s known scores), and every array it
holds or hands out refuses a write from then on: ``ids``, ``pmf``,
``cdf``, ``certain``, ``exact_scores``, ``log_tables()``,
``level_columns()`` and ``memo`` values. That holds for a relation from
``build_relation``, a real ``restrict_relation``, a window relation, a
memo value and a pickle round trip — including a blob written while the
arrays were still writeable, as a format-6 checkpoint or warm-tier
entry from before relations were values is. Ranges that cover every
tuple restrict a relation to itself.

A ``Phase1Entry`` is one frozen record of six fields. The arrays it
holds beside the relation (its mixtures' ``pi`` / ``mu`` / ``sigma``,
its difference result's ``retained`` / ``representative``) refuse a
write too, and what it could derive it does not store: ``proxy`` is the
grid's winner and ``oracle_calls`` the number of known scores — on a
plain, a windowed live and a corpus-merged entry alike.
"""

from __future__ import annotations

import dataclasses
import operator
import pickle
import pickletools

import numpy as np
import pytest

from repro import EverestConfig, Session, VideoCorpus
from repro.core import uncertain
from repro.core.phase1 import Phase1Entry
from repro.core.uncertain import (
    QuantizationGrid,
    UncertainRelation,
    build_relation,
    restrict_relation,
)
from repro.models import GaussianMixture
from repro.oracle import counting_udf
from repro.video import TrafficVideo

FIELDS = ("ids", "pmf", "cdf", "certain", "exact_scores")


def _relation():
    rng = np.random.default_rng(3)
    ids = np.arange(100, 160)
    pi = rng.random((ids.size, 3)) + 0.05
    mixtures = GaussianMixture(
        pi=pi / pi.sum(axis=1, keepdims=True),
        mu=rng.random((ids.size, 3)) * 9.0,
        sigma=rng.random((ids.size, 3)) + 0.1)
    return build_relation(
        ids, mixtures, floor=0.0, step=1.0,
        known_scores={104: 3.0, 131: 9.0, 500: 2.0})


def _arrays(relation):
    """``(name, array)`` for every array the relation holds or hands
    out (a mid-grid level's columns stand for every level)."""
    level = relation.grid.num_levels // 2
    named = [(field, getattr(relation, field)) for field in FIELDS]
    named += [(f"log_tables()[{i}]", array)
              for i, array in enumerate(relation.log_tables())]
    named += [(f"level_columns({level})[{i}]", array)
              for i, array in enumerate(relation.level_columns(level))]
    return named


def _assert_read_only(relation):
    for name, array in _arrays(relation):
        assert array.size, name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[...] = array.flat[0]
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[-1]


def test_a_built_relation_is_read_only():
    relation = _relation()
    assert relation.num_certain == 3
    _assert_read_only(relation)


def test_a_plain_constructor_relation_is_read_only():
    pmf = np.array([[0.5, 0.5], [0.25, 0.75]])
    _assert_read_only(
        UncertainRelation([4, 9], pmf, QuantizationGrid(0.0, 1.0, 2)))


def test_a_real_restriction_is_read_only():
    relation = _relation()
    relation.level_columns(1)  # inherited by the clone as rows
    restricted = restrict_relation(relation, [(120, 150)])
    assert restricted is not relation
    assert 0 < len(restricted) < len(relation)
    assert 1 in vars(restricted)["_columns"]
    _assert_read_only(restricted)
    for array in vars(restricted)["_columns"][1]:
        assert not array.flags.writeable


def test_covering_ranges_restrict_a_relation_to_itself():
    relation = _relation()
    assert restrict_relation(relation, [(0, 10**6)]) is relation
    assert restrict_relation(
        relation, [(100, 140), (140, 160), (500, 501)]) is relation


@pytest.fixture(scope="module")
def entry():
    session = Session(
        TrafficVideo("read-only", 700, seed=41), counting_udf("car"),
        config=EverestConfig.fast())
    return session.phase1()


def test_the_phase1_relation_and_a_window_relation_are_read_only(entry):
    _assert_read_only(entry.relation)
    _assert_read_only(entry.window_relation(
        window_size=30, floor=0.0, step=0.25))


def test_a_memo_value_is_read_only():
    relation = _relation()
    value = relation.memo(
        ("test", 1), lambda: (np.arange(4), (np.ones(2), 7)))
    assert relation.memo(("test", 1), lambda: None) is value
    for array in (value[0], value[1][0]):
        with pytest.raises(ValueError):
            array[0] = 5


def test_a_pickle_round_trip_is_read_only(entry):
    for relation in (_relation(), entry.relation):
        blob = pickle.dumps(relation, protocol=pickle.HIGHEST_PROTOCOL)
        received = pickle.loads(blob)
        for field in FIELDS:
            assert getattr(received, field).tobytes() \
                == getattr(relation, field).tobytes()
        _assert_read_only(received)
    received = pickle.loads(
        pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
    _assert_read_only(received.relation)


def _opcodes(blob):
    return {op.name for op, _, _ in pickletools.genops(blob)}


def _legacy_blob(relation):
    """A relation pickled as it was before relations were values:
    writeable arrays and a frame-id -> position dict in the state."""
    legacy = object.__new__(UncertainRelation)
    legacy.__dict__.update(
        {field: getattr(relation, field).copy() for field in FIELDS},
        grid=relation.grid,
        _pos=dict(zip(relation.ids.tolist(), range(len(relation)))))
    return pickle.dumps(legacy, protocol=pickle.HIGHEST_PROTOCOL)


def test_a_blob_pickled_from_writeable_arrays_loads_read_only():
    relation = _relation()
    legacy = _legacy_blob(relation)
    # Writeable arrays pickle as ``bytearray``, read-only ones as bytes.
    assert "BYTEARRAY8" in _opcodes(legacy)
    assert "BYTEARRAY8" not in _opcodes(
        pickle.dumps(relation, protocol=pickle.HIGHEST_PROTOCOL))
    received = pickle.loads(legacy)
    assert "_pos" not in vars(received)
    for field in FIELDS:
        assert getattr(received, field).tobytes() \
            == getattr(relation, field).tobytes()
    assert received.position(131) == relation.position(131)
    _assert_read_only(received)


def test_no_public_method_writes_a_relation():
    for name in ("mark_certain", "mark_certain_many", "copy",
                 "_drop_derived", "covers"):
        assert not hasattr(UncertainRelation, name)
    assert not hasattr(uncertain, "covers")


#: The arrays an entry holds beside its relation.
ENTRY_ARRAYS = ("mixtures.pi", "mixtures.mu", "mixtures.sigma",
                "diff_result.retained", "diff_result.representative")


def _live_entry():
    stream = Session.open_stream(
        TrafficVideo("read-only-live", 900, seed=42), counting_udf("car"),
        initial_frames=400, window_seconds=8.0, config=EverestConfig.fast())
    stream.append(150)
    stream.tick(60)
    entry = stream.phase1()
    maintainer = stream._maintainer
    assert "proxy" not in vars(maintainer)
    assert maintainer.proxy is maintainer.grid_result.proxy is entry.proxy
    # The window has moved: the mixtures cover the retained tail only.
    assert 0 < len(entry.mixtures.mu) < entry.diff_result.num_retained
    return entry


def _merged_entry():
    corpus = VideoCorpus([
        Session(TrafficVideo(f"read-only-{name}", 600, seed=seed),
                counting_udf("car"), config=EverestConfig.fast())
        for name, seed in (("a", 43), ("b", 44))])
    return corpus.merged_state().entry


@pytest.fixture(scope="module", params=["plain", "live", "merged"])
def any_entry(request, entry):
    if request.param == "plain":
        return entry
    return _live_entry() if request.param == "live" else _merged_entry()


def _assert_entry_read_only(entry):
    _assert_read_only(entry.relation)
    for name in ENTRY_ARRAYS:
        array = operator.attrgetter(name)(entry)
        assert array.size and not array.flags.writeable, name
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[-1]


def test_every_entry_array_is_read_only(any_entry):
    _assert_entry_read_only(any_entry)
    received = pickle.loads(
        pickle.dumps(any_entry, protocol=pickle.HIGHEST_PROTOCOL))
    _assert_entry_read_only(received)


def test_an_entry_stores_nothing_it_derives(any_entry):
    assert [field.name for field in dataclasses.fields(Phase1Entry)] == [
        "relation", "grid_result", "diff_result", "known_scores",
        "mixtures", "cost_model"]
    assert any_entry.proxy is any_entry.grid_result.proxy
    assert any_entry.oracle_calls == len(any_entry.known_scores) > 0
    assert "proxy" not in vars(any_entry)
    with pytest.raises(dataclasses.FrozenInstanceError):
        any_entry.relation = None
