"""Hypothesis fuzzing of the registry's query-string parsing.

The ``"count[car]"`` spec grammar is the service's untrusted input
surface (clients name UDFs and videos by string). Properties:

* arbitrary text either resolves or raises a *clean*
  :class:`~repro.errors.ConfigurationError` — which is a
  :class:`ValueError` — never a bare ``AttributeError`` / regex error
  / float-conversion ``ValueError`` from inside a factory;
* parsing and formatting are inverse bijections on the valid grammar
  (round-trip property in both directions): a UDF spec is
  ``name[arg]``, and a wire spec's canonical form is
  ``QuerySpec.canonical()``;
* resolved UDFs are real scoring functions for every registered
  family and well-formed argument.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import (
    QuerySpec,
    format_corpus_spec,
    list_udfs,
    parse_corpus_spec,
    parse_query_spec,
    parse_udf_spec,
    resolve_corpus,
    resolve_udf,
    resolve_video,
)
from repro.errors import ConfigurationError
from repro.oracle.base import ScoringFunction

#: Characters a valid UDF name may contain ([A-Za-z0-9_-]).
NAME_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")

valid_names = st.text(alphabet=NAME_ALPHABET, min_size=1, max_size=20)
valid_args = st.text(min_size=1, max_size=20).filter(
    lambda s: "]" not in s and parse_ok(s))


def udf_spec(name: str, arg=None) -> str:
    """The spec string for ``(name, arg)``."""
    return name if arg is None else f"{name}[{arg}]"


def parse_ok(arg: str) -> bool:
    try:
        return parse_udf_spec(f"x[{arg}]") == ("x", arg)
    except ConfigurationError:
        return False


# ----------------------------------------------------------------------
# Malformed input never escapes as anything but a clean ValueError.

@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.text(max_size=40))
def test_arbitrary_text_resolves_or_raises_clean_valueerror(spec):
    try:
        udf = resolve_udf(spec)
    except ConfigurationError as error:
        # Clean: the standard exception type, with the offending spec
        # (or its name part) mentioned for debuggability.
        assert isinstance(error, ValueError)
        assert str(error)
    else:
        assert isinstance(udf, ScoringFunction)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=valid_names,
    arg=st.one_of(st.none(), st.text(max_size=20)),
)
def test_structured_specs_resolve_or_raise_clean_valueerror(name, arg):
    spec = name if arg is None else f"{name}[{arg}]"
    try:
        udf = resolve_udf(spec)
    except ConfigurationError as error:
        assert isinstance(error, ValueError)
    else:
        assert isinstance(udf, ScoringFunction)


@pytest.mark.parametrize("bad", [
    None, 7, 3.5, ["count"], {"name": "count"},
])
def test_non_string_specs_raise_clean_valueerror(bad):
    with pytest.raises(ValueError):
        resolve_udf(bad)


@pytest.mark.parametrize("spec", [
    "", "[]", "count[", "count]", "count[]", "count[car",
    "count[car]]", "count[[car]", "count[car][x]", "co unt[car]",
    "count [car]", "c@unt", "count\n[car]", "[car]",
])
def test_known_malformed_specs_raise(spec):
    with pytest.raises(ConfigurationError):
        parse_udf_spec(spec)


@pytest.mark.parametrize("spec", [
    "tailgating[not-a-number]",
    "sentiment[NaN kidding]",
    "tailgating[--3]",
])
def test_factory_argument_failures_are_wrapped(spec):
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_udf(spec)
    assert spec in str(excinfo.value)


# ----------------------------------------------------------------------
# Round-trip properties on the valid grammar.

@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), valid_args))
def test_format_then_parse_round_trips(name, arg):
    spec = udf_spec(name, arg)
    assert parse_udf_spec(spec) == (name, arg)
    # Formatting is also idempotent through a second cycle.
    assert udf_spec(*parse_udf_spec(spec)) == spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.text(max_size=40))
def test_parse_then_format_is_identity_on_valid_specs(spec):
    try:
        name, arg = parse_udf_spec(spec)
    except ConfigurationError:
        return
    assert udf_spec(name, arg) == spec


def test_format_rejects_unroundtrippable_pairs():
    """Pairs no spec carries: their spec string parses to another pair
    (``("a[b]", None)``) or not at all."""
    assert parse_udf_spec(udf_spec("a[b]")) == ("a", "b")
    with pytest.raises(ConfigurationError):
        parse_udf_spec(udf_spec("count", "a]b"))
    with pytest.raises(ConfigurationError):
        parse_udf_spec(udf_spec("", "car"))


# ----------------------------------------------------------------------
# Corpus spec grammar: ``udf@{member,member,...}`` (DESIGN.md §9).

member_lists = st.lists(
    valid_names, min_size=1, max_size=4, unique=True)
#: UDF args that can embed in the corpus grammar's UDF half
#: (``[^@{}]+`` — brace/at characters cannot appear there).
corpus_safe_args = valid_args.filter(
    lambda s: not any(char in s for char in "@{}"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), corpus_safe_args),
       members=member_lists)
def test_corpus_format_then_parse_round_trips(name, arg, members):
    udf = udf_spec(name, arg)
    spec = format_corpus_spec(udf, members)
    assert parse_corpus_spec(spec) == (udf, tuple(members))
    # Formatting is idempotent through a second cycle.
    assert format_corpus_spec(*parse_corpus_spec(spec)) == spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.text(max_size=60))
def test_corpus_parse_then_format_normalizes(spec):
    """Parse→format is a *normalization* round-trip, not identity.

    Member whitespace is tolerated on parse (``"count@{a, b}"``), so
    formatting yields the canonical form; the canonical form itself is
    a fixed point, and re-parsing it gives back the same parts.
    """
    try:
        udf_spec, members = parse_corpus_spec(spec)
    except ConfigurationError as error:
        assert isinstance(error, ValueError)
        assert str(error)
        return
    canonical = format_corpus_spec(udf_spec, members)
    assert parse_corpus_spec(canonical) == (udf_spec, members)
    assert format_corpus_spec(*parse_corpus_spec(canonical)) == canonical


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), corpus_safe_args),
       members=member_lists,
       pads=st.lists(
           st.text(alphabet=" \t", max_size=3), min_size=10,
           max_size=10))
def test_corpus_member_whitespace_normalizes_away(name, arg, members,
                                                  pads):
    """``count[car]@{a, b}`` parses to the same parts as the canonical
    spec, whatever whitespace surrounds each member name."""
    udf = udf_spec(name, arg)
    canonical = format_corpus_spec(udf, members)
    padded_members = [
        f"{pads[2 * i]}{member}{pads[2 * i + 1]}"
        for i, member in enumerate(members)
    ]
    noisy = f"{udf}@{{{','.join(padded_members)}}}"
    assert parse_corpus_spec(noisy) == (udf, tuple(members))
    assert format_corpus_spec(*parse_corpus_spec(noisy)) == canonical


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    udf=st.text(max_size=20),
    raw_members=st.lists(st.text(max_size=10), max_size=4),
)
def test_corpus_structured_specs_raise_clean_valueerror(udf, raw_members):
    spec = f"{udf}@{{{','.join(raw_members)}}}"
    try:
        parsed = parse_corpus_spec(spec)
    except ConfigurationError as error:
        assert isinstance(error, ValueError)
    else:
        assert parsed[0]
        assert len(parsed[1]) >= 1


@pytest.mark.parametrize("spec", [
    "", "@{a}", "count@", "count@{}", "count@{a,}", "count@{,a}",
    "count@{a,,b}", "count@{a b}", "count@{a}{b}", "count@{a",
    "count@a}", "count{a}", "count@{a}x", "count@{{a}}",
    "count[car]@{a,a}", "count[]@{a}", "count@@{a}", "c@unt@{a}",
])
def test_malformed_corpus_specs_raise(spec):
    with pytest.raises(ConfigurationError):
        parse_corpus_spec(spec)


@pytest.mark.parametrize("bad", [None, 7, ["count@{a}"]])
def test_non_string_corpus_specs_raise_clean_valueerror(bad):
    with pytest.raises(ValueError):
        parse_corpus_spec(bad)


def test_corpus_format_rejects_unroundtrippable_pairs():
    with pytest.raises(ConfigurationError):
        format_corpus_spec("count", [])
    with pytest.raises(ConfigurationError):
        format_corpus_spec("count", ["a", "a"])
    with pytest.raises(ConfigurationError):
        format_corpus_spec("count", ["a,b"])
    with pytest.raises(ConfigurationError):
        format_corpus_spec("co unt", ["a"])


def test_resolve_corpus_builds_member_sessions():
    corpus = resolve_corpus(
        "count[car]@{traffic,vlog}", num_frames=64)
    assert corpus.member_names == ["traffic", "vlog"]
    assert corpus.total_frames == 128
    assert corpus.scoring.name == "count[car]"
    with pytest.raises(ValueError):
        resolve_corpus("count[car]@{definitely-not-registered}")


# ----------------------------------------------------------------------
# Wire query specs: ``udf/video`` or ``udf@{members}`` (DESIGN.md §10).

@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), valid_args),
       video=valid_names)
def test_query_spec_video_form_round_trips(name, arg, video):
    udf = udf_spec(name, arg)
    spec = QuerySpec(udf=udf, video=video).canonical()
    assert spec == f"{udf}/{video}"
    parsed = parse_query_spec(spec)
    assert parsed.kind == "video"
    assert (parsed.udf, parsed.video) == (udf, video)
    assert parsed.canonical() == spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), corpus_safe_args),
       members=member_lists)
def test_query_spec_corpus_form_round_trips(name, arg, members):
    udf = udf_spec(name, arg)
    spec = QuerySpec(udf=udf, members=tuple(members)).canonical()
    assert spec == format_corpus_spec(udf, members)
    parsed = parse_query_spec(spec)
    assert parsed.kind == "corpus"
    assert (parsed.udf, parsed.members) == (udf, tuple(members))
    assert parsed.canonical() == spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.text(max_size=60))
def test_arbitrary_query_specs_parse_or_raise_clean_valueerror(spec):
    try:
        parsed = parse_query_spec(spec)
    except ConfigurationError as error:
        assert isinstance(error, ValueError)
        assert str(error)
        return
    # Whatever parsed has a canonical form that re-parses to itself.
    canonical = parsed.canonical()
    assert parse_query_spec(canonical) == parsed


def test_query_spec_slash_binds_to_the_last_segment():
    parsed = parse_query_spec("tailgating[1/2]/traffic")
    assert parsed.udf == "tailgating[1/2]"
    assert parsed.video == "traffic"


def test_format_query_spec_needs_exactly_one_target():
    """A spec naming no target, or both, has no canonical string."""
    with pytest.raises(ConfigurationError):
        QuerySpec(udf="count[car]").canonical()
    with pytest.raises(ConfigurationError):
        QuerySpec(udf="count[car]", video="a", members=("b",)).canonical()


# ----------------------------------------------------------------------
# Sliding-window suffix: ``...?window=<seconds>`` (DESIGN.md §13).

positive_seconds = st.floats(
    min_value=0, exclude_min=True, allow_nan=False,
    allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seconds=positive_seconds)
def test_window_seconds_format_parse_bijection(seconds):
    from repro.api.registry import (
        format_window_seconds,
        parse_window_seconds,
    )

    text = format_window_seconds(seconds)
    assert parse_window_seconds(text) == seconds
    # Formatting is idempotent through a second cycle.
    assert format_window_seconds(parse_window_seconds(text)) == text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), valid_args),
       video=valid_names, seconds=positive_seconds)
def test_windowed_query_specs_round_trip(name, arg, video, seconds):
    udf = udf_spec(name, arg)
    spec = QuerySpec(
        udf=udf, video=video, window_seconds=seconds).canonical()
    parsed = parse_query_spec(spec)
    assert parsed.kind == "video"
    assert (parsed.udf, parsed.video) == (udf, video)
    assert parsed.window_seconds == seconds
    assert parsed.canonical() == spec
    # Dropping the window recovers exactly the unwindowed spec.
    bare = parsed.without_window()
    assert bare.window_seconds is None
    assert bare.canonical() == f"{udf}/{video}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=valid_names, arg=st.one_of(st.none(), corpus_safe_args),
       members=member_lists, seconds=positive_seconds)
def test_windowed_corpus_specs_round_trip(name, arg, members, seconds):
    spec = QuerySpec(
        udf=udf_spec(name, arg), members=tuple(members),
        window_seconds=seconds).canonical()
    parsed = parse_query_spec(spec)
    assert parsed.kind == "corpus"
    assert parsed.window_seconds == seconds
    assert parsed.canonical() == spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.text(max_size=40), tail=st.text(max_size=20))
def test_arbitrary_window_suffixes_parse_or_raise_cleanly(base, tail):
    spec = f"{base}?window={tail}"
    try:
        parsed = parse_query_spec(spec)
    except ConfigurationError as error:
        assert isinstance(error, ValueError)
        assert str(error)
        return
    assert parsed.window_seconds is not None
    assert parse_query_spec(parsed.canonical()) == parsed


@pytest.mark.parametrize("value", [
    "", "abc", "-3", "0", "nan", "inf", "-inf", " 5", "5 ", "1e1000",
    "0x10", "1,5", "window=5",
])
def test_malformed_window_values_raise_clean_valueerror(value):
    from repro.api.registry import parse_window_seconds

    with pytest.raises(ConfigurationError) as excinfo:
        parse_window_seconds(value)
    assert isinstance(excinfo.value, ValueError)
    with pytest.raises(ConfigurationError):
        parse_query_spec(f"count[car]/traffic?window={value}")


@pytest.mark.parametrize("spec", [
    "count[car]/traffic?window", "count[car]/traffic?",
    "count[car]/traffic?win=5", "count[car]/traffic?window=5?window=5",
    "?window=5", "count[car]?window=5",
])
def test_malformed_window_suffixes_raise(spec):
    with pytest.raises(ConfigurationError):
        parse_query_spec(spec)


def test_split_window_param_leaves_foreign_tails_alone():
    from repro.api.registry import split_window_param

    assert split_window_param("a/b?window=5") == ("a/b", 5.0)
    # A '?' tail that is not a window clause stays in the base (and is
    # then rejected by the name grammar, which has no '?').
    assert split_window_param("a/b?w=5") == ("a/b?w=5", None)
    assert split_window_param("a/b") == ("a/b", None)


# ----------------------------------------------------------------------
# Registered families resolve to real scoring functions.

@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_registered_udfs_resolve_with_wellformed_args(data):
    name = data.draw(st.sampled_from(list_udfs()))
    if name == "count":
        arg = data.draw(st.one_of(
            st.none(), st.sampled_from(["car", "person", "bike"])))
    else:
        arg = data.draw(st.one_of(
            st.none(),
            st.floats(0.05, 30.0, allow_nan=False).map(lambda f: f"{f:g}"),
        ))
    udf = resolve_udf(udf_spec(name, arg))
    assert isinstance(udf, ScoringFunction)
    assert udf.name


def test_unknown_names_list_known_ones():
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_udf("definitely-not-registered")
    assert "count" in str(excinfo.value)
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_video("definitely-not-registered")
    assert "traffic" in str(excinfo.value)
