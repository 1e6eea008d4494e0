"""Name registries: strings → scoring functions and videos.

Lets examples, scripts and config files drive the query API without
importing factories: ``Session.open("daxi-old-street",
"count[person]")``. UDF specs are ``"name"`` or ``"name[arg]"`` (the
bracket argument is the object label for counting UDFs). Video names
resolve against the Table 7 dataset registry first, then against the
registered synthetic families.

Both registries are literal tables, :data:`UDFS` and :data:`VIDEOS`
(the Table 7 datasets are ``video.datasets.DATASETS``): a new operator
or video family is one more row.
"""

from __future__ import annotations

import dataclasses
import inspect
import numbers
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config import EverestConfig
from ..errors import ConfigurationError
from ..oracle.base import ScoringFunction
from ..oracle.depth import tailgating_udf
from ..oracle.detector import counting_udf
from ..oracle.sentiment import sentiment_udf
from ..video.datasets import DATASETS, build_dataset
from ..video.synthetic import (
    DashcamVideo,
    ObjectCountProcess,
    SentimentVideo,
    SyntheticVideo,
    TrafficVideo,
)
from .session import Session

#: A UDF factory takes the optional bracket argument from the spec.
UdfFactory = Callable[..., ScoringFunction]

_UDF_SPEC = re.compile(r"^(?P<name>[\w-]+)(?:\[(?P<arg>[^\[\]]+)\])?$")
_UDF_NAME = re.compile(r"^[\w-]+$")
#: Corpus specs: ``<udf-spec>@{member,member,...}``. The UDF half is
#: validated by :func:`parse_udf_spec`; member names share the UDF /
#: video registry name grammar (one pattern, not two copies to drift).
_CORPUS_SPEC = re.compile(
    r"^(?P<udf>[^@{}]+)@\{(?P<members>[^{}]*)\}$")
_MEMBER_NAME = _UDF_NAME


def _counting_factory(label: Optional[str] = None) -> ScoringFunction:
    return counting_udf(label if label is not None else "car")


def _tailgating_factory(arg: Optional[str] = None) -> ScoringFunction:
    if arg is not None:
        return tailgating_udf(max_distance=float(arg))
    return tailgating_udf()


def _sentiment_factory(arg: Optional[str] = None) -> ScoringFunction:
    if arg is not None:
        return sentiment_udf(quantization_step=float(arg))
    return sentiment_udf()


#: UDF families by spec name (names match ``[A-Za-z0-9_-]+`` so
#: ``name[arg]`` specs resolve them).
UDFS: Dict[str, UdfFactory] = {
    "count": _counting_factory,
    "tailgating": _tailgating_factory,
    "sentiment": _sentiment_factory,
}

#: Synthetic video families by name: the class a name builds, then
#: what it forwards the keywords it does not take itself to. ``name``
#: defaults to the family name and ``num_frames`` to
#: :data:`FAMILY_FRAMES`.
VIDEOS: Dict[str, Tuple[type, ...]] = {
    "traffic": (TrafficVideo, ObjectCountProcess),
    "dashcam": (DashcamVideo,),
    "vlog": (SentimentVideo,),
}
FAMILY_FRAMES = 5_000


def list_udfs() -> List[str]:
    """Registered UDF family names (spec syntax: ``name[arg]``)."""
    return sorted(UDFS)


def list_videos() -> List[str]:
    """All resolvable video names: Table 7 datasets plus families."""
    return sorted(set(DATASETS) | set(VIDEOS))


def parse_udf_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split a UDF spec into ``(name, arg)`` without resolving it.

    Raises :class:`~repro.errors.ConfigurationError` (a
    :class:`ValueError`) on anything that is not ``'name'`` or
    ``'name[arg]'`` — including non-string input, empty specs, nested
    or unbalanced brackets, and empty bracket arguments.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"UDF spec must be a string, got {type(spec).__name__}")
    match = _UDF_SPEC.match(spec)
    if match is None:
        raise ConfigurationError(
            f"malformed UDF spec {spec!r}; expected 'name' or 'name[arg]'")
    return match.group("name"), match.group("arg")


def parse_window_seconds(text: str, spec: Optional[str] = None) -> float:
    """Parse the value of a ``?window=`` suffix into seconds.

    Raises :class:`~repro.errors.ConfigurationError` (a
    :class:`ValueError`) on anything that is not a positive finite
    number — never a bare ``float`` conversion error.
    """
    context = f" in query spec {spec!r}" if spec is not None else ""
    if not isinstance(text, str) or not text or text.strip() != text:
        raise ConfigurationError(
            f"malformed window value {text!r}{context}; expected a "
            f"positive number of seconds")
    try:
        value = float(text)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"malformed window value {text!r}{context}; expected a "
            f"positive number of seconds") from error
    if not value > 0.0 or not value < float("inf"):
        raise ConfigurationError(
            f"window value {text!r}{context} must be a positive finite "
            f"number of seconds")
    return value


def format_window_seconds(seconds) -> str:
    """The canonical ``?window=`` value for ``seconds``.

    Integral windows render without a decimal point (``"300"``), the
    rest through ``repr`` — both parse back to exactly the same float,
    so ``parse_window_seconds(format_window_seconds(w)) == w``.
    """
    if isinstance(seconds, bool) or not isinstance(seconds, numbers.Real) \
            or not float(seconds) > 0.0 \
            or not float(seconds) < float("inf"):
        raise ConfigurationError(
            f"window seconds must be a positive finite number, "
            f"got {seconds!r}")
    value = float(seconds)
    return str(int(value)) if value == int(value) else repr(value)


def split_window_param(spec: str) -> Tuple[str, Optional[float]]:
    """Split an optional ``?window=<seconds>`` suffix off a spec.

    Returns ``(base_spec, window_seconds_or_None)``. Only the *last*
    ``?`` can introduce the suffix, and only when followed by
    ``window=`` — a stray ``?`` anywhere else is left in the base spec
    for the name grammar to reject (names cannot contain ``?``), so
    malformed specs still fail with a clean error.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"query spec must be a string, got {type(spec).__name__}")
    head, sep, tail = spec.rpartition("?")
    if not sep or not tail.startswith("window="):
        return spec, None
    value = tail[len("window="):]
    return head, parse_window_seconds(value, spec)


def parse_corpus_spec(spec: str) -> Tuple[str, Tuple[str, ...]]:
    """Split ``"count[car]@{a,b}"`` into ``(udf_spec, member_names)``.

    Whitespace around member names (``"count[car]@{a, b}"``) is
    tolerated and normalized away — hand-typed wire requests get to
    breathe — but whitespace *inside* a name is still malformed.
    Raises :class:`~repro.errors.ConfigurationError` (a
    :class:`ValueError`) on anything outside the grammar: non-string
    input, a malformed UDF half, missing or nested braces, empty
    member lists, empty or ill-formed member names, and duplicate
    members.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"corpus spec must be a string, got {type(spec).__name__}")
    match = _CORPUS_SPEC.match(spec)
    if match is None:
        raise ConfigurationError(
            f"malformed corpus spec {spec!r}; expected "
            f"'udf@{{member,member,...}}'")
    udf_spec = match.group("udf")
    parse_udf_spec(udf_spec)  # validates; raises ConfigurationError
    raw = match.group("members")
    # Whitespace around commas/braces is wire-format noise
    # (``count[car]@{a, b}``); strip it per member. Whitespace *inside*
    # a name still fails the member grammar below.
    members = [m.strip() for m in raw.split(",")] if raw.strip() else []
    if not members:
        raise ConfigurationError(
            f"corpus spec {spec!r} names no members")
    for member in members:
        if not _MEMBER_NAME.match(member):
            raise ConfigurationError(
                f"invalid corpus member name {member!r} in {spec!r}; "
                f"names must match [A-Za-z0-9_-]+")
    if len(set(members)) != len(members):
        raise ConfigurationError(
            f"corpus spec {spec!r} repeats a member name")
    return udf_spec, tuple(members)


def format_corpus_spec(udf_spec: str, members) -> str:
    """The canonical spec string for ``(udf_spec, members)``.

    Inverse of :func:`parse_corpus_spec` for every valid pair; raises
    :class:`~repro.errors.ConfigurationError` when the pair cannot
    round-trip (malformed UDF half, bad member characters, duplicate
    or empty member lists).
    """
    members = tuple(members)
    spec = f"{udf_spec}@{{{','.join(members)}}}"
    parsed_udf, parsed_members = parse_corpus_spec(spec)
    if (parsed_udf, parsed_members) != (udf_spec, members):
        raise ConfigurationError(
            f"({udf_spec!r}, {members!r}) does not round-trip "
            f"through {spec!r}")
    return spec


@dataclass(frozen=True)
class QuerySpec:
    """A parsed wire-format query target (DESIGN.md §10).

    The gateway's one-string addressing scheme: either the session
    form ``"count[car]/taipei-bus"`` (UDF spec + video name) or the
    corpus form ``"count[car]@{a,b}"`` (UDF spec + member list).
    Exactly one of ``video`` / ``members`` is set. Either form may
    carry a sliding-window suffix: ``"count[car]/traffic?window=300"``
    (seconds, DESIGN.md §13).
    """

    udf: str
    video: Optional[str] = None
    members: Tuple[str, ...] = ()
    window_seconds: Optional[float] = None

    @property
    def kind(self) -> str:
        return "corpus" if self.members else "video"

    def without_window(self) -> "QuerySpec":
        """This target with the window suffix dropped (cache keys:
        sessions are shared across windows of the same footage)."""
        if self.window_seconds is None:
            return self
        return dataclasses.replace(self, window_seconds=None)

    def canonical(self) -> str:
        """The canonical wire string: ``parse_query_spec`` of it is
        this spec again (raises
        :class:`~repro.errors.ConfigurationError` when the parts cannot
        round-trip: bad names, a bad window)."""
        if self.members:
            spec = format_corpus_spec(self.udf, self.members)
        else:
            spec = f"{self.udf}/{self.video}"
        if self.window_seconds is not None:
            spec += f"?window={format_window_seconds(self.window_seconds)}"
        parsed = parse_query_spec(spec)
        if parsed != self:
            raise ConfigurationError(
                f"{self!r} does not round-trip through {spec!r}")
        return spec


def parse_query_spec(spec: str) -> QuerySpec:
    """Parse a wire query spec into its :class:`QuerySpec`.

    ``"count[car]/taipei-bus"`` names one video (the half after the
    *last* slash — UDF bracket arguments may themselves contain
    slashes); ``"count[car]@{a,b}"`` names a corpus (whitespace inside
    the member list is normalized away). A trailing
    ``?window=<seconds>`` on either form sets the sliding window.
    Raises :class:`~repro.errors.ConfigurationError` (a
    :class:`ValueError`) on anything outside the grammar.
    """
    base, window = split_window_param(spec)
    if _CORPUS_SPEC.match(base):
        udf_spec, members = parse_corpus_spec(base)
        return QuerySpec(
            udf=udf_spec, members=members, window_seconds=window)
    if "/" in base:
        udf_spec, video = base.rsplit("/", 1)
        parse_udf_spec(udf_spec)  # validates; raises ConfigurationError
        if not _MEMBER_NAME.match(video):
            raise ConfigurationError(
                f"invalid video name {video!r} in query spec {spec!r}; "
                f"names must match [A-Za-z0-9_-]+")
        return QuerySpec(udf=udf_spec, video=video, window_seconds=window)
    raise ConfigurationError(
        f"malformed query spec {spec!r}; expected 'udf/video' or "
        f"'udf@{{member,member,...}}', optionally with a "
        f"'?window=<seconds>' suffix")


def resolve_query_spec(
    spec: str,
    *,
    config: Optional[EverestConfig] = None,
    unit_costs=None,
    **video_kwargs,
):
    """Build what a wire query spec names: a session or a corpus.

    The gateway's resolution path: ``"count[car]/traffic"`` opens (or
    the caller caches) a :class:`Session`, ``"count[car]@{a,b}"`` a
    :class:`~repro.corpus.corpus.VideoCorpus`. Extra keyword arguments
    forward to the video builder(s).
    """
    parsed = parse_query_spec(spec).without_window()
    if parsed.kind == "corpus":
        return _corpus_of_names(
            parsed.udf, parsed.members, video_kwargs,
            call="resolve_query_spec", config=config, unit_costs=unit_costs)
    video, scoring = resolve_pair(
        parsed.video, parsed.udf, video_kwargs, call="resolve_query_spec")
    return Session(video, scoring, config=config, unit_costs=unit_costs)


def resolve_corpus(
    spec: str,
    *,
    config: Optional[EverestConfig] = None,
    unit_costs=None,
    name: Optional[str] = None,
    **video_kwargs,
):
    """Build the :class:`~repro.corpus.corpus.VideoCorpus` a spec names.

    ``"count[car]@{taipei-bus,archie-day2}"`` opens one member session
    per named video (Table 7 datasets or registered families — extra
    keyword arguments forward to every member build) sharing the
    spec's UDF and the given configuration.
    """
    udf_spec, members = parse_corpus_spec(spec)
    return _corpus_of_names(
        udf_spec, members, video_kwargs, call="resolve_corpus",
        config=config, unit_costs=unit_costs, name=name)


def _corpus_of_names(udf_spec, members, video_kwargs, *, call,
                     **corpus_kwargs):
    """The corpus over registry-named ``members``; a keyword their
    builders do not take is refused naming ``call``."""
    from ..corpus.corpus import VideoCorpus

    scoring = resolve_udf(udf_spec)
    videos = [resolve_pair(member, scoring, video_kwargs, call=call)[0]
              for member in members]
    return VideoCorpus.open(videos, scoring, **corpus_kwargs)


def resolve_udf(spec: str) -> ScoringFunction:
    """Build the scoring function a spec like ``"count[car]"`` names.

    Any failure — malformed spec, unknown name, or an argument the
    factory rejects — raises
    :class:`~repro.errors.ConfigurationError` (a :class:`ValueError`)
    with the offending spec in the message, never a bare conversion
    error from inside a factory.
    """
    name, arg = parse_udf_spec(spec)
    factory = UDFS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown UDF {name!r}; registered: {', '.join(list_udfs())}")
    try:
        return factory(arg) if arg is not None else factory()
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"invalid argument in UDF spec {spec!r}: {error}") from error


def resolve_video(name: str, **kwargs) -> SyntheticVideo:
    """Build the video a registered name refers to.

    Table 7 dataset names take :func:`~repro.video.datasets.build_dataset`
    keywords (``scale``, ``min_frames``…); family names take their
    constructor keywords (``num_frames``, ``seed``…).
    """
    if name in DATASETS:
        return build_dataset(name, **kwargs)
    if name not in VIDEOS:
        raise ConfigurationError(
            f"unknown video {name!r}; known: {', '.join(list_videos())}")
    return VIDEOS[name][0](kwargs.pop("name", None) or name,
                           kwargs.pop("num_frames", FAMILY_FRAMES), **kwargs)


def _video_keywords(name: str) -> Tuple[str, ...]:
    """The keyword arguments :func:`resolve_video` accepts for ``name``
    (empty for an unknown name)."""
    if name in DATASETS:
        builders, taken = (build_dataset,), {"name"}
    else:
        builders, taken = VIDEOS.get(name, ()), set()
    accepted = set()
    for builder in builders:
        accepted.update(
            parameter.name
            for parameter in inspect.signature(builder).parameters.values()
            if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                                  parameter.KEYWORD_ONLY))
    return tuple(sorted(accepted - taken))


def resolve_pair(video, scoring, video_kwargs=None, *, call="resolve_pair"):
    """Resolve registry names on either side of ``(video, scoring)``.

    Objects pass through; ``video_kwargs`` forward to the video
    builder and therefore need a registry name. A keyword the builder
    does not take is refused before anything is built, naming ``call``
    (the method the caller was handed the keywords by): a
    :class:`TypeError` beside a video object, a
    :class:`~repro.errors.ConfigurationError` listing what the named
    builder accepts otherwise.
    """
    video_kwargs = video_kwargs or {}
    if isinstance(video, str):
        accepted = _video_keywords(video)
        stray = sorted(set(video_kwargs) - set(accepted)) if accepted else []
        if stray:
            raise ConfigurationError(
                f"{call}() got keyword argument(s) {', '.join(stray)} "
                f"that video {video!r} does not take; its builder "
                f"accepts: {', '.join(accepted)}")
        video = resolve_video(video, **video_kwargs)
    elif video_kwargs:
        raise TypeError(
            f"{call}() got unexpected keyword argument(s) "
            f"{', '.join(sorted(video_kwargs))}: video keyword arguments "
            f"need a registry name, not a video object")
    if isinstance(scoring, str):
        scoring = resolve_udf(scoring)
    return video, scoring

