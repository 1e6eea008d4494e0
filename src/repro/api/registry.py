"""Name registries: strings → scoring functions and videos.

Lets examples, scripts and config files drive the query API without
importing factories: ``open_session("daxi-old-street",
"count[person]")``. UDF specs are ``"name"`` or ``"name[arg]"`` (the
bracket argument is the object label for counting UDFs). Video names
resolve against the Table 7 dataset registry first, then against the
registered synthetic families.

Both registries are extensible — ``register_udf`` / ``register_video``
add new names — which is how later operators and datasets plug in
without touching the callers.
"""

from __future__ import annotations

import dataclasses
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
    SentimentVideo,
    SyntheticVideo,
    TrafficVideo,
)
from .session import Session

#: A UDF factory takes the optional bracket argument from the spec.
UdfFactory = Callable[..., ScoringFunction]
#: A video factory takes builder keyword arguments (num_frames, seed…).
VideoFactory = Callable[..., SyntheticVideo]

_UDF_SPEC = re.compile(r"^(?P<name>[\w-]+)(?:\[(?P<arg>[^\[\]]+)\])?$")
_UDF_NAME = re.compile(r"^[\w-]+$")
#: Corpus specs: ``<udf-spec>@{member,member,...}``. The UDF half is
#: validated by :func:`parse_udf_spec`; member names share the UDF /
#: video registry name grammar (one pattern, not two copies to drift).
_CORPUS_SPEC = re.compile(
    r"^(?P<udf>[^@{}]+)@\{(?P<members>[^{}]*)\}$")
_MEMBER_NAME = _UDF_NAME

_udf_registry: Dict[str, UdfFactory] = {}
_video_registry: Dict[str, VideoFactory] = {}


def register_udf(name: str, factory: UdfFactory) -> None:
    """Register a scoring-function factory under ``name``.

    The name must be resolvable by :func:`resolve_udf`'s spec grammar
    (letters, digits, underscores, dashes).
    """
    if not _UDF_NAME.match(name or ""):
        raise ConfigurationError(
            f"invalid UDF registry name {name!r}; names must match "
            f"[A-Za-z0-9_-]+ so 'name[arg]' specs can resolve them")
    _udf_registry[name] = factory


def register_video(name: str, factory: VideoFactory) -> None:
    """Register a synthetic-video family under ``name``.

    Table 7 dataset names are reserved: :func:`resolve_video` checks
    them first, so shadowing one would silently no-op.
    """
    if not name:
        raise ConfigurationError("video registry name must be non-empty")
    if name in DATASETS:
        raise ConfigurationError(
            f"{name!r} is a built-in Table 7 dataset and cannot be "
            f"re-registered")
    _video_registry[name] = factory


def list_udfs() -> List[str]:
    """Registered UDF family names (spec syntax: ``name[arg]``)."""
    return sorted(_udf_registry)


def list_videos() -> List[str]:
    """All resolvable video names: Table 7 datasets plus families."""
    return sorted(set(DATASETS) | set(_video_registry))


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


def format_udf_spec(name: str, arg: Optional[str] = None) -> str:
    """The canonical spec string for ``(name, arg)``.

    Inverse of :func:`parse_udf_spec` for every valid pair:
    ``parse_udf_spec(format_udf_spec(name, arg)) == (name, arg)``.
    Raises :class:`~repro.errors.ConfigurationError` when the pair
    cannot round-trip (bad name characters, ``]`` inside the arg).
    """
    spec = name if arg is None else f"{name}[{arg}]"
    parsed_name, parsed_arg = parse_udf_spec(spec)
    if (parsed_name, parsed_arg) != (name, arg):
        raise ConfigurationError(
            f"({name!r}, {arg!r}) does not round-trip through "
            f"{spec!r}; use a plain [A-Za-z0-9_-]+ name")
    return spec


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
        """The canonical wire string (see :func:`format_query_spec`)."""
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


def format_query_spec(
    udf_spec: str,
    *,
    video: Optional[str] = None,
    members=None,
    window_seconds: Optional[float] = None,
) -> str:
    """The canonical wire string for a UDF plus one target.

    Inverse of :func:`parse_query_spec` for every valid combination;
    raises :class:`~repro.errors.ConfigurationError` when the parts
    cannot round-trip (both or neither target, bad names, bad window).
    """
    if (video is None) == (members is None):
        raise ConfigurationError(
            "format_query_spec needs exactly one of video= / members=")
    if members is not None:
        return QuerySpec(
            udf=udf_spec, members=tuple(members),
            window_seconds=window_seconds).canonical()
    return QuerySpec(
        udf=udf_spec, video=video,
        window_seconds=window_seconds).canonical()


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
        return resolve_corpus(
            parsed.canonical(), config=config, unit_costs=unit_costs,
            **video_kwargs)
    return Session.open(
        parsed.video, parsed.udf,
        config=config, unit_costs=unit_costs, **video_kwargs)


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
    from ..corpus.corpus import VideoCorpus

    udf_spec, members = parse_corpus_spec(spec)
    return VideoCorpus.open(
        list(members), udf_spec,
        config=config, unit_costs=unit_costs, name=name, **video_kwargs)


def resolve_udf(spec: str) -> ScoringFunction:
    """Build the scoring function a spec like ``"count[car]"`` names.

    Any failure — malformed spec, unknown name, or an argument the
    factory rejects — raises
    :class:`~repro.errors.ConfigurationError` (a :class:`ValueError`)
    with the offending spec in the message, never a bare conversion
    error from inside a factory.
    """
    name, arg = parse_udf_spec(spec)
    factory = _udf_registry.get(name)
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
    factory = _video_registry.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown video {name!r}; known: {', '.join(list_videos())}")
    return factory(**kwargs)


def resolve_pair(video, scoring, **video_kwargs):
    """Resolve registry names on either side of ``(video, scoring)``.

    Objects pass through; ``video_kwargs`` forward to the video
    builder and therefore need a registry name.
    """
    if isinstance(video, str):
        video = resolve_video(video, **video_kwargs)
    elif video_kwargs:
        raise TypeError(
            "video keyword arguments need a registry name, "
            "not a video object")
    if isinstance(scoring, str):
        scoring = resolve_udf(scoring)
    return video, scoring


def open_session(
    video,
    scoring,
    *,
    config: Optional[EverestConfig] = None,
    unit_costs: Optional[Dict[str, float]] = None,
    **video_kwargs,
) -> Session:
    """Open a :class:`Session`, accepting registry names or objects."""
    return Session.open(
        video, scoring,
        config=config, unit_costs=unit_costs, **video_kwargs)


# ----------------------------------------------------------------------
# Built-in registrations.

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


register_udf("count", _counting_factory)
register_udf("tailgating", _tailgating_factory)
register_udf("sentiment", _sentiment_factory)


def _family(cls, default_name: str) -> VideoFactory:
    def build(name: Optional[str] = None, num_frames: int = 5_000,
              **kwargs) -> SyntheticVideo:
        return cls(name or default_name, num_frames, **kwargs)
    return build


register_video("traffic", _family(TrafficVideo, "traffic"))
register_video("dashcam", _family(DashcamVideo, "dashcam"))
register_video("vlog", _family(SentimentVideo, "vlog"))
