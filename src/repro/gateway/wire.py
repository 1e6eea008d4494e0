"""Wire-format request validation (DESIGN.md §10).

The gateway's JSON bodies are flat dicts; this module turns them into
validated, typed request objects *before* anything touches quota or
scheduler state, so a malformed request is a clean HTTP 400 with the
offending field named — never a stack trace from deep inside a
builder.

The addressing scheme is the registry grammar
(:func:`~repro.api.registry.parse_query_spec`): ``"count[car]/traffic"``
targets one video, ``"count[car]@{a,b}"`` a federated corpus. Query
clauses (``k``, ``guarantee``, ``window``, ``oracle_budget``) mirror
the fluent builder's and are validated by the same code paths it uses.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..api.registry import QuerySpec, parse_query_spec
from ..errors import ConfigurationError

#: Tenant names share the registry name grammar plus ``.`` and ``:``
#: (common in real tenant ids) — bounded so metric labels stay sane.
_TENANT_MAX = 128


def _require_mapping(body) -> Dict:
    if not isinstance(body, dict):
        raise ConfigurationError(
            f"request body must be a JSON object, got "
            f"{type(body).__name__}")
    return body


def _no_unknown_fields(body: Dict, allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown request field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}")


def parse_tenant(body: Dict) -> str:
    tenant = body.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant.strip():
        raise ConfigurationError(
            f"tenant must be a non-empty string, got {tenant!r}")
    tenant = tenant.strip()
    if len(tenant) > _TENANT_MAX:
        raise ConfigurationError(
            f"tenant name longer than {_TENANT_MAX} characters")
    if any(char in tenant for char in '"\n\\'):
        raise ConfigurationError(
            f"tenant name {tenant!r} contains quote/newline/backslash")
    return tenant


def _parse_positive_int(body: Dict, key: str, default=None):
    value = body.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(
            f"{key} must be a positive integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(
            f"{key} must be >= 1, got {value!r}")
    return int(value)


def _parse_spec(body: Dict) -> QuerySpec:
    raw_spec = body.get("spec")
    if raw_spec is None:
        raise ConfigurationError("request is missing 'spec'")
    return parse_query_spec(raw_spec)


def _parse_guarantee(body: Dict) -> float:
    guarantee = body.get("guarantee", 0.9)
    if isinstance(guarantee, bool) or \
            not isinstance(guarantee, numbers.Real) or \
            not 0.0 < float(guarantee) <= 1.0:
        raise ConfigurationError(
            f"guarantee must be a number in (0, 1], got {guarantee!r}")
    return float(guarantee)


def _parse_stream_id(body: Dict) -> str:
    stream_id = body.get("stream")
    if not isinstance(stream_id, str) or not stream_id.strip():
        raise ConfigurationError(
            f"stream must be a non-empty string id, got {stream_id!r}")
    return stream_id.strip()


@dataclass(frozen=True)
class QueryRequest:
    """A validated ``POST /query`` body."""

    tenant: str
    spec: QuerySpec
    #: The canonical spec string (the session/corpus cache key).
    spec_string: str
    k: int = 50
    guarantee: float = 0.9
    window_size: Optional[int] = None
    window_step: Optional[float] = None
    oracle_budget: Optional[int] = None

    FIELDS = ("tenant", "spec", "k", "guarantee", "window",
              "window_step", "oracle_budget")

    @classmethod
    def from_body(cls, body) -> "QueryRequest":
        body = _require_mapping(body)
        _no_unknown_fields(body, cls.FIELDS)
        spec = _parse_spec(body)
        k = _parse_positive_int(body, "k", 50)
        guarantee = _parse_guarantee(body)

        window_size = _parse_positive_int(body, "window")
        window_step = body.get("window_step")
        if window_step is not None:
            if isinstance(window_step, bool) or \
                    not isinstance(window_step, numbers.Real) or \
                    not float(window_step) > 0:
                raise ConfigurationError(
                    f"window_step must be a positive number, "
                    f"got {window_step!r}")
            if window_size is None:
                raise ConfigurationError(
                    "window_step without window makes no sense")
            window_step = float(window_step)
        if spec.kind == "corpus" and window_size is not None:
            raise ConfigurationError(
                "corpus queries rank frames; tumbling window is not "
                "supported")
        if spec.window_seconds is not None and window_size is not None:
            raise ConfigurationError(
                "a '?window=' spec suffix (sliding, seconds) cannot be "
                "combined with the 'window' body field (tumbling, "
                "frames)")

        return cls(
            tenant=parse_tenant(body),
            spec=spec,
            spec_string=spec.canonical(),
            k=k,
            guarantee=guarantee,
            window_size=window_size,
            window_step=window_step,
            oracle_budget=_parse_positive_int(body, "oracle_budget"),
        )

    def build(self, target):
        """The fluent query this request describes, over ``target``.

        ``target`` is the cached :class:`~repro.api.session.Session`
        or :class:`~repro.corpus.corpus.VideoCorpus` the spec resolved
        to; clause validation re-runs through the builder itself.
        """
        query = target.query().topk(self.k).guarantee(self.guarantee)
        if self.window_size is not None:
            query = query.windows(
                self.window_size, step=self.window_step)
        if self.spec.window_seconds is not None:
            query = query.window(seconds=self.spec.window_seconds)
        if self.oracle_budget is not None:
            query = query.oracle_budget(self.oracle_budget)
        return query


@dataclass(frozen=True)
class StreamRequest:
    """A validated ``POST /stream`` body (open a streaming session)."""

    tenant: str
    stream_id: str
    spec: QuerySpec
    spec_string: str
    initial_frames: int
    #: Standing subscription refreshed on every append.
    k: int = 10
    guarantee: float = 0.9
    #: Sliding window in seconds (None = unwindowed stream). Set via
    #: the 'window' body field or a '?window=' spec suffix.
    window_seconds: Optional[float] = None

    FIELDS = ("tenant", "stream", "spec", "initial_frames", "k",
              "guarantee", "window")

    @classmethod
    def from_body(cls, body) -> "StreamRequest":
        body = _require_mapping(body)
        _no_unknown_fields(body, cls.FIELDS)
        stream_id = _parse_stream_id(body)
        spec = _parse_spec(body)
        if spec.kind != "video":
            raise ConfigurationError(
                f"streams need a 'udf/video' spec, got corpus spec "
                f"{body['spec']!r}")
        initial = _parse_positive_int(body, "initial_frames")
        if initial is None:
            raise ConfigurationError(
                "request is missing 'initial_frames' (the bootstrap "
                "segment Phase 1 trains on)")
        guarantee = _parse_guarantee(body)
        window = body.get("window")
        if window is not None:
            if isinstance(window, bool) or \
                    not isinstance(window, numbers.Real) or \
                    not float(window) > 0 or \
                    not float(window) < float("inf"):
                raise ConfigurationError(
                    f"window must be a positive finite number of "
                    f"seconds, got {window!r}")
            window = float(window)
            if spec.window_seconds is not None \
                    and spec.window_seconds != window:
                raise ConfigurationError(
                    f"window={window!r} conflicts with the spec's "
                    f"'?window={spec.window_seconds:g}' suffix; give "
                    f"the window once")
        if window is None:
            window = spec.window_seconds
        return cls(
            tenant=parse_tenant(body),
            stream_id=stream_id,
            spec=spec,
            spec_string=spec.canonical(),
            initial_frames=initial,
            k=_parse_positive_int(body, "k", 10),
            guarantee=guarantee,
            window_seconds=window,
        )


@dataclass(frozen=True)
class EventRequest:
    """A validated ``POST /append`` or ``POST /tick`` body.

    Both are one event on one stream, ``frames`` long: frames revealed
    (append) or stream-clock frames elapsed (tick, on a windowed
    stream). Which one is the route's business, not the body's.
    """

    tenant: str
    stream_id: str
    frames: int

    FIELDS = ("tenant", "stream", "frames")

    @classmethod
    def from_body(cls, body, meaning: str) -> "EventRequest":
        """``meaning`` says what ``frames`` counts on the calling
        route — the hint a body without the field is answered with."""
        body = _require_mapping(body)
        _no_unknown_fields(body, cls.FIELDS)
        stream_id = _parse_stream_id(body)
        frames = _parse_positive_int(body, "frames")
        if frames is None:
            raise ConfigurationError(
                f"request is missing 'frames' ({meaning})")
        return cls(
            tenant=parse_tenant(body), stream_id=stream_id, frames=frames)
