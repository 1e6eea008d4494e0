"""Alias module: ``WindowedSession`` is the one
:class:`~repro.api.session.Session` (frozen ``perfbench/tracing.py``
patches ``tick`` through this name)."""

from ..api.session import ExpiryResult
from ..api.session import Session as WindowedSession

__all__ = ["ExpiryResult", "WindowedSession"]
