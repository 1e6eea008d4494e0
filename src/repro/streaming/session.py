"""Alias module: ``StreamingSession`` is the one
:class:`~repro.api.session.Session` (frozen ``perfbench/tracing.py``
patches ``append`` through this name)."""

from ..api.session import AppendResult
from ..api.session import Session as StreamingSession

__all__ = ["AppendResult", "StreamingSession"]
