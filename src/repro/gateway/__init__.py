"""Async multi-tenant HTTP/JSON gateway over the query service.

The wire-facing layer of DESIGN.md §10: :class:`Gateway` (the
transport-free request core), :class:`GatewayServer` (the stdlib
asyncio HTTP/1.1 shell), per-tenant quota policy, the TTL-bounded
result store, the Prometheus-style metrics registry, and the
open-loop multi-tenant load generator used by
``benchmarks/bench_gateway_load.py``.
"""

from .app import Gateway, GatewayConfig
from .http import GatewayServer
from .metrics import GatewayMetrics, parse_metrics_text
from .quotas import QuotaBook, QuotaPolicy
from .results import ResultEntry, ResultStore
from .wire import EventRequest, QueryRequest, StreamRequest

__all__ = [
    "EventRequest",
    "Gateway",
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayServer",
    "QueryRequest",
    "QuotaBook",
    "QuotaPolicy",
    "ResultEntry",
    "ResultStore",
    "StreamRequest",
    "parse_metrics_text",
]
