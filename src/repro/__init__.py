"""Everest reproduction: Top-K deep video analytics with probabilistic
guarantees (Lai et al., SIGMOD 2021).

Quickstart
----------
>>> from repro import EverestConfig, Session
>>> from repro.video import TrafficVideo
>>> from repro.oracle import counting_udf
>>> video = TrafficVideo("demo", 2_000, seed=1)
>>> session = Session(video, counting_udf("car"),
...                   config=EverestConfig.fast())
>>> report = session.query().topk(5).guarantee(0.9).run()
>>> print(report.summary())  # doctest: +SKIP

A :class:`Session` caches Phase 1, so further queries on it
(``session.query().windows(size=30).topk(5).guarantee(0.9).run()``)
pay only for Phase 2 cleaning. Registered names work too:
``Session.open("taipei-bus", "count[car]")``.

See DESIGN.md for the architecture and module inventory.
"""

from .config import (
    DiffDetectorConfig,
    EverestConfig,
    Phase1Config,
    Phase2Config,
)
from .core import QueryReport
from .api import (
    Query,
    QueryExecutor,
    QueryPlan,
    Session,
)
from .parallel import resolve_workers
from .corpus import VideoCorpus
from .optimizer import WorkloadPlanner
from .service import QueryFuture, QueryService
from .trace import NULL_TRACER, Trace, Tracer
from .video.streaming import StreamingVideo
from .errors import (
    AdmissionError,
    CheckpointError,
    ConfigurationError,
    CorpusError,
    GuaranteeUnreachableError,
    ModelError,
    OracleBudgetExceededError,
    OracleError,
    QueryError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    UncertainRelationError,
    VideoError,
)

__version__ = "1.0.0"

__all__ = [
    "Session",
    "Query",
    "QueryPlan",
    "QueryExecutor",
    "resolve_workers",
    "QueryFuture",
    "QueryService",
    "WorkloadPlanner",
    "Tracer",
    "Trace",
    "NULL_TRACER",
    "StreamingVideo",
    "VideoCorpus",
    "QueryReport",
    "EverestConfig",
    "Phase1Config",
    "Phase2Config",
    "DiffDetectorConfig",
    "ReproError",
    "CheckpointError",
    "ConfigurationError",
    "VideoError",
    "ModelError",
    "OracleError",
    "OracleBudgetExceededError",
    "CorpusError",
    "UncertainRelationError",
    "QueryError",
    "GuaranteeUnreachableError",
    "ServiceError",
    "AdmissionError",
    "ServiceClosedError",
    "__version__",
]
