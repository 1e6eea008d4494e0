"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module (fig4 ... fig9, table7, table8) builds on the
helpers here: scaled dataset construction, query execution, metric
evaluation, and aligned-text table rendering. Benchmarks, examples and
``scripts/collect_experiments.py`` all print through this code, so
their numbers agree. Queries run through the declarative API
(DESIGN.md §4): one :class:`~repro.api.session.Session` per (video,
UDF) pair, so parameter sweeps share a single Phase 1 build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.session import Session
from ..config import EverestConfig
from ..core.result import QueryReport
from ..core.windows import window_truth
from ..metrics import QualityMetrics, evaluate_answer
from ..oracle.base import ScoringFunction, exact_scores
from ..oracle.detector import counting_udf
from ..service import QueryService
from ..trace import Tracer
from ..video.datasets import COUNTING_DATASETS, DASHCAM_DATASETS
from ..video.synthetic import SyntheticVideo


@dataclass(frozen=True)
class ExperimentScale:
    """How large the scaled-down experiments should be.

    ``paper()`` is the scale ``scripts/collect_experiments.py`` records
    results at; ``bench()`` trims video lengths so the full benchmark
    suite completes in minutes; ``quick()`` is for tests.
    """

    dataset_scale: float = 1.0 / 500.0
    min_frames: int = 12_000
    visual_road_frames: int = 10_000
    dashcam_frames: int = 10_000
    resolution: Tuple[int, int] = (24, 24)
    select_lambdas: Sequence[float] = (0.95, 0.9, 0.8, 0.7, 0.5)

    @staticmethod
    def paper() -> "ExperimentScale":
        return ExperimentScale()

    @staticmethod
    def bench() -> "ExperimentScale":
        return ExperimentScale(
            dataset_scale=1.0 / 2000.0,
            min_frames=6_000,
            visual_road_frames=5_000,
            dashcam_frames=6_000,
            select_lambdas=(0.9, 0.8, 0.6),
        )

    @staticmethod
    def quick() -> "ExperimentScale":
        return ExperimentScale(
            dataset_scale=1.0 / 20000.0,
            min_frames=1_500,
            visual_road_frames=1_500,
            dashcam_frames=1_500,
            select_lambdas=(0.8,),
        )


def default_config() -> EverestConfig:
    """The engine configuration used by all recorded experiments."""
    return EverestConfig()


def quick_config() -> EverestConfig:
    """Small-video configuration (tests and the quick scale)."""
    return EverestConfig.fast()


def config_for(scale: ExperimentScale) -> EverestConfig:
    if scale.min_frames <= 2_000:
        return quick_config()
    return default_config()


def counting_videos(scale: ExperimentScale) -> List[SyntheticVideo]:
    """The five Table 7 counting videos at the requested scale."""
    return [
        spec.build(
            scale.dataset_scale,
            resolution=scale.resolution,
            min_frames=scale.min_frames,
        )
        for spec in COUNTING_DATASETS.values()
    ]


def dashcam_videos(scale: ExperimentScale) -> List[SyntheticVideo]:
    """The two Table 7 dashcam videos (UDF experiment, Figure 9)."""
    return [
        spec.build(
            scale.dashcam_frames / spec.paper_frames,
            resolution=scale.resolution,
            min_frames=1,
        )
        for spec in DASHCAM_DATASETS.values()
    ]


def object_label_for(video: SyntheticVideo) -> str:
    return getattr(video, "object_label", "car")


@dataclass
class ExperimentRecord:
    """One (method, video, parameters) measurement."""

    video: str
    method: str
    k: int
    thres: float
    window_size: Optional[int]
    simulated_seconds: float
    speedup: float
    metrics: QualityMetrics
    report: Optional[QueryReport] = None
    extras: Dict[str, float] = field(default_factory=dict)


def record_from_report(
    video: SyntheticVideo,
    scoring: ScoringFunction,
    report: QueryReport,
    *,
    truth: Optional[np.ndarray] = None,
) -> ExperimentRecord:
    """Evaluate one finished query report against the ground truth.

    The evaluation half of :func:`run_everest`, shared with
    :func:`execute_sweep` (whose reports come back from a query
    service).
    """
    k = report.k
    window_size = report.window_size
    if truth is None:
        truth = exact_scores(scoring, video)
    # Continuous UDFs operate at their quantization step's resolution:
    # true scores within one step of the K-th tie with it (counting
    # queries keep the strict tolerance of 0). Window queries operate
    # at the window grid's resolution.
    if window_size and window_size > 1:
        from ..core.windows import WINDOW_STEP_DIVISOR
        truth_items = window_truth(truth, window_size)
        tolerance = scoring.step / WINDOW_STEP_DIVISOR
    else:
        truth_items = truth
        tolerance = scoring.quantization_step or 0.0
    metrics = evaluate_answer(
        report.answer_ids, truth_items, k, tolerance=tolerance)
    return ExperimentRecord(
        video=video.name,
        method="everest",
        k=k,
        thres=report.thres,
        window_size=window_size,
        simulated_seconds=report.simulated_seconds,
        speedup=report.speedup,
        metrics=metrics,
        report=report,
        extras={
            "cleaned": float(report.cleaned),
            "cleaned_fraction": report.cleaned_fraction,
            "iterations": float(report.iterations),
            "confidence": report.confidence,
        },
    )


def run_everest(
    video: SyntheticVideo,
    scoring: ScoringFunction,
    *,
    k: int = 50,
    thres: float = 0.9,
    window_size: Optional[int] = None,
    config: Optional[EverestConfig] = None,
    session: Optional[Session] = None,
) -> ExperimentRecord:
    """Run one Everest query and evaluate it against the ground truth.

    Pass ``session`` to reuse a cached Phase 1 across a parameter sweep
    (the report still accounts the full Phase 1 cost each time).
    """
    if session is None:
        session = Session(
            video, scoring, config=config or default_config())
    query = session.query().topk(k).guarantee(thres)
    if window_size and window_size > 1:
        query = query.windows(size=window_size)
    report = query.run()
    return record_from_report(video, scoring, report)


@dataclass(frozen=True)
class SweepPoint:
    """One experiment grid point: a session plus query parameters."""

    session: Session
    k: int = 50
    thres: float = 0.9
    window_size: Optional[int] = None
    #: Optional scenario label recorded under ``extras["scenario"]``.
    label: Optional[str] = None

    def plan(self):
        query = self.session.query().topk(self.k).guarantee(self.thres)
        if self.window_size and self.window_size > 1:
            query = query.windows(size=self.window_size)
        return query.plan()


def execute_sweep(
    points: Sequence[SweepPoint],
    *,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    """Run an experiment sweep through one query service.

    Every point's plan is submitted to a ``QueryService(workers=
    workers)`` (DESIGN.md §6): a session's Phase 1 builds once, in a
    pool worker on the process lane (several sessions' side by side),
    and the reports come back in point order — the earliest failing
    point re-raises — byte-identical at every worker count. Each query
    runs traced, and the wall seconds of its ``select`` spans (the one
    stage the simulated ledger does not price) land in
    ``extras["select_seconds"]``. The sessions outlive the service and
    answer later queries inline.
    """
    tracer = Tracer(ring=max(1, len(points)))
    with QueryService(
            workers=workers, max_pending=None, tracer=tracer) as service:
        futures = [
            service.submit(point.plan(), session=point.session)
            for point in points
        ]
        reports = service.gather(futures)
    # Read after close: a trace is retained once its future's callbacks ran.
    traces = {trace.trace_id: trace for trace in tracer.traces()}
    truth_cache: Dict[Tuple[int, int], np.ndarray] = {}
    records = []
    for point, report, future in zip(points, reports, futures):
        video, scoring = point.session.video, point.session.scoring
        # Keyed by (video, scoring): one video can serve several UDFs
        # in a grid, each with its own ground truth.
        cache_key = (id(video), id(scoring))
        truth = truth_cache.get(cache_key)
        if truth is None:
            truth = truth_cache[cache_key] = exact_scores(scoring, video)
        record = record_from_report(video, scoring, report, truth=truth)
        record.extras["select_seconds"] = sum(
            span.duration for span in traces[future.trace_id].spans
            if span.name == "select")
        if point.label is not None:
            record.extras["scenario"] = point.label
        records.append(record)
    return records


def counting_sweep(
    scale: ExperimentScale,
    points_for,
    *,
    videos=None,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    """The sweep shape figs 5-7 and Table 8 share: one session per
    counting video (so a video's grid points share one Phase 1),
    ``points_for(session)`` grid points each, executed as one sweep."""
    if videos is None:
        videos = counting_videos(scale)
    config = config_for(scale)
    points: List[SweepPoint] = []
    for video in videos:
        scoring = counting_udf(object_label_for(video))
        points.extend(points_for(Session(video, scoring, config=config)))
    return execute_sweep(points, workers=workers)


def experiment_main(run, render):
    """The ``main(scale, **run_kwargs)`` every experiment module
    exposes: run, render, print, return the rendered text."""
    def main(scale: ExperimentScale = ExperimentScale.paper(),
             **kwargs) -> str:
        output = render(run(scale, **kwargs))
        print(output)
        return output
    return main


def evaluate_baseline(
    result,
    truth: np.ndarray,
    scan_seconds: float,
) -> ExperimentRecord:
    """Wrap a :class:`BaselineResult` into an :class:`ExperimentRecord`."""
    metrics = evaluate_answer(result.answer_ids, truth, result.k)
    speedup = (
        scan_seconds / result.simulated_seconds
        if result.simulated_seconds > 0 else float("inf")
    )
    return ExperimentRecord(
        video=result.video_name,
        method=result.method,
        k=result.k,
        thres=float("nan"),
        window_size=None,
        simulated_seconds=result.simulated_seconds,
        speedup=speedup,
        metrics=metrics,
        extras=dict(result.extras),
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def record_row(record: ExperimentRecord) -> List[str]:
    """The standard (method, speedup, quality) table row."""
    return [
        record.video,
        record.method,
        f"{record.speedup:.1f}x",
        f"{record.metrics.precision:.3f}",
        f"{record.metrics.rank_distance:.5f}",
        f"{record.metrics.score_error:.4f}",
    ]


STANDARD_HEADERS = (
    "video", "method", "speedup", "precision", "rank-dist", "score-err")
