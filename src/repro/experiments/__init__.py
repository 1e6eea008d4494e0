"""Experiment harness: one module per paper table / figure.

Each module exposes ``run(scale)`` returning structured records and
``main(scale)`` printing the paper-style table. The benchmark suite
(``benchmarks/``) and ``scripts/collect_experiments.py`` run through
this code, so their numbers agree.
"""

from .runner import (
    ExperimentRecord,
    ExperimentScale,
    SweepPoint,
    counting_videos,
    dashcam_videos,
    execute_sweep,
    format_table,
    record_from_report,
    run_everest,
)
from . import (
    corpus_federated,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    guarantee_audit,
    streaming_latency,
    table7,
    table8,
)

__all__ = [
    "ExperimentRecord",
    "ExperimentScale",
    "SweepPoint",
    "counting_videos",
    "dashcam_videos",
    "execute_sweep",
    "format_table",
    "record_from_report",
    "run_everest",
    "corpus_federated",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "guarantee_audit",
    "streaming_latency",
    "table7",
    "table8",
]
