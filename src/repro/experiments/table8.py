"""Table 8: detailed breakdown of Everest's end-to-end runtime.

Part (a): fraction of runtime per pipeline stage (the five columns of
the paper's table). Part (b): Phase 2 iteration count and the
percentage of frames cleaned.

Four columns are simulated ledger seconds. Select-candidate runs at
native speed, so its column is *measured*: every sweep query runs
traced (in a pool worker too — its spans come back with the report),
and the wall seconds of its ``select`` spans land in
``extras["select_seconds"]``; a share's denominator is the simulated
total plus those seconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .runner import (
    ExperimentRecord,
    ExperimentScale,
    SweepPoint,
    counting_sweep,
    experiment_main,
    format_table,
)


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    k: int = 50,
    thres: float = 0.9,
    videos=None,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    """Run the default query per video, keeping the full reports."""
    return counting_sweep(
        scale, lambda session: [SweepPoint(session, k=k, thres=thres)],
        videos=videos, workers=workers)


def stage_fractions(record: ExperimentRecord) -> Dict[str, float]:
    """Share of runtime per Table 8(a) column: the simulated seconds
    plus the measured select-candidate seconds, over their sum."""
    seconds = record.report.breakdown.to_dict()
    seconds["select_candidate"] = record.extras.get("select_seconds", 0.0)
    total = sum(seconds.values())
    if total <= 0:
        return {}
    return {key: value / total for key, value in seconds.items()}


def render(records: List[ExperimentRecord]) -> str:
    rows_a = []
    rows_b = []
    for record in records:
        report = record.report
        assert report is not None
        fractions = stage_fractions(record)
        rows_a.append([
            record.video,
            f"{fractions.get('label_sample', 0.0):.2%}",
            f"{fractions.get('cmdn_training', 0.0):.2%}",
            f"{fractions.get('populate_d0', 0.0):.2%}",
            f"{fractions.get('select_candidate', 0.0):.2%}",
            f"{fractions.get('confirm_oracle', 0.0):.2%}",
        ])
        rows_b.append([
            record.video,
            f"{report.iterations}",
            f"{report.cleaned_fraction:.2%}",
        ])
    part_a = format_table(
        ("video", "label-sample", "cmdn-train", "populate-D0",
         "select-cand", "confirm-oracle"),
        rows_a,
        title="Table 8(a): latency breakdown (share of runtime)",
    )
    part_b = format_table(
        ("video", "iterations", "frames-cleaned"),
        rows_b,
        title="Table 8(b): Phase 2 statistics",
    )
    return part_a + "\n\n" + part_b


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()
