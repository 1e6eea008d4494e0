"""Figure 4: overall comparison under the default setting.

Top-50, thres = 0.9 on the five counting videos, comparing Everest
against scan-and-test, HOG, CMDN-only, TinyYOLOv3-only, and the
manually calibrated Select-and-Topk. Reports speedup over scan plus
the three quality metrics, reproducing all four panels of Figure 4 as
one table.
"""

from __future__ import annotations

from typing import List, Optional

from ..baselines import (
    calibrated_select_and_topk,
    cmdn_only_topk,
    hog_topk,
    scan_and_test,
    tiny_topk,
)
from ..oracle.base import exact_scores
from ..oracle.detector import counting_udf
from .runner import (
    STANDARD_HEADERS,
    ExperimentRecord,
    ExperimentScale,
    config_for,
    counting_videos,
    evaluate_baseline,
    experiment_main,
    format_table,
    object_label_for,
    record_row,
    run_everest,
)

#: Default query parameters (paper Section 4).
DEFAULT_K = 50
DEFAULT_THRES = 0.9


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    k: int = DEFAULT_K,
    thres: float = DEFAULT_THRES,
    methods: Optional[List[str]] = None,
    videos=None,
) -> List[ExperimentRecord]:
    """Run the Figure 4 comparison; returns one record per cell."""
    if methods is None:
        methods = [
            "everest", "scan-and-test", "hog",
            "cmdn-only", "tinyyolo-only", "select-and-topk",
        ]
    if videos is None:
        videos = counting_videos(scale)
    config = config_for(scale)
    records: List[ExperimentRecord] = []
    for video in videos:
        scoring = counting_udf(object_label_for(video))
        truth = exact_scores(scoring, video)
        scan_seconds = len(video) * 0.2003  # oracle + decode per frame
        if "scan-and-test" in methods:
            result = scan_and_test(video, scoring, k)
            scan_seconds = result.simulated_seconds
            records.append(evaluate_baseline(result, truth, scan_seconds))
        if "everest" in methods:
            records.append(run_everest(
                video, scoring, k=k, thres=thres, config=config))
        if "hog" in methods:
            records.append(evaluate_baseline(
                hog_topk(video, k), truth, scan_seconds))
        if "cmdn-only" in methods:
            records.append(evaluate_baseline(
                cmdn_only_topk(video, scoring, k, config=config),
                truth, scan_seconds))
        if "tinyyolo-only" in methods:
            records.append(evaluate_baseline(
                tiny_topk(video, k, object_label=object_label_for(video)),
                truth, scan_seconds))
        if "select-and-topk" in methods:
            result = calibrated_select_and_topk(
                video, scoring, k, truth, lambdas=scale.select_lambdas)
            if result is not None:
                records.append(evaluate_baseline(
                    result, truth, scan_seconds))
    return records


def render(records: List[ExperimentRecord]) -> str:
    """Figure 4 as an aligned table (all four panels)."""
    rows = [record_row(r) for r in records]
    return format_table(
        STANDARD_HEADERS, rows,
        title="Figure 4: overall result under the default setting "
              "(Top-50, thres=0.9)",
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()
