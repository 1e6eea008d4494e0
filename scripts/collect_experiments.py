"""Collect the paper-scale experiment results.

Runs every reproduced table/figure at the recorded scale, writes the
rendered tables to ``results/experiments_output.txt``, and persists
every query report as JSON (``results/reports.json``, via
``QueryReport.to_json``) so later analysis can reload the raw numbers
without re-running the sweeps.

``--workers N`` (or ``REPRO_WORKERS=N``) sizes the query service the
parameter sweeps (fig5/6/7/9, table8) and the corpus run submit to:
Phase 1 is built once per video, several videos side by side in pool
workers, and reports are byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import List, Optional, Tuple

from repro.experiments import (
    ExperimentScale,
    corpus_federated,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    streaming_latency,
    table7,
    table8,
)
from repro.experiments.runner import ExperimentRecord, counting_videos


def collect_reports(
    section: str, records: Optional[List[ExperimentRecord]], store: list
) -> None:
    """Append the JSON form of every record that kept its full report."""
    for record in records or []:
        if record.report is None:
            continue
        store.append({
            "section": section,
            "method": record.method,
            "report": record.report.to_dict(),
        })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="query-service width for the parameter sweeps "
             "(default: REPRO_WORKERS, else serial)")
    args = parser.parse_args()
    workers = args.workers

    scale = ExperimentScale.paper()
    os.makedirs("results", exist_ok=True)
    out_path = os.path.join("results", "experiments_output.txt")
    reports_path = os.path.join("results", "reports.json")

    # Parameter sweeps run on a three-video subset to bound wall time;
    # fig4 / table8 cover all five videos.
    sweep_videos = counting_videos(scale)[:3]

    def records_main(module, **kwargs) -> Tuple[str, list]:
        records = module.run(scale, **kwargs)
        output = module.render(records)
        print(output)
        return output, records

    sections = [
        ("table7", lambda: (table7.main(scale), None)),
        ("fig4", lambda: records_main(fig4)),
        ("table8", lambda: records_main(table8, workers=workers)),
        ("fig5", lambda: records_main(
            fig5, videos=sweep_videos, workers=workers)),
        ("fig6", lambda: records_main(
            fig6, videos=sweep_videos, workers=workers)),
        ("fig7", lambda: records_main(
            fig7, videos=sweep_videos, workers=workers)),
        ("fig8", lambda: records_main(fig8)),
        ("fig9", lambda: records_main(fig9, workers=workers)),
        # Streaming measurements carry their own row type (per-append
        # live-vs-batch cost), so only the rendered table is persisted.
        ("streaming", lambda: (streaming_latency.main(scale), None)),
        # Federated corpus: one global top-k over a fleet of counting
        # videos, with the cross-shard budget allocation per shard.
        ("corpus", lambda: (
            corpus_federated.main(scale, workers=workers), None)),
    ]
    all_reports: list = []
    with open(out_path, "w") as handle:
        for name, runner in sections:
            start = time.time()
            print(f"=== {name} ===", flush=True)
            try:
                output, records = runner()
                collect_reports(name, records, all_reports)
            except Exception as exc:  # keep collecting on failure
                output = f"FAILED: {exc!r}"
                print(output, flush=True)
            elapsed = time.time() - start
            handle.write(f"=== {name} (wall {elapsed:.0f}s) ===\n")
            handle.write(output + "\n\n")
            handle.flush()
            # Rewrite the report dump after every section so an
            # interrupted multi-hour run keeps what it already paid for.
            with open(reports_path, "w") as reports_handle:
                json.dump(all_reports, reports_handle, indent=1)
            print(f"--- {name} done in {elapsed:.0f}s", flush=True)

    print(f"wrote {len(all_reports)} query reports to {reports_path}")


if __name__ == "__main__":
    main()
