"""A multi-tenant query service over shared traffic footage.

Three tenants fire a burst of Top-K queries at the same two videos
through one :class:`~repro.service.QueryService`. The service builds
each video's Phase 1 exactly once (single-flight, however many
queries race on it), lets queries reuse each other's cleaned frames
through the shared score cache, and keeps tenants honest with
oracle-budget fairness — all while every report stays byte-identical
to what a plain serial session would have produced.

Run:  PYTHONPATH=src python examples/query_service.py
"""

from __future__ import annotations

from repro import EverestConfig, QueryService
from repro.oracle import merge_cost_models

#: (tenant, video, k, thres) — a small mixed burst.
WORKLOAD = [
    ("city-ops",   "traffic", 10, 0.90),
    ("city-ops",   "traffic", 25, 0.90),
    ("retail",     "traffic",  5, 0.95),
    ("retail",     "dashcam", 10, 0.90),
    ("insurance",  "dashcam",  5, 0.90),
    ("insurance",  "dashcam",  5, 0.99),
]


def main() -> None:
    config = EverestConfig.fast()
    with QueryService(workers=4, max_pending=64) as service:
        sessions = {
            "traffic": service.open_session(
                "traffic", "count[car]",
                num_frames=2_000, seed=7, config=config),
            "dashcam": service.open_session(
                "dashcam", "tailgating",
                num_frames=2_000, seed=8, config=config),
        }

        futures = [
            (tenant, video, service.submit(
                sessions[video].query().topk(k).guarantee(thres),
                tenant=tenant))
            for tenant, video, k, thres in WORKLOAD
        ]
        print(f"submitted {len(futures)} queries from "
              f"{len({t for t, _, _ in futures})} tenants\n")

        for tenant, video, future in futures:
            report = future.result(timeout=600)
            print(f"  [{tenant:9s}] {video}: top-{report.k} "
                  f"(thres={report.thres:g}) -> confidence "
                  f"{report.confidence:.3f}, {report.oracle_calls} "
                  f"oracle calls charged")

        stats = service.stats()
        print(f"\nPhase-1 builds: {stats.builds} "
              f"(for {len(sessions)} videos, {len(WORKLOAD)} queries)")
        print(f"shared score cache: {stats.cached_scores} frames")
        print("fairness charges (oracle seconds):")
        for tenant, charge in sorted(service.tenant_charges().items()):
            print(f"  {tenant:9s} {charge:8.1f}s")
        # One service-level ledger: each video's Phase 1 once, then
        # every query's own Phase 2 in submission order.
        merged = merge_cost_models([
            *service.artifacts.phase1_ledgers(),
            *(future.outcome().phase2_cost for _, _, future in futures),
        ])
        print(f"service-level merged ledger: "
              f"{merged.total_seconds():,.0f}s simulated")


if __name__ == "__main__":
    main()
