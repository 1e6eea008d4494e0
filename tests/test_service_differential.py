"""Differential certification: service execution == plain sessions.

Random mixed workloads (seeded hypothesis, extending the
``test_parallel_equivalence`` patterns) are executed twice:

* **Reference** — plain serial :class:`Session` objects, one per
  video, ``execute_detailed`` per plan;
* **Service** — one :class:`QueryService`, every plan submitted
  concurrently under rotating tenants.

The two runs must agree *exactly*: byte-identical
``QueryReport.to_json()`` strings per query, and identical merged
cost ledgers (Phase 1 once per distinct ``phase1_key`` + every
per-query Phase 2 ledger, compared unit-for-unit and
second-for-second). Phase 1 charges are purely simulated and Phase 2
runs under deterministic timing, so "identical" means ``==`` on
floats, not approx.
"""

from __future__ import annotations

import dataclasses

import pytest
from conftest import served_cost
from hypothesis import given, settings, strategies as st

from repro import EverestConfig, QueryService, Session
from repro.oracle import counting_udf
from repro.oracle.cost import merge_cost_models
from repro.video import TrafficVideo

#: The shared workload universe: two videos, frame and window queries.
VIDEOS = (("diff-a", 21), ("diff-b", 22))


def _sessions(config):
    return {
        name: Session(
            TrafficVideo(name, 600, seed=seed),
            counting_udf("car"),
            config=config,
        )
        for name, seed in VIDEOS
    }


def _random_workload(rng_seed: int):
    """A deterministic pseudo-random mixed workload description."""
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    workload = []
    for _ in range(int(rng.integers(4, 9))):
        name = VIDEOS[int(rng.integers(0, len(VIDEOS)))][0]
        k = int(rng.integers(2, 6))
        thres = float(rng.choice([0.8, 0.9, 0.95]))
        window = int(rng.choice([0, 0, 20]))
        workload.append((name, k, thres, window))
    return workload


def _plan_for(session, k, thres, window):
    query = session.query().topk(k).guarantee(thres)
    if window:
        query = query.windows(size=window)
    return query.plan()


def _ledger_map(cost):
    return {
        key: (cost.units(key), cost.seconds(key))
        for key in cost.breakdown()
    }


def _reference_merged(sessions, phase2_costs):
    """Merge a serial reference in the service's canonical order.

    Float addition is not associative, so "identical merged ledgers"
    requires both sides to fold contributions identically: Phase-1
    ledgers sorted by artifact digest, per-query Phase-2 ledgers in
    submission order (see ``conftest.served_cost``).
    """
    from repro.service.artifacts import artifact_digest, group_key

    phase1 = sorted(
        (
            (artifact_digest(
                (group_key(session.video, session.scoring), key)),
             entry.cost_model)
            for session in sessions
            for key, entry in session._phase1_cache.items()
        ),
        key=lambda pair: pair[0],
    )
    return merge_cost_models(
        [*[ledger for _, ledger in phase1], *phase2_costs])


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_random_workloads_service_equals_sessions(seed):
    config = EverestConfig.fast()
    workload = _random_workload(seed)

    # Reference: plain sessions, serial execution, per-query ledgers.
    from repro.api.executor import QueryExecutor
    from repro.api.session import phase1_key

    reference_sessions = _sessions(config)
    reference_reports = []
    reference_phase2 = []
    for name, k, thres, window in workload:
        session = reference_sessions[name]
        detail = QueryExecutor(session).execute_detailed(
            _plan_for(session, k, thres, window))
        reference_reports.append(detail.report.to_json())
        reference_phase2.append(detail.phase2_cost)
    reference_merged = _reference_merged(
        reference_sessions.values(), reference_phase2)

    # Service: same workload, submitted concurrently.
    with QueryService(workers=4, use_processes=False) as service:
        service_sessions = {
            name: service.open_session(
                TrafficVideo(name, 600, seed=seed_),
                counting_udf("car"), config=config)
            for name, seed_ in VIDEOS
        }
        futures = [
            service.submit(
                _plan_for(service_sessions[name], k, thres, window),
                session=service_sessions[name],
                tenant=f"tenant-{i % 3}",
            )
            for i, (name, k, thres, window) in enumerate(workload)
        ]
        reports = service.gather(futures, timeout=180)
        service_merged = served_cost(service, futures)

    assert [r.to_json() for r in reports] == reference_reports
    assert _ledger_map(service_merged) == _ledger_map(reference_merged)


@pytest.mark.parametrize("use_processes", [False, True])
def test_mixed_workload_with_config_overrides(use_processes):
    """Plans overriding phase2 and phase1 knobs stay equivalent."""
    base_cfg = EverestConfig.fast()
    alt_cfg = dataclasses.replace(base_cfg, seed=base_cfg.seed + 1)
    video = TrafficVideo("diff-c", 600, seed=23)

    session = Session(video, counting_udf("car"), config=base_cfg)
    base = session.query().guarantee(0.9)
    plans = [
        base.topk(3).plan(),
        base.topk(4).with_config(alt_cfg).plan(),
        base.topk(3).windows(size=20).plan(),
        dataclasses.replace(
            base.topk(5).plan(),
            config=dataclasses.replace(
                base_cfg,
                phase2=dataclasses.replace(
                    base_cfg.phase2, batch_size=4)),
        ),
    ]
    from repro.api.executor import QueryExecutor

    executor = QueryExecutor(session)
    reference = [executor.execute_detailed(plan) for plan in plans]
    assert session.phase1_runs == 2  # base_cfg and alt_cfg

    with QueryService(workers=2, use_processes=use_processes) as service:
        svc_session = service.open_session(
            TrafficVideo("diff-c", 600, seed=23),
            counting_udf("car"), config=base_cfg)
        futures = [
            service.submit(plan, session=svc_session) for plan in plans]
        reports = service.gather(futures, timeout=180)
        stats = service.stats()
        service_merged = served_cost(service, futures)

    assert [r.to_json() for r in reports] == \
        [d.report.to_json() for d in reference]
    # Two distinct phase1 keys -> two builds, shared across four plans.
    assert stats.builds == 2

    reference_merged = _reference_merged(
        [session], [d.phase2_cost for d in reference])
    assert _ledger_map(service_merged) == _ledger_map(reference_merged)


def test_service_score_sharing_never_changes_ledgers():
    """Cache hits shrink physical work, never the accounted charges."""
    config = EverestConfig.fast()
    video = TrafficVideo("diff-d", 600, seed=29)
    session = Session(video, counting_udf("car"), config=config)
    base = session.query().guarantee(0.9)
    plans = [base.topk(k).plan() for k in (3, 3, 4, 5)]

    from repro.api.executor import QueryExecutor

    reference = [
        QueryExecutor(session).execute_detailed(plan) for plan in plans]

    with QueryService(workers=1, use_processes=False) as service:
        svc_session = service.open_session(
            TrafficVideo("diff-d", 600, seed=29),
            counting_udf("car"), config=config)
        futures = [
            service.submit(plan, session=svc_session) for plan in plans]
        service.gather(futures, timeout=180)
    outcomes = [future.outcome() for future in futures]

    # Identical accounted confirmations per query...
    assert sorted(
        o.phase2_cost.units("oracle_confirm") for o in outcomes
    ) == sorted(
        d.phase2_cost.units("oracle_confirm") for d in reference)
    # ...but the duplicate top-3 query (and overlapping top-4/5) hit
    # the shared cache: total physical confirmations are strictly
    # fewer than accounted ones.
    fresh = sum(o.fresh_confirm_calls for o in outcomes)
    accounted = sum(
        int(o.phase2_cost.units("oracle_confirm")) for o in outcomes)
    assert fresh < accounted
