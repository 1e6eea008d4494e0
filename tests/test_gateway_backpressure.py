"""Backpressure interleavings leave ledgers consistent and retryable.

The PR's property: *any* interleaving of quota-exceeded, max-pending
and closed-service submissions — through the gateway or straight into
``submit()`` — raises the correct error class, lands in the rejection
ledgers exactly once, and leaves the system retryable: a clean
resubmission afterwards completes with report bytes identical to a
direct inline run.

Two hypothesis drivers, one per entry point:

* **Gateway storms** share one module-scoped gateway whose abusive
  tenants are pinned deterministically — ``ratey``'s token bucket is
  pre-drained under a frozen clock (never refills), ``parked``
  permanently holds its single ``max_inflight`` slot — so every storm
  op has a known outcome and the cumulative ledgers can be checked
  against exact ground truth after every example.
* **Scheduler storms** jam a :class:`FairScheduler` behind a gated
  primer job (its ``run_batch`` is a stub — no video work), so the
  ``max_pending`` admission bound trips at an exact, deterministic
  submission index.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import resolve_query_spec
from repro.config import EverestConfig
from repro.errors import (
    AdmissionError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.gateway import (
    Gateway,
    GatewayConfig,
    QuotaPolicy,
    parse_metrics_text,
)
from repro.service import FairScheduler, JobOutcome

WAIT = 120.0
VIDEO_KWARGS = {"num_frames": 400, "seed": 7}
SPEC = "count[car]/traffic"


class FrozenClock:
    def __call__(self) -> float:
        return 1000.0


@pytest.fixture(scope="module")
def storm():
    """One gateway + its cumulative ground-truth ledger."""
    gateway = Gateway(
        config=GatewayConfig(
            video_kwargs=dict(VIDEO_KWARGS),
            tenant_quotas={
                # Bucket of one token, refilled at 1e-6/s on a frozen
                # clock: drained once below, refused forever after.
                "ratey": QuotaPolicy(rate=1e-6, burst=1),
                "parked": QuotaPolicy(max_inflight=1),
            },
        ),
        clock=FrozenClock(),
        workers=2,
        use_processes=False,
    )
    # Pin the deterministic refusals: drain ratey's only token
    # (admit + release leaves the bucket empty and no slot held) and
    # park a permanent inflight slot on the one-slot tenant.
    gateway.quotas.admit_query("ratey")
    gateway.quotas.release("ratey")
    gateway.quotas.admit_query("parked")

    reference = resolve_query_spec(
        SPEC, config=EverestConfig.fast(), **VIDEO_KWARGS) \
        .query().topk(3).guarantee(0.9).run().to_json()

    ground_truth = {
        ("ratey", "rate"): 0,
        ("parked", "max_inflight"): 0,
        "ok": 0,
    }
    with gateway:
        yield gateway, reference, ground_truth


def _poll_done(gateway, result_id, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = gateway.handle("GET", f"/result/{result_id}")
        assert status == 200
        if body["status"] != "pending":
            return body
        time.sleep(0.02)
    raise AssertionError(f"result {result_id} never finished")


@given(ops=st.lists(
    st.sampled_from(["rate", "inflight", "ok"]),
    min_size=1, max_size=8))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_gateway_storm_interleavings(storm, ops):
    gateway, reference, truth = storm
    accepted = []
    for op in ops:
        if op == "rate":
            status, body = gateway.handle("POST", "/query", {
                "tenant": "ratey", "spec": SPEC, "k": 3})
            assert status == 429
            assert body["error"] == "QuotaExceededError"
            assert body["reason"] == "rate"
            assert body["retry_after"] > 0
            truth[("ratey", "rate")] += 1
        elif op == "inflight":
            status, body = gateway.handle("POST", "/query", {
                "tenant": "parked", "spec": SPEC, "k": 3})
            assert status == 429
            assert body["error"] == "QuotaExceededError"
            assert body["reason"] == "max_inflight"
            truth[("parked", "max_inflight")] += 1
        else:
            status, body = gateway.handle("POST", "/query", {
                "tenant": "clean", "spec": SPEC, "k": 3})
            assert status == 202
            accepted.append(body["id"])
            truth["ok"] += 1

    # Retryable: every accepted query completes, byte-identical to the
    # direct inline run — the storm never corrupted shared state.
    for result_id in accepted:
        body = _poll_done(gateway, result_id)
        assert body["status"] == "done"
        assert body["report_json"] == reference

    # Ledgers carry the exact interleaving, in both places.
    rejections = gateway.service.stats().rejections
    samples = parse_metrics_text(gateway.metrics.render())
    for (tenant, reason), count in (
            (key, truth[key]) for key in truth if key != "ok"):
        if count == 0:
            continue
        assert rejections[tenant][reason] == count
        assert samples[("everest_gateway_queries_rejected_total",
                        (("tenant", tenant),
                         ("reason", reason)))] == count
    clean = (("tenant", "clean"),)
    if truth["ok"]:
        assert samples[("everest_gateway_queries_submitted_total",
                        clean)] == truth["ok"]
        assert samples[("everest_gateway_queries_completed_total",
                        clean)] == truth["ok"]
    # The parked slot is still exactly one: refusals never leaked an
    # inflight acquisition, completions never double-released.
    assert gateway.quotas.inflight("parked") == 1
    assert gateway.quotas.inflight("clean") == 0


@given(tenants=st.lists(
    st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10),
    max_pending=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_scheduler_storm_interleavings(tenants, max_pending):
    """Direct ``submit()``: max_pending trips exactly, then drains."""
    gate = threading.Event()

    def run(payloads):
        if payloads[0] == "primer":
            gate.wait(WAIT)
        return [JobOutcome(value=payload) for payload in payloads]

    scheduler = FairScheduler(
        run, workers=1, max_pending=max_pending, max_batch=1)
    try:
        primer = scheduler.submit("primer", tenant="primer")
        deadline = time.monotonic() + 10
        while scheduler.snapshot()["pending"] \
                and time.monotonic() < deadline:
            time.sleep(0.001)  # until the worker holds the primer
        assert scheduler.snapshot()["pending"] == 0

        accepted, expected = [], {}
        for index, tenant in enumerate(tenants):
            if len(accepted) < max_pending:
                accepted.append(
                    (f"job-{index}",
                     scheduler.submit(f"job-{index}", tenant=tenant)))
            else:
                with pytest.raises(AdmissionError) as excinfo:
                    scheduler.submit(f"job-{index}", tenant=tenant)
                assert excinfo.value.reason == "max_pending"
                assert excinfo.value.tenant == tenant
                # The service's own refusal, not a gateway quota.
                assert not isinstance(
                    excinfo.value, QuotaExceededError)
                expected[tenant] = expected.get(tenant, 0) + 1

        rejections = scheduler.snapshot()["rejections"]
        assert {
            tenant: reasons.get("max_pending", 0)
            for tenant, reasons in rejections.items()
        } == expected

        # Retryable: releasing the jam completes everything accepted,
        # in full, and new submissions are admitted again.
        gate.set()
        assert primer.result(WAIT) == "primer"
        for payload, future in accepted:
            assert future.result(WAIT) == payload
        assert scheduler.submit("after", tenant="late") \
            .result(WAIT) == "after"
    finally:
        scheduler.close()

    with pytest.raises(ServiceClosedError):
        scheduler.submit("too-late", tenant="late")
    assert scheduler.snapshot()["rejections"]["late"]["closed"] == 1


def test_closed_service_through_both_entry_points():
    """503 + correct classes + ledgers once the service is gone."""
    gateway = Gateway(
        config=GatewayConfig(video_kwargs=dict(VIDEO_KWARGS)),
        workers=1, use_processes=False)
    with gateway:
        gateway.service.close()

        status, body = gateway.handle("POST", "/query", {
            "tenant": "late", "spec": SPEC, "k": 3})
        assert status == 503
        assert body["error"] == "ServiceClosedError"

        with pytest.raises(ServiceClosedError):
            gateway.service.submit(
                resolve_query_spec(
                    SPEC, config=EverestConfig.fast(),
                    **VIDEO_KWARGS).query().topk(3),
                tenant="late")

        stats = gateway.service.stats()
        # The direct submit's refusal lands in the scheduler ledger;
        # the gateway's is refused earlier (at session adoption) and
        # lands in the gateway metric below.
        assert stats.rejections["late"]["closed"] >= 1
        samples = parse_metrics_text(gateway.metrics.render())
        assert samples[("everest_gateway_queries_rejected_total",
                        (("tenant", "late"), ("reason", "closed")))] == 1
        # No inflight slot leaked on the refused path.
        assert gateway.quotas.inflight("late") == 0
