"""The paper's promise, checked against truth.

Everest answers a Top-K query with a confidence of at least ``thres``
that the answer is the true Top-K. For each registered (family, UDF)
pair this module asks ``topk(k).guarantee(0.9)`` of ten seeded
3 000-frame videos under the default configuration and counts the
seeds whose answer really is a Top-K:

* truth is the exact score on the UDF's own grid,
  ``rint((exact - score_floor) / step)``: the paper discretizes a
  continuous score at the user's step, so a miss smaller than one step
  is not a violation;
* *end to end*, success is a tie-aware ``precision_at_k == 1`` over
  every frame;
* *D0* (the uncertain relation Phase 2 reasons over) is the same test
  with truth restricted to the retained and labelled frames.

A cell fails when the one-sided 95 % Clopper–Pearson upper bound on its
success rate is below ``thres``. The vlog end-to-end cells fail: the
difference detector drops the frames that hold the true Top-K, while
the guarantee over D0 holds. They are strict xfails, so the fix
(ROADMAP item 3, a per-video difference threshold) has to flip them.

These definitions live in :mod:`repro.experiments.guarantee_audit`,
whose full matrix ``benchmarks/bench_guarantee.py`` writes to
``BENCH_guarantee.json``; the last tests here run its two checks of
Phase 2's arithmetic over possible worlds on one small seed.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy.stats import beta

from repro import EverestConfig, Session
from repro.api.registry import resolve_pair
from repro.experiments.guarantee_audit import (
    CONFIDENCE,
    d0_levels,
    enumerated_check,
    is_topk,
    lower_bound,
    run_query,
    sampled_check,
    truth_levels,
    upper_bound,
)

NUM_FRAMES = 3_000
SEEDS = range(10)
THRES = 0.9
#: (family, UDF) -> the k each seed's session answers.
FAMILIES = {
    ("vlog", "sentiment"): (10, 50),
    ("traffic", "count"): (50,),
    ("dashcam", "tailgating"): (10, 50),
}

VLOG_DIFF_LOSS = pytest.mark.xfail(
    strict=True,
    reason="vlog's true Top-K sits among frames the fixed 1e-4 "
           "difference threshold discards; ROADMAP item 3 calibrates "
           "the threshold per video")


@functools.lru_cache(maxsize=None)
def outcomes(family: str, udf: str):
    """``{k: (end-to-end successes, D0 successes)}`` over the seeds."""
    counts = {k: [0, 0] for k in FAMILIES[family, udf]}
    for s in SEEDS:
        video, scoring = resolve_pair(
            family, udf, {"num_frames": NUM_FRAMES, "seed": 1000 + s})
        session = Session(video, scoring, config=EverestConfig())
        levels = truth_levels(video, scoring)
        d0 = d0_levels(levels, session.phase1())
        for k, count in counts.items():
            answer = session.query().topk(k).guarantee(THRES).run()
            count[0] += is_topk(answer.answer_ids, levels, k)
            count[1] += is_topk(answer.answer_ids, d0, k)
    return {k: tuple(count) for k, count in counts.items()}


def _cells(*, vlog_marks=()):
    return [
        pytest.param(family, udf, k, id=f"{family}-{udf}-k{k}",
                     marks=vlog_marks if family == "vlog" else ())
        for (family, udf), ks in FAMILIES.items() for k in ks
    ]


@pytest.mark.parametrize("family, udf, k", _cells(vlog_marks=VLOG_DIFF_LOSS))
def test_end_to_end_answer_is_the_true_topk(family, udf, k):
    successes = outcomes(family, udf)[k][0]
    assert upper_bound(successes, len(SEEDS)) >= THRES, \
        f"{successes}/{len(SEEDS)} seeds answered a true Top-{k}"


@pytest.mark.parametrize("family, udf, k", _cells())
def test_answer_is_the_topk_of_d0(family, udf, k):
    successes = outcomes(family, udf)[k][1]
    assert upper_bound(successes, len(SEEDS)) >= THRES, \
        f"{successes}/{len(SEEDS)} seeds answered D0's Top-{k}"


def test_clopper_pearson_bounds_are_scipy_stats_beta():
    for trials in (10, 50, 200):
        for successes in range(trials + 1):
            upper = beta.ppf(CONFIDENCE, successes + 1, trials - successes)
            lower = beta.ppf(1 - CONFIDENCE, successes, trials - successes + 1)
            assert upper_bound(successes, trials) == (
                1.0 if successes == trials else upper)
            assert lower_bound(successes, trials) == (
                0.0 if successes == 0 else lower)


@pytest.mark.parametrize("family, udf", sorted(FAMILIES))
def test_phase2_confidence_is_a_possible_worlds_probability(family, udf):
    """The audit's two checks of Phase 2's arithmetic, on one seed."""
    video, scoring = resolve_pair(
        family, udf, {"num_frames": 1_000, "seed": 7})
    session = Session(video, scoring, config=EverestConfig.fast())
    report, relation = run_query(session, 5, THRES)
    assert report.to_json() == session.query().topk(5).guarantee(
        THRES).run().to_json()
    assert sampled_check(relation, report, np.random.default_rng(0))["ok"]
    exact = enumerated_check(session, 5, THRES)
    assert exact["tuples"] >= 2 and exact["ok"], exact
