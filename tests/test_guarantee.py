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
(ROADMAP item 2, a per-video difference threshold) has to flip them.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy.stats import beta

from repro import EverestConfig, Session
from repro.api.registry import resolve_pair
from repro.metrics.quality import precision_at_k
from repro.oracle.base import exact_scores

NUM_FRAMES = 3_000
SEEDS = range(10)
THRES = 0.9
CONFIDENCE = 0.95
#: (family, UDF) -> the k each seed's session answers.
FAMILIES = {
    ("vlog", "sentiment"): (10, 50),
    ("traffic", "count"): (50,),
    ("dashcam", "tailgating"): (10, 50),
}

VLOG_DIFF_LOSS = pytest.mark.xfail(
    strict=True,
    reason="vlog's true Top-K sits among frames the fixed 1e-4 "
           "difference threshold discards; ROADMAP item 2 calibrates "
           "the threshold per video")


def upper_bound(successes: int, trials: int) -> float:
    """One-sided Clopper–Pearson upper bound on a success rate."""
    if successes == trials:
        return 1.0
    return float(beta.ppf(CONFIDENCE, successes + 1, trials - successes))


@functools.lru_cache(maxsize=None)
def outcomes(family: str, udf: str):
    """``{k: (end-to-end successes, D0 successes)}`` over the seeds."""
    counts = {k: [0, 0] for k in FAMILIES[family, udf]}
    for s in SEEDS:
        video, scoring = resolve_pair(
            family, udf, num_frames=NUM_FRAMES, seed=1000 + s)
        session = Session(video, scoring, config=EverestConfig())
        levels = np.rint(
            (exact_scores(scoring, video) - scoring.score_floor)
            / scoring.step)
        result = session.phase1().result
        in_d0 = np.zeros(len(video), dtype=bool)
        in_d0[result.diff_result.retained] = True
        in_d0[list(result.known_scores)] = True
        d0_levels = np.where(in_d0, levels, -np.inf)
        for k, count in counts.items():
            answer = session.query().topk(k).guarantee(THRES).run()
            count[0] += precision_at_k(answer.answer_ids, levels, k) == 1.0
            count[1] += precision_at_k(
                answer.answer_ids, d0_levels, k) == 1.0
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
