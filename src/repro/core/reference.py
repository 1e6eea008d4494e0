"""Brute-force possible-world reference implementations.

These are exponential-time oracles of correctness for the fast
algorithms in :mod:`repro.core.topk_prob` and
:mod:`repro.core.select_candidate`. They are used by the tests, the
guarantee audit and ablation benchmarks on tiny relations.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .uncertain import UncertainRelation, build_relation

#: Safety limit on the number of enumerated worlds.
MAX_WORLDS = 2_000_000


def enumerate_worlds(
    relation: UncertainRelation,
) -> Iterator[Tuple[np.ndarray, float]]:
    """Yield ``(levels, probability)`` for every possible world.

    ``levels[i]`` is the score level of the tuple at position ``i``.
    Certain tuples contribute a single outcome with probability 1.
    """
    supports: List[np.ndarray] = []
    probabilities: List[np.ndarray] = []
    world_count = 1
    for row in relation.pmf:
        support = np.flatnonzero(row > 0)
        supports.append(support)
        probabilities.append(row[support])
        world_count *= max(support.size, 1)
        if world_count > MAX_WORLDS:
            raise ConfigurationError(
                f"too many possible worlds (> {MAX_WORLDS}); "
                "use a smaller relation")

    for combo in itertools.product(*(range(s.size) for s in supports)):
        levels = np.array(
            [supports[i][c] for i, c in enumerate(combo)], dtype=np.int64)
        probability = float(np.prod(
            [probabilities[i][c] for i, c in enumerate(combo)]))
        yield levels, probability


def topk_prob_bruteforce(
    relation: UncertainRelation,
    answer_positions: Sequence[int],
    threshold_level: int,
) -> float:
    """Equation 1 evaluated by world enumeration.

    An answer drawn from the certain tuples is *a* valid Top-K of a
    world iff no other tuple's score strictly exceeds the threshold
    (ties are allowed to side with the answer, matching the paper's
    footnote 1 and Equation 2).
    """
    answer = set(int(p) for p in answer_positions)
    total = 0.0
    for levels, probability in enumerate_worlds(relation):
        others = [
            levels[i] for i in range(len(levels)) if i not in answer]
        if all(level <= threshold_level for level in others):
            total += probability
    return total


def with_known_scores(
    relation: UncertainRelation, known: Dict[int, float]
) -> UncertainRelation:
    """``relation`` rebuilt with the frames of ``known`` (frame id ->
    exact score) certain and its own certain tuples kept: a relation is
    read-only, so more certainty is another :func:`build_relation` on
    its ids, a copy of its pmf and its grid."""
    certain = relation.certain
    grid = relation.grid
    return build_relation(
        relation.ids, None, floor=grid.floor, step=grid.step,
        known_scores={**dict(zip(relation.ids[certain].tolist(),
                                 relation.exact_scores[certain].tolist())),
                      **known},
        grid=grid, pmf=relation.pmf.copy())


def expected_confidence_bruteforce(
    relation: UncertainRelation,
    position: int,
    k: int,
) -> float:
    """E[X_f] by simulation: clean ``position`` at each possible score,
    rebuild the certain Top-K, and recompute Equation 2 from scratch.

    Independent of Equation 5/6's case analysis, so it cross-checks the
    selector's closed form.
    """
    support = np.flatnonzero(relation.pmf[position] > 0)
    expected = 0.0
    for level in support:
        probability = float(relation.pmf[position, level])
        clone = with_known_scores(relation, {
            int(relation.ids[position]):
                float(relation.grid.score_of(level))})

        certain_positions = np.flatnonzero(clone.certain)
        scores = clone.exact_scores[certain_positions]
        ids = clone.ids[certain_positions]
        order = np.lexsort((ids, -scores))
        top = certain_positions[order[:k]]
        threshold_level = int(
            clone.grid.level_of(clone.exact_scores[top[-1]]))

        uncertain = np.flatnonzero(~clone.certain)
        confidence = float(
            np.prod(clone.cdf[uncertain, threshold_level])) \
            if uncertain.size else 1.0
        expected += probability * confidence
    return expected
