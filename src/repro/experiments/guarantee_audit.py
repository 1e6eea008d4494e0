"""The guarantee audit: is the answer the true Top-K as often as promised?

Everest answers ``topk(k).guarantee(thres)`` with an answer it holds to
be a true Top-K with probability at least ``thres`` (paper §3, Eq. 1).
This module checks that promise against truth for every registered
(family, UDF) pair, over many seeded videos, cell by cell of a
(pair, configuration, k, thres) grid:

* *truth* is the exact score on the UDF's own grid,
  ``rint((exact - score_floor) / step)``: the paper discretizes a
  continuous score at the user's step, so a miss smaller than one step
  is not a violation;
* *end to end*, an answer succeeds when it is a tie-aware Top-K over
  every frame (``precision_at_k == 1``);
* *D0* (the uncertain relation Phase 2 reasons over) is the same test
  with truth restricted to the retained and labelled frames;
* a cell *fails* when the one-sided 95 % Clopper–Pearson upper bound on
  its success rate is below ``thres``. A cell whose interval straddles
  ``thres`` is re-run on more seeds.

A failed answer *missed* the frames outside it whose true level beats
the answer's lowest. The failure is a *diff loss* when one of them is
not in D0, a *confident miss* when D0 gave one of them less than
:data:`CONFIDENT_MASS` of probability above the answer's lowest level,
and *Phase 2* otherwise.

Phase 2's own arithmetic is checked over possible worlds, the way
Koutris & Wijsen read a certain answer over the repairs of an
inconsistent database: the reported confidence is the probability that
the answer is a Top-K of a world drawn from the relation's pmfs. On
relations of :data:`SMALL_TUPLES` tuples the exact enumeration of
:mod:`repro.core.reference` must equal it to 1e-9; on each cell's final
relation the share of :data:`SAMPLED_WORLDS` sampled worlds must be
within three standard errors of it (a share outside is drawn again
from ten times the worlds, and that draw decides). That separates "is
the arithmetic right" from "is the proxy calibrated".

``benchmarks/bench_guarantee.py`` runs the grid and writes
``BENCH_guarantee.json``; ``tests/test_guarantee.py`` pins a subset
with the truth definitions here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import betaincinv

from ..api.executor import QueryExecutor
from ..api.registry import resolve_pair
from ..api.session import Session
from ..config import EverestConfig
from ..core.reference import topk_prob_bruteforce, with_known_scores
from ..core.uncertain import UncertainRelation, restrict_relation
from ..metrics.quality import evaluate_answer, precision_at_k
from ..oracle.base import Oracle, exact_scores
from .runner import format_table

#: Confidence level of every Clopper–Pearson bound.
CONFIDENCE = 0.95
#: D0 mass above the answer's lowest level under which a missed frame
#: makes the failure a confident miss.
CONFIDENT_MASS = 1e-3
#: Possible worlds sampled on each cell's final relation (ten times
#: as many again when the first draw is outside three standard errors).
SAMPLED_WORLDS = 10_000
#: The exact reference runs on relations of this many tuples, whose
#: probe answers a Top-(SMALL_TUPLES / 2), when the relation Phase 2
#: ends on has at most this many possible worlds.
SMALL_TUPLES = 8
SMALL_WORLDS = 200_000
#: Enumeration must match the reported confidence this closely.
EXACT_TOLERANCE = 1e-9
#: Missed frames listed per failure, highest true level first (all of
#: them are counted and classified).
LISTED_MISSES = 3
#: Video seeds are ``SEED_BASE + s``.
SEED_BASE = 5_000
#: The configurations a grid may name.
CONFIGS = {"default": EverestConfig(), "fast": EverestConfig.fast()}
#: Failure classes, in the order they are tested.
FAILURE_CLASSES = ("diff loss", "confident miss", "Phase 2")


@dataclass(frozen=True)
class AuditGrid:
    """The cells audited and the seeds each one runs on."""

    pairs: Tuple[Tuple[str, str], ...] = (
        ("traffic", "count"), ("dashcam", "tailgating"),
        ("vlog", "sentiment"))
    ks: Tuple[int, ...] = (5, 10, 50)
    thresholds: Tuple[float, ...] = (0.8, 0.9, 0.95)
    configs: Tuple[str, ...] = ("default", "fast")
    num_frames: int = 3_000
    seeds: int = 50
    #: Seeds of a cell whose Clopper–Pearson interval straddles ``thres``.
    straddle_seeds: int = 200

    @staticmethod
    def quick() -> "AuditGrid":
        """A smoke-sized grid: every pair, fast config, a few seeds."""
        return AuditGrid(ks=(5, 10), thresholds=(0.9,), configs=("fast",),
                         num_frames=1_000, seeds=3, straddle_seeds=4)


# ----------------------------------------------------------------------
# truth


def truth_levels(video, scoring) -> np.ndarray:
    """Every frame's exact score as a level of the UDF's own grid."""
    return np.rint(
        (exact_scores(scoring, video) - scoring.score_floor) / scoring.step)


def d0_levels(levels: np.ndarray, entry) -> np.ndarray:
    """``levels`` restricted to D0 — the frames the difference detector
    retained or Phase 1 labelled; every other frame reads ``-inf``."""
    in_d0 = np.zeros(levels.size, dtype=bool)
    in_d0[entry.diff_result.retained] = True
    in_d0[list(entry.known_scores)] = True
    return np.where(in_d0, levels, -np.inf)


def is_topk(answer_ids: Sequence[int], levels: np.ndarray, k: int) -> bool:
    """Whether every answer frame belongs to some Top-K of ``levels``."""
    return precision_at_k(answer_ids, levels, k) == 1.0


def upper_bound(successes: int, trials: int) -> float:
    """One-sided Clopper–Pearson upper bound on a success rate."""
    if successes == trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, CONFIDENCE))


def lower_bound(successes: int, trials: int) -> float:
    """One-sided Clopper–Pearson lower bound on a success rate."""
    if successes == 0:
        return 0.0
    return float(betaincinv(
        successes, trials - successes + 1, 1.0 - CONFIDENCE))


# ----------------------------------------------------------------------
# one query, and the relation Phase 2 ended on


class _RecordingOracle(Oracle):
    """A plain confirming oracle that keeps what it scored: the tuples
    Phase 2 cleaned, from which its final relation is rebuilt."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scored: Dict[int, float] = {}

    def score(self, video, indices):
        indices = list(indices)
        scores = super().score(video, indices)
        self.scored.update(zip(indices, scores.tolist()))
        return scores


def run_query(session: Session, k: int, thres: float):
    """``session.query().topk(k).guarantee(thres)``'s report (the bytes
    ``run()`` returns) and the relation its Phase 2 ended on."""
    executor = QueryExecutor(
        session, confirm_oracle=lambda plan, cost: _RecordingOracle(
            session.scoring, cost, cost_key="oracle_confirm",
            budget=plan.oracle_budget))
    report = executor.execute(session.query().topk(k).guarantee(thres).plan())
    relation = session.phase1().relation
    scored = executor.last_confirm_oracle.scored
    if scored:
        relation = with_known_scores(relation, scored)
    return report, relation


def _threshold_level(relation: UncertainRelation, report) -> int:
    """The relation's level of the answer's lowest score."""
    return int(relation.grid.level_of(min(report.answer_scores)))


# ----------------------------------------------------------------------
# possible worlds


def sampled_topk_share(
    relation: UncertainRelation,
    answer_ids: Sequence[int],
    threshold_level: int,
    worlds: int,
    rng: np.random.Generator,
) -> float:
    """Share of ``worlds`` possible worlds, each tuple's level drawn from
    its pmf, in which no tuple outside the answer is above
    ``threshold_level`` — in which the answer is a Top-K."""
    pmf = relation.pmf[~np.isin(relation.ids, answer_ids)]
    holds = np.ones(worlds, dtype=bool)
    for row in pmf[pmf[:, threshold_level + 1:].sum(axis=1) > 0]:
        cdf = np.cumsum(row)
        levels = np.searchsorted(
            cdf, rng.random(worlds) * cdf[-1], side="right")
        holds &= levels <= threshold_level
    return float(holds.mean())


def sampled_check(relation, report, rng) -> dict:
    """The share of sampled worlds against the reported confidence.

    A share outside three standard errors is drawn again from ten times
    the worlds, and the check holds when that one is within three of
    its own: a 3-SE test alarms by chance in one cell of 370, and a
    grid has dozens of cells, but a bias in the arithmetic shows in
    both draws.
    """
    level = _threshold_level(relation, report)
    confidence = report.confidence
    draws = []
    for worlds in (SAMPLED_WORLDS, 10 * SAMPLED_WORLDS):
        share = sampled_topk_share(
            relation, report.answer_ids, level, worlds, rng)
        error = math.sqrt(confidence * (1.0 - confidence) / worlds)
        within = abs(share - confidence) <= 3.0 * error
        draws.append({"worlds": worlds, "share": share,
                      "standard_error": error, "within_3_se": within})
        if within:
            break
    return {"confidence": confidence, "draws": draws, "ok": within}


def _small_relation_ids(relation: UncertainRelation, k: int) -> List[int]:
    """The :data:`SMALL_TUPLES` uncertain tuples ranked from four above
    the ``k``-th highest expected score down: tuples that contend."""
    uncertain = relation.uncertain_positions()
    ranked = uncertain[np.argsort(
        -relation.expected_scores()[uncertain], kind="stable")]
    start = max(0, k - SMALL_TUPLES // 2)
    return relation.ids[ranked[start:start + SMALL_TUPLES]].tolist()


def enumerated_check(session: Session, k: int, thres: float) -> dict:
    """Run a Top-(:data:`SMALL_TUPLES` / 2) query over an
    :data:`SMALL_TUPLES`-tuple sub-relation of the session's D0 and
    compare its confidence with the probability that enumerating the
    possible worlds of its final relation gives its answer.

    The sub-relation is adopted as the Phase-1 entry of a probe session
    that cleans one tuple per iteration, so Phase 2 stops with tuples
    still uncertain rather than cleaning all of them in one batch.
    """
    entry = session.phase1()
    ids = _small_relation_ids(entry.relation, k)
    small = restrict_relation(entry.relation, [(i, i + 1) for i in ids])
    config = session.config
    probe = Session(session.video, session.scoring, config=dataclasses.replace(
        config, phase2=dataclasses.replace(config.phase2, batch_size=1)))
    probe.adopt_phase1(dataclasses.replace(entry, relation=small))
    report, final = run_query(probe, len(ids) // 2, thres)
    worlds = int(np.prod(np.count_nonzero(final.pmf, axis=1)))
    check = {"tuples": len(ids), "k": report.k,
             "uncertain_after": final.num_uncertain, "worlds": worlds,
             "confidence": report.confidence}
    if worlds > SMALL_WORLDS:
        return {**check, "enumerated": None, "ok": None}
    exact = topk_prob_bruteforce(
        final, [final.position(i) for i in report.answer_ids],
        _threshold_level(final, report))
    return {**check, "enumerated": exact,
            "ok": abs(exact - report.confidence) <= EXACT_TOLERANCE}


# ----------------------------------------------------------------------
# failures


def classify_failure(report, levels, d0, relation) -> dict:
    """The frames a failed answer missed, and the failure's class."""
    answer = np.asarray(report.answer_ids, dtype=np.int64)
    outside = np.ones(levels.size, dtype=bool)
    outside[answer] = False
    lowest = levels[answer].min()
    missed = np.flatnonzero(outside & (levels > lowest))
    missed = missed[np.argsort(-levels[missed], kind="stable")]
    threshold = _threshold_level(relation, report)
    frames = []
    for frame in missed.tolist():
        retained = bool(np.isfinite(d0[frame]))
        mass = float(relation.pmf[relation.position(frame),
                                  threshold + 1:].sum()) if retained else None
        frames.append(
            {"frame": frame, "level": float(levels[frame]),
             "retained": retained, "mass_above": mass})
    masses = [f["mass_above"] for f in frames if f["retained"]]
    if len(masses) < len(frames):
        kind = "diff loss"
    elif min(masses) < CONFIDENT_MASS:
        kind = "confident miss"
    else:
        kind = "Phase 2"
    return {"class": kind, "answer_lowest_level": float(lowest),
            "num_missed": len(frames),
            "num_missed_outside_d0": len(frames) - len(masses),
            "min_mass_above": min(masses, default=None),
            "missed": frames[:LISTED_MISSES]}


# ----------------------------------------------------------------------
# the grid


@dataclass
class _Cell:
    """One (pair, config, k, thres) cell's running tallies."""

    k: int
    thres: float
    seeds: int = 0
    end_to_end: int = 0
    d0: int = 0
    sums: Dict[str, float] = dataclasses.field(default_factory=lambda: {
        "precision_at_k": 0.0, "rank_distance": 0.0, "score_error": 0.0,
        "label_share": 0.0, "confidence": 0.0})
    failures: List[dict] = dataclasses.field(default_factory=list)
    worlds: Dict[str, dict] = dataclasses.field(default_factory=dict)

    def straddles(self) -> bool:
        return any(
            lower_bound(s, self.seeds) < self.thres
            <= upper_bound(s, self.seeds)
            for s in (self.end_to_end, self.d0))

    def record(self, family, udf, config) -> dict:
        n = self.seeds
        classes = {kind: 0 for kind in FAILURE_CLASSES}
        for failure in self.failures:
            classes[failure["class"]] += 1
        return {
            "family": family, "udf": udf, "config": config,
            "k": self.k, "thres": self.thres, "seeds": n,
            **{name: {"successes": s,
                      "upper_bound": upper_bound(s, n),
                      "lower_bound": lower_bound(s, n),
                      "passes": upper_bound(s, n) >= self.thres}
               for name, s in (("end_to_end", self.end_to_end),
                               ("d0", self.d0))},
            **{f"mean_{name}": total / n
               for name, total in self.sums.items()},
            "failure_classes": classes,
            "failures": self.failures,
            **self.worlds,
        }


def _audit_seed(family, udf, config, grid, seed, cells, first) -> None:
    """Ask one seeded video every query of ``cells`` and tally them."""
    video, scoring = resolve_pair(
        family, udf, {"num_frames": grid.num_frames, "seed": SEED_BASE + seed})
    session = Session(video, scoring, config=CONFIGS[config])
    entry = session.phase1()
    levels = truth_levels(video, scoring)
    d0 = d0_levels(levels, entry)
    for cell in cells:
        report, relation = run_query(session, cell.k, cell.thres)
        quality = evaluate_answer(report.answer_ids, levels, cell.k)
        cell.seeds += 1
        cell.end_to_end += quality.precision == 1.0
        cell.d0 += is_topk(report.answer_ids, d0, cell.k)
        for name, value in (
                ("precision_at_k", quality.precision),
                ("rank_distance", quality.rank_distance),
                ("score_error", quality.score_error),
                ("label_share", entry.oracle_calls / report.oracle_calls),
                ("confidence", report.confidence)):
            cell.sums[name] += value
        if quality.precision < 1.0:
            cell.failures.append({
                "seed": SEED_BASE + seed,
                **classify_failure(report, levels, d0, relation)})
        if first:
            cell.worlds = {
                "sampled_worlds": sampled_check(
                    relation, report, np.random.default_rng(seed)),
                "enumerated_worlds": enumerated_check(
                    session, cell.k, cell.thres),
            }


def run(grid: AuditGrid = AuditGrid()) -> dict:
    """Audit every cell of ``grid``; JSON-ready."""
    cells = []
    for family, udf in grid.pairs:
        for config in grid.configs:
            tallies = [_Cell(k, thres) for k in grid.ks
                       for thres in grid.thresholds]
            for seed in range(grid.seeds):
                _audit_seed(family, udf, config, grid, seed, tallies,
                            first=seed == 0)
            wide = [cell for cell in tallies if cell.straddles()]
            for seed in range(grid.seeds, grid.straddle_seeds):
                if wide:
                    _audit_seed(family, udf, config, grid, seed, wide,
                                first=False)
            cells.extend(cell.record(family, udf, config)
                         for cell in tallies)
    return {
        "grid": dataclasses.asdict(grid),
        "seed_base": SEED_BASE,
        "confidence_level": CONFIDENCE,
        "cells": cells,
        "summary": summarize(cells),
    }


def summarize(cells: Sequence[dict]) -> dict:
    """Failing cells, failure classes and possible-world checks."""
    def name(cell):
        return (f"{cell['family']}/{cell['udf']}/{cell['config']}"
                f"/k{cell['k']}/t{cell['thres']}")

    classes = {kind: 0 for kind in FAILURE_CLASSES}
    for cell in cells:
        for kind, count in cell["failure_classes"].items():
            classes[kind] += count
    enumerated = [c["enumerated_worlds"] for c in cells
                  if c["enumerated_worlds"]["ok"] is not None]
    sampled = [c["sampled_worlds"] for c in cells]
    return {
        "cells": len(cells),
        "end_to_end_failing": [name(c) for c in cells
                               if not c["end_to_end"]["passes"]],
        "d0_failing": [name(c) for c in cells if not c["d0"]["passes"]],
        "failure_classes": classes,
        "enumerated_checks": len(enumerated),
        "enumerated_with_uncertain_tuples": sum(
            e["uncertain_after"] > 0 for e in enumerated),
        "enumerated_all_ok": all(e["ok"] for e in enumerated),
        "sampled_checks": len(sampled),
        "sampled_redrawn": sum(len(s["draws"]) > 1 for s in sampled),
        "sampled_all_ok": all(s["ok"] for s in sampled),
    }


def render(result: dict) -> str:
    """The matrix as a table, one row per cell."""
    rows = []
    for cell in result["cells"]:
        e2e, d0 = cell["end_to_end"], cell["d0"]
        classes = cell["failure_classes"]
        rows.append([
            f"{cell['family']}/{cell['udf']}", cell["config"],
            str(cell["k"]), f"{cell['thres']:.2f}",
            f"{e2e['successes']}/{cell['seeds']}",
            f"{e2e['upper_bound']:.3f}" + ("" if e2e["passes"] else " FAIL"),
            f"{d0['successes']}/{cell['seeds']}",
            f"{d0['upper_bound']:.3f}" + ("" if d0["passes"] else " FAIL"),
            f"{cell['mean_label_share']:.2f}",
            "/".join(str(classes[kind]) for kind in FAILURE_CLASSES),
        ])
    return format_table(
        ["pair", "config", "k", "thres", "e2e", "e2e ub", "D0", "D0 ub",
         "labels", "diff/conf/p2"], rows)
