"""Shared fixtures for the test suite.

Expensive artifacts (videos, trained proxies, Phase 1 runs) are
session-scoped so the suite stays fast while every module gets
realistic inputs.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import numpy as np
import pytest

# Allow test modules to import shared helpers from this directory
# (``from conftest import make_relation``) regardless of rootdir.
sys.path.insert(0, os.path.dirname(__file__))

from repro.config import EverestConfig, Phase1Config
from repro.core.reference import with_known_scores
from repro.core.uncertain import QuantizationGrid, build_relation
from repro.models import extract_features, train_proxy_grid
from repro.oracle import CostModel, Oracle, counting_udf, merge_cost_models
from repro.video import DashcamVideo, SentimentVideo, TrafficVideo


class CountingTraffic(TrafficVideo):
    """A traffic video that counts how often each frame is rendered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rendered = Counter()

    def _render(self, indices):
        self.rendered.update(indices.tolist())
        return super()._render(indices)


@pytest.fixture(scope="session")
def traffic_video() -> TrafficVideo:
    """A small but realistic counting video."""
    return TrafficVideo("fixture-traffic", 1_500, seed=42)


@pytest.fixture(scope="session")
def dashcam_video() -> DashcamVideo:
    return DashcamVideo("fixture-dashcam", 1_000, seed=43)


@pytest.fixture(scope="session")
def sentiment_video() -> SentimentVideo:
    return SentimentVideo("fixture-vlog", 800, seed=44)


@pytest.fixture(scope="session")
def fast_config() -> EverestConfig:
    return EverestConfig.fast()


@pytest.fixture(scope="session")
def trained_proxy(traffic_video):
    """A trained FeatureMDN proxy on the traffic fixture."""
    rng = np.random.default_rng(0)
    train_idx = rng.choice(len(traffic_video), 250, replace=False)
    holdout_idx = rng.choice(len(traffic_video), 80, replace=False)
    grid = train_proxy_grid(
        extract_features(traffic_video.batch_pixels(train_idx)),
        traffic_video.counts[train_idx],
        extract_features(traffic_video.batch_pixels(holdout_idx)),
        traffic_video.counts[holdout_idx],
        config=Phase1Config(cmdn_grid=((3, 16),), epochs=25),
    )
    return grid.proxy


def served_cost(service, futures) -> CostModel:
    """A service-level ledger over the queries behind ``futures``.

    Each distinct Phase-1 ledger once, in digest order
    (``service.artifacts.phase1_ledgers()``), then every query's own
    Phase-2 ledger (``future.outcome().phase2_cost``) in submission
    order: the canonical fold a serial reference is merged in too, so
    the two compare bit for bit (float addition is not associative).
    """
    return merge_cost_models([
        *service.artifacts.phase1_ledgers(),
        *(future.outcome().phase2_cost
          for future in sorted(futures, key=lambda future: future.seq)),
    ])


def make_relation(pmfs, certain=None, step=1.0, floor=0.0):
    """Build a small hand-specified relation for algorithm tests.

    ``pmfs`` is a list of probability vectors (will be padded to a
    common length); ``certain`` maps position -> exact score (frame ids
    are positions), written while the relation is built.
    """
    num_levels = max(len(p) for p in pmfs)
    matrix = np.zeros((len(pmfs), num_levels))
    for i, p in enumerate(pmfs):
        matrix[i, : len(p)] = p
        matrix[i] /= matrix[i].sum()
    grid = QuantizationGrid(floor=floor, step=step, num_levels=num_levels)
    return build_relation(
        np.arange(len(pmfs)), None, floor=floor, step=step,
        known_scores=certain, grid=grid, pmf=matrix)


def with_certain(relation, positions, scores):
    """``relation`` rebuilt through ``build_relation`` with the tuples
    at ``positions`` certain at ``scores`` (its own certain tuples stay
    so): a relation is read-only."""
    return with_known_scores(relation, dict(zip(
        relation.ids[np.asarray(positions, dtype=np.int64)].tolist(),
        np.asarray(scores, dtype=np.float64).tolist())))


@pytest.fixture
def tiny_relation():
    """Table 1a from the paper: three frames, three count levels."""
    return make_relation([
        [0.78, 0.21, 0.01],
        [0.49, 0.42, 0.09],
        [0.16, 0.48, 0.36],
    ])


@pytest.fixture
def counting_oracle(traffic_video):
    return Oracle(counting_udf("car"), CostModel())
