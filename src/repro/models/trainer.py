"""Training loop, hyperparameter grid, and holdout model selection.

Paper Section 3.2 / 3.5: Everest trains several CMDNs with different
``(g, h)`` hyperparameters on oracle-labelled sample frames, evaluates
each on a holdout set sampled the same way, and keeps the model with
the smallest negative log-likelihood.

:func:`train_proxy_grid` reproduces that protocol for either proxy
family and reports per-candidate histories, so callers (Phase 1, the
breakdown experiment) can charge training cost and log selection. What
the candidates share is computed once, by the caller: the grid is
handed the train and holdout samples featurized and every candidate
fits its own input scaling, trains and is scored on those two matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from ..config import Phase1Config
from ..errors import ConfigurationError
from .cmdn import ConvMDNProxy, FeatureMDNProxy, ProxyScorer, mean_nll
from .mdn import QUIET
from .optim import Adam

#: Mini-batch size of every proxy fit (Phase 1's grid and a stream's
#: warm retrain).
TRAIN_BATCH_SIZE = 64
#: Adam learning rate of every proxy fit.
LEARNING_RATE = 2e-3


@dataclass
class TrainingHistory:
    """Loss trace of one candidate model."""

    hyperparameters: Tuple[int, int]
    epoch_losses: List[float] = field(default_factory=list)
    holdout_nll: float = float("inf")
    wall_seconds: float = 0.0


@dataclass
class GridResult:
    """Outcome of the grid search: the winner plus all histories."""

    proxy: ProxyScorer
    histories: List[TrainingHistory]
    sample_epochs: int  # total (samples x epochs) across the grid

    @property
    def best_history(self) -> TrainingHistory:
        return self.histories[_best_index(self.histories)]


def _best_index(histories: Sequence[TrainingHistory]) -> int:
    """The first candidate with the smallest holdout NLL."""
    return int(np.argmin([h.holdout_nll for h in histories]))


def _iterate_minibatches(
    rng: np.random.Generator,
    num_samples: int,
    batch_size: int,
):
    order = rng.permutation(num_samples)
    for start in range(0, num_samples, batch_size):
        yield order[start:start + batch_size]


def _check_sample(pixels: np.ndarray, scores: np.ndarray) -> None:
    if len(pixels) != len(scores):
        raise ConfigurationError("pixels and scores must align")
    if len(pixels) == 0:
        raise ConfigurationError("cannot train on an empty sample")


def train_network(
    proxy: ProxyScorer,
    train_pixels: np.ndarray,
    train_scores: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed: int = 0,
) -> List[float]:
    """Fit one proxy network; returns per-epoch mean NLL (scaled units)."""
    _check_sample(train_pixels, train_scores)
    return _fit(
        proxy, proxy.featurize(train_pixels), train_scores, epochs=epochs,
        batch_size=batch_size, learning_rate=learning_rate, seed=seed)


def _fit(
    proxy: ProxyScorer,
    train_features: np.ndarray,
    train_scores: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
) -> List[float]:
    """:func:`train_network` on already featurized frames."""
    inputs = proxy.fit_inputs(train_features)
    network = proxy.network
    network.fit_target_scaling(train_scores)
    optimizer = Adam(learning_rate)
    rng = np.random.default_rng(seed)
    targets = network.scale_targets(train_scores)

    losses: List[float] = []
    with np.errstate(**QUIET):
        for _ in range(epochs):
            epoch_losses = []
            for batch in _iterate_minibatches(rng, len(inputs), batch_size):
                epoch_losses.append(network.train_step_scaled(
                    inputs[batch], targets[batch], optimizer))
            losses.append(float(np.mean(epoch_losses)))
    return losses


def proxy_family(
    config: Phase1Config, input_hw: Optional[Sequence[int]] = None
) -> Tuple[Type[ProxyScorer], tuple]:
    """The proxy class ``config`` trains and its positional arguments.

    ``input_hw`` is required for the conv proxy (when
    ``config.use_feature_mdn`` is False).
    """
    if config.use_feature_mdn:
        return FeatureMDNProxy, ()
    if input_hw is None:
        raise ConfigurationError("input_hw required for the conv CMDN")
    return ConvMDNProxy, (input_hw,)


def train_proxy_grid(
    train_features: np.ndarray,
    train_scores: np.ndarray,
    holdout_features: np.ndarray,
    holdout_scores: np.ndarray,
    *,
    config: Phase1Config = Phase1Config(),
    input_hw: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> GridResult:
    """Train the ``(g, h)`` grid and keep the smallest-holdout-NLL model.

    The two samples come featurized — the rows ``featurize`` of
    :func:`proxy_family` makes of their pixels — because the caller
    (Phase 1) has a second use for the same rows.
    """
    _check_sample(train_features, train_scores)
    family, family_args = proxy_family(config, input_hw)

    histories: List[TrainingHistory] = []
    candidates: List[ProxyScorer] = []
    for i, (g, h) in enumerate(config.cmdn_grid):
        proxy: ProxyScorer = family(
            *family_args, num_gaussians=g, num_hypotheses=h,
            seed=seed + 31 * i)
        start = time.perf_counter()
        epoch_losses = _fit(
            proxy,
            train_features,
            train_scores,
            epochs=config.epochs,
            batch_size=TRAIN_BATCH_SIZE,
            learning_rate=LEARNING_RATE,
            seed=seed + 7 * i,
        )
        holdout_nll = mean_nll(
            proxy.network.predict(proxy.inputs(holdout_features)),
            holdout_scores)
        histories.append(TrainingHistory(
            hyperparameters=(g, h),
            epoch_losses=epoch_losses,
            holdout_nll=holdout_nll,
            wall_seconds=time.perf_counter() - start,
        ))
        candidates.append(proxy)

    return GridResult(
        proxy=candidates[_best_index(histories)],
        histories=histories,
        sample_epochs=len(config.cmdn_grid)
        * len(train_features) * config.epochs,
    )
