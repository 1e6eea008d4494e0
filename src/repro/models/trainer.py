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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from ..config import Phase1Config
from ..errors import ConfigurationError
from .cmdn import ConvMDNProxy, FeatureMDNProxy, ProxyScorer, mean_nll
from .mdn import QUIET
from .network import NetworkGrid
from .optim import Adam

#: Mini-batch size of every proxy fit.
TRAIN_BATCH_SIZE = 64
#: Adam learning rate of every proxy fit.
LEARNING_RATE = 2e-3


@dataclass
class TrainingHistory:
    """Loss trace of one candidate model."""

    hyperparameters: Tuple[int, int]
    epoch_losses: List[float] = field(default_factory=list)
    holdout_nll: float = float("inf")


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
    (losses,) = _fit(
        [proxy], proxy.featurize(train_pixels), train_scores, epochs=epochs,
        batch_size=batch_size, learning_rate=learning_rate, seeds=[seed])
    return losses


def _fit(
    proxies: Sequence[ProxyScorer],
    train_features: np.ndarray,
    train_scores: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seeds: Sequence[int],
) -> List[List[float]]:
    """:func:`train_network` of each proxy on already featurized frames,
    all in one minibatch loop (a :class:`NetworkGrid`).

    Each proxy keeps its own input scaling, target scaling and minibatch
    order (``default_rng`` of its seed), so its minibatches are the ones
    it would see alone; the proxies share the step count and one Adam.
    """
    networks = [proxy.network for proxy in proxies]
    inputs, targets = [], []
    for proxy, network in zip(proxies, networks):
        inputs.append(proxy.fit_inputs(train_features))
        network.fit_target_scaling(train_scores)
        targets.append(network.scale_targets(train_scores))
    grid = NetworkGrid(networks)
    optimizer = Adam(learning_rate)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    num_samples = len(train_features)

    losses: List[List[float]] = [[] for _ in proxies]
    with np.errstate(**QUIET):
        for _ in range(epochs):
            orders = [rng.permutation(num_samples) for rng in rngs]
            steps = []
            for start in range(0, num_samples, batch_size):
                batches = [order[start:start + batch_size]
                           for order in orders]
                steps.append(grid.train_step_scaled(
                    [x.take(batch, 0) for x, batch in zip(inputs, batches)],
                    [y[batch] for y, batch in zip(targets, batches)],
                    optimizer))
            for history, epoch_losses in zip(losses, zip(*steps)):
                history.append(float(np.mean(epoch_losses)))
    grid.release()
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

    candidates: List[ProxyScorer] = [
        family(*family_args, num_gaussians=g, num_hypotheses=h,
               seed=seed + 31 * i)
        for i, (g, h) in enumerate(config.cmdn_grid)]
    all_losses = _fit(
        candidates,
        train_features,
        train_scores,
        epochs=config.epochs,
        batch_size=TRAIN_BATCH_SIZE,
        learning_rate=LEARNING_RATE,
        seeds=[seed + 7 * i for i in range(len(candidates))],
    )
    histories = [
        TrainingHistory(
            hyperparameters=proxy.hyperparameters,
            epoch_losses=epoch_losses,
            holdout_nll=mean_nll(
                proxy.network.predict(proxy.inputs(holdout_features)),
                holdout_scores),
        )
        for proxy, epoch_losses in zip(candidates, all_losses)]

    return GridResult(
        proxy=candidates[_best_index(histories)],
        histories=histories,
        sample_epochs=len(config.cmdn_grid)
        * len(train_features) * config.epochs,
    )
