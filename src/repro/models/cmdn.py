"""CMDN builders and the proxy-scorer interface used by Phase 1.

Two interchangeable proxies implement the contract "frame pixels ->
Gaussian-mixture score distribution":

* :class:`ConvMDNProxy` — the paper's convolutional mixture density
  network (Figure 2): a conv/max-pool stack whose i-th layer has
  ``2**(i+3)`` 3x3 filters followed by 2x2 pooling, then an MDN layer
  with ``h`` hidden units ("hypotheses") emitting ``g`` Gaussians.
  Depth is configurable; the paper uses five conv layers on 128x128
  inputs, our default is three on small synthetic frames (the paper
  itself notes fewer layers changes little once decode dominates).
* :class:`FeatureMDNProxy` — the same MDN head on cheap hand-crafted
  features (:mod:`repro.models.features`), used for large sweeps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, NotFittedError
from .features import NUM_FEATURES, FeatureScaler, extract_features
from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from .mdn import GaussianMixture, MDNHead
from .network import MixtureDensityNetwork


def build_conv_mdn(
    input_hw: Sequence[int],
    *,
    num_gaussians: int,
    num_hypotheses: int,
    num_conv_layers: int = 3,
    seed: int = 0,
) -> MixtureDensityNetwork:
    """Build the paper's CMDN (Figure 2) for ``(H, W)`` grayscale input.

    Layer ``i`` (0-based) has ``2**(i+3)`` filters of 3x3 kernel
    followed by 2x2 max-pooling — 16, 32, 64, 128, 256 filters in the
    paper's five-layer configuration.
    """
    height, width = int(input_hw[0]), int(input_hw[1])
    layers: List[Layer] = []
    channels = 1
    h, w = height, width
    for i in range(num_conv_layers):
        out_channels = 2 ** (i + 4)  # 16, 32, 64, ...
        if h < 2 or w < 2:
            raise ConfigurationError(
                f"input {height}x{width} too small for "
                f"{num_conv_layers} conv/pool layers")
        layers.append(Conv2D(channels, out_channels, 3, seed=seed + i))
        layers.append(ReLU())
        layers.append(MaxPool2D(2))
        channels = out_channels
        h, w = h // 2, w // 2
    layers.append(Flatten())
    flat = channels * h * w
    layers.append(Dense(flat, num_hypotheses, seed=seed + 100))
    layers.append(ReLU())
    head = MDNHead(num_hypotheses, num_gaussians, seed=seed + 200)
    return MixtureDensityNetwork(layers, head)


def build_feature_mdn(
    *,
    num_gaussians: int,
    num_hypotheses: int,
    num_features: int = NUM_FEATURES,
    seed: int = 0,
) -> MixtureDensityNetwork:
    """Dense MDN over hand-crafted features (fast proxy)."""
    layers: List[Layer] = [
        Dense(num_features, num_hypotheses, seed=seed),
        ReLU(),
        Dense(num_hypotheses, num_hypotheses, seed=seed + 1),
        ReLU(),
    ]
    head = MDNHead(num_hypotheses, num_gaussians, seed=seed + 2)
    return MixtureDensityNetwork(layers, head)


def mean_nll(mixtures: GaussianMixture, scores: np.ndarray) -> float:
    """Model-selection criterion (paper: smallest NLL wins)."""
    return float(-np.mean(mixtures.log_likelihood(np.asarray(scores))))


class ProxyScorer:
    """Interface: map frame pixels to score distributions.

    ``prepare_inputs`` is two steps: :meth:`featurize`, which depends
    only on the proxy *family* (every candidate of a grid computes the
    same array from the same pixels, so the trainer computes it once),
    and :meth:`inputs`, the candidate's own part. Inference splits at
    the same seam: ``predict_mixtures(pixels)`` is
    ``predict_features(featurize(pixels))``. ``featurize`` is
    row-independent (a row's features depend on that frame's pixels
    only, bit for bit), so its rows can be kept and reused frame by
    frame; the network half is bit-reproducible only per batch shape,
    so it always sees a whole batch
    (:class:`~repro.core.phase1.BlockInferenceCache`).
    """

    #: (num_gaussians, num_hypotheses) of this proxy.
    hyperparameters: tuple
    network: MixtureDensityNetwork

    @staticmethod
    def featurize(pixels: np.ndarray) -> np.ndarray:
        """The candidate-independent representation of ``(N, H, W)``
        pixels. Callers share the result: it must not be written to."""
        raise NotImplementedError

    def fit_inputs(self, features: np.ndarray) -> np.ndarray:
        """Network inputs of the *training* features, fitting whatever
        input scaling the proxy has on them first."""
        return self.inputs(features)

    def inputs(self, features: np.ndarray) -> np.ndarray:
        """Network inputs of featurized frames."""
        raise NotImplementedError

    def prepare_inputs(self, pixels: np.ndarray) -> np.ndarray:
        """Convert ``(N, H, W)`` pixels to network inputs."""
        return self.inputs(self.featurize(pixels))

    def predict_features(self, features: np.ndarray) -> GaussianMixture:
        """Score distributions (in score units) of featurized frames:
        the network half of :meth:`predict_mixtures`."""
        return self.network.predict(self.inputs(features))

    def predict_mixtures(self, pixels: np.ndarray) -> GaussianMixture:
        """Score distributions (in score units) for a pixel batch:
        ``predict_features(featurize(pixels))``, spelled in each family
        (perfbench's tracer wraps the classes' own attributes)."""
        raise NotImplementedError


class ConvMDNProxy(ProxyScorer):
    """Paper-faithful convolutional MDN proxy."""

    def __init__(
        self,
        input_hw: Sequence[int],
        *,
        num_gaussians: int,
        num_hypotheses: int,
        num_conv_layers: int = 3,
        seed: int = 0,
    ):
        self.network = build_conv_mdn(
            input_hw,
            num_gaussians=num_gaussians,
            num_hypotheses=num_hypotheses,
            num_conv_layers=num_conv_layers,
            seed=seed,
        )
        self.hyperparameters = (num_gaussians, num_hypotheses)

    @staticmethod
    def featurize(pixels: np.ndarray) -> np.ndarray:
        arr = np.asarray(pixels, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None]
        return arr[:, None, :, :]  # add channel axis

    def inputs(self, features: np.ndarray) -> np.ndarray:
        return features

    def predict_mixtures(self, pixels: np.ndarray) -> GaussianMixture:
        return self.predict_features(self.featurize(pixels))


class FeatureMDNProxy(ProxyScorer):
    """Fast feature-based MDN proxy."""

    def __init__(
        self,
        *,
        num_gaussians: int,
        num_hypotheses: int,
        seed: int = 0,
    ):
        self.network = build_feature_mdn(
            num_gaussians=num_gaussians,
            num_hypotheses=num_hypotheses,
            seed=seed,
        )
        self.scaler = FeatureScaler()
        self._scaler_fitted = False
        self.hyperparameters = (num_gaussians, num_hypotheses)

    featurize = staticmethod(extract_features)

    def fit_inputs(self, features: np.ndarray) -> np.ndarray:
        self.scaler.fit(features)
        self._scaler_fitted = True
        return self.inputs(features)

    def inputs(self, features: np.ndarray) -> np.ndarray:
        if not self._scaler_fitted:
            raise NotFittedError("FeatureMDNProxy scaler not fitted")
        return self.scaler.transform(features)

    def predict_mixtures(self, pixels: np.ndarray) -> GaussianMixture:
        return self.predict_features(self.featurize(pixels))
