"""Deep-model substrate: a from-scratch numpy replacement for PyTorch.

Provides exactly what Everest's Phase 1 needs — convolutional /
feature-based mixture density networks, NLL training with Adam, a
hyperparameter grid, and holdout-NLL model selection — with no
external deep-learning dependency.
"""

from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from .mdn import GaussianMixture, MDNHead, SIGMA_FLOOR
from .network import MixtureDensityNetwork
from .optim import Adam
from .features import NUM_FEATURES, FeatureScaler, extract_features
from .cmdn import (
    ConvMDNProxy,
    FeatureMDNProxy,
    ProxyScorer,
    build_conv_mdn,
    build_feature_mdn,
)
from .trainer import (
    GridResult,
    TrainingHistory,
    train_network,
    train_proxy_grid,
)

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "GaussianMixture",
    "MDNHead",
    "SIGMA_FLOOR",
    "MixtureDensityNetwork",
    "Adam",
    "NUM_FEATURES",
    "FeatureScaler",
    "extract_features",
    "ProxyScorer",
    "ConvMDNProxy",
    "FeatureMDNProxy",
    "build_conv_mdn",
    "build_feature_mdn",
    "GridResult",
    "TrainingHistory",
    "train_network",
    "train_proxy_grid",
]
