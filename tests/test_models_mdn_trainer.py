"""Tests for the Gaussian mixture type, feature extractor, networks,
and the grid-search trainer."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.config import Phase1Config
from repro.core.uncertain import _ndtr
from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.models import (
    ConvMDNProxy,
    FeatureMDNProxy,
    FeatureScaler,
    GaussianMixture,
    NUM_FEATURES,
    build_conv_mdn,
    build_feature_mdn,
    extract_features,
    train_network,
    train_proxy_grid,
)


def single_gaussian(mu=0.0, sigma=1.0):
    return GaussianMixture(
        pi=np.array([[1.0]]),
        mu=np.array([[mu]]),
        sigma=np.array([[sigma]]),
    )


class TestGaussianMixture:
    def test_moments_single_component(self):
        mix = single_gaussian(2.0, 0.5)
        assert mix.mean()[0] == pytest.approx(2.0)
        assert mix.variance()[0] == pytest.approx(0.25)

    def test_moments_two_components(self):
        mix = GaussianMixture(
            pi=np.array([[0.5, 0.5]]),
            mu=np.array([[0.0, 2.0]]),
            sigma=np.array([[1.0, 1.0]]),
        )
        assert mix.mean()[0] == pytest.approx(1.0)
        # var = E[sigma^2] + E[mu^2] - mean^2 = 1 + 2 - 1 = 2
        assert mix.variance()[0] == pytest.approx(2.0)

    def test_cdf_matches_scipy(self):
        """A mixture's CDF through the relation's in-house ``ndtr``."""
        mix = single_gaussian(1.0, 2.0)
        for x in (-1.0, 1.0, 3.0):
            cdf = np.sum(mix.pi * _ndtr((x - mix.mu) / mix.sigma), axis=-1)
            assert cdf[0] == norm.cdf(x, 1.0, 2.0)

    def test_pdf_integrates_to_one(self):
        mix = GaussianMixture(
            pi=np.array([[0.3, 0.7]]),
            mu=np.array([[-1.0, 2.0]]),
            sigma=np.array([[0.5, 1.5]]),
        )
        xs = np.linspace(-10, 12, 4_000)
        pdf = np.array([mix.pdf(np.array([x]))[0] for x in xs])
        assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-3)

    def test_log_likelihood(self):
        mix = single_gaussian(0.0, 1.0)
        ll = mix.log_likelihood(np.array([0.0]))[0]
        assert ll == pytest.approx(norm.logpdf(0.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            GaussianMixture(
                pi=np.ones((2, 3)), mu=np.ones((2, 2)), sigma=np.ones((2, 3)))

    def test_select(self):
        mix = GaussianMixture(
            pi=np.ones((4, 2)) / 2,
            mu=np.arange(8.0).reshape(4, 2),
            sigma=np.ones((4, 2)),
        )
        row = mix.select(2)
        assert row.mu.tolist() == [4.0, 5.0]


class TestFeatures:
    def test_feature_count(self, traffic_video):
        features = extract_features(traffic_video.pixels(0))
        assert features.shape == (1, NUM_FEATURES)

    def test_batch_features(self, traffic_video):
        features = extract_features(traffic_video.batch_pixels([0, 1, 2]))
        assert features.shape == (3, NUM_FEATURES)

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            extract_features(np.zeros(10))

    def test_scaler_standardizes(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, size=(200, 5))
        scaled = FeatureScaler().fit_transform(data)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_requires_fit(self):
        with pytest.raises(ShapeError):
            FeatureScaler().transform(np.zeros((1, 3)))

    def test_constant_feature_safe(self):
        data = np.ones((10, 2))
        scaled = FeatureScaler().fit_transform(data)
        assert np.all(np.isfinite(scaled))


class TestNetworks:
    def test_feature_mdn_learns_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, NUM_FEATURES))
        y = 2.0 * x[:, 0] + 0.5

        proxy = FeatureMDNProxy(num_gaussians=2, num_hypotheses=16, seed=1)
        # Bypass pixel featurization: train the raw network directly.
        network = proxy.network
        network.fit_target_scaling(y)
        from repro.models import Adam
        optimizer = Adam(3e-3)
        for _ in range(150):
            batch = rng.choice(400, 64, replace=False)
            network.train_step(x[batch], y[batch], optimizer)
        mix = network.predict(x)
        corr = np.corrcoef(mix.mean(), y)[0, 1]
        assert corr > 0.9

    def test_predict_before_fit_raises(self):
        network = build_feature_mdn(num_gaussians=2, num_hypotheses=8)
        with pytest.raises(NotFittedError):
            network.predict(np.zeros((1, NUM_FEATURES)))

    def test_conv_builder_rejects_too_deep(self):
        with pytest.raises(ConfigurationError):
            build_conv_mdn((8, 8), num_gaussians=2, num_hypotheses=8,
                           num_conv_layers=4)

    def test_conv_proxy_prepares_channel_axis(self, traffic_video):
        proxy = ConvMDNProxy(
            (24, 24), num_gaussians=2, num_hypotheses=8, num_conv_layers=2)
        inputs = proxy.prepare_inputs(traffic_video.batch_pixels([0, 1]))
        assert inputs.shape == (2, 1, 24, 24)

    def test_feature_proxy_requires_scaler(self, traffic_video):
        proxy = FeatureMDNProxy(num_gaussians=2, num_hypotheses=8)
        with pytest.raises(NotFittedError):
            proxy.prepare_inputs(traffic_video.batch_pixels([0]))

    def test_num_parameters_positive(self):
        network = build_feature_mdn(num_gaussians=3, num_hypotheses=8)
        assert network.num_parameters() > 0


class TestTrainer:
    def test_grid_selects_smallest_nll(self, traffic_video):
        rng = np.random.default_rng(1)
        tr = rng.choice(len(traffic_video), 200, replace=False)
        ho = rng.choice(len(traffic_video), 60, replace=False)
        featurize = FeatureMDNProxy.featurize
        result = train_proxy_grid(
            featurize(traffic_video.batch_pixels(tr)),
            traffic_video.counts[tr],
            featurize(traffic_video.batch_pixels(ho)),
            traffic_video.counts[ho],
            config=Phase1Config(
                cmdn_grid=((2, 8), (4, 16)), epochs=15),
        )
        assert len(result.histories) == 2
        best = result.best_history
        assert best.holdout_nll == min(
            h.holdout_nll for h in result.histories)
        assert result.proxy.hyperparameters == best.hyperparameters

    def test_training_reduces_loss(self, traffic_video):
        rng = np.random.default_rng(2)
        idx = rng.choice(len(traffic_video), 200, replace=False)
        proxy = FeatureMDNProxy(num_gaussians=3, num_hypotheses=16, seed=0)
        losses = train_network(
            proxy,
            traffic_video.batch_pixels(idx),
            traffic_video.counts[idx],
            epochs=20, batch_size=32, learning_rate=2e-3,
        )
        assert losses[-1] < losses[0]

    def test_proxy_is_calibrated(self, trained_proxy, traffic_video):
        """Predicted sigma should match the residual scale (within 3x)."""
        idx = np.arange(0, len(traffic_video), 3)
        mix = trained_proxy.predict_mixtures(
            traffic_video.batch_pixels(idx))
        residual_std = float(np.std(
            mix.mean() - traffic_video.counts[idx]))
        mean_sigma = float(np.mean(np.sqrt(mix.variance())))
        assert mean_sigma < 3 * residual_std + 1.0
        assert residual_std < 3 * mean_sigma + 1.0

    def test_proxy_correlates_with_truth(self, trained_proxy, traffic_video):
        idx = np.arange(0, len(traffic_video), 3)
        mix = trained_proxy.predict_mixtures(
            traffic_video.batch_pixels(idx))
        corr = np.corrcoef(mix.mean(), traffic_video.counts[idx])[0, 1]
        assert corr > 0.6

    def test_empty_training_rejected(self):
        proxy = FeatureMDNProxy(num_gaussians=2, num_hypotheses=8)
        with pytest.raises(ConfigurationError):
            train_network(
                proxy, np.zeros((0, 24, 24)), np.zeros(0),
                epochs=1, batch_size=8, learning_rate=1e-3)

    def test_conv_grid_smoke(self, traffic_video):
        rng = np.random.default_rng(3)
        tr = rng.choice(len(traffic_video), 60, replace=False)
        ho = rng.choice(len(traffic_video), 30, replace=False)
        featurize = ConvMDNProxy.featurize
        result = train_proxy_grid(
            featurize(traffic_video.batch_pixels(tr)),
            traffic_video.counts[tr],
            featurize(traffic_video.batch_pixels(ho)),
            traffic_video.counts[ho],
            config=Phase1Config(
                cmdn_grid=((2, 8),), epochs=2, use_feature_mdn=False),
            input_hw=traffic_video.resolution,
        )
        assert np.isfinite(result.best_history.holdout_nll)
