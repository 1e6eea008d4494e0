"""Tests for configuration validation and the error hierarchy."""

import pytest

import repro
from repro import Session, errors
from repro import models
from repro.config import (
    MAX_TRAIN_SAMPLES,
    DiffDetectorConfig,
    EverestConfig,
    PAPER_CMDN_GRID,
    Phase1Config,
    Phase2Config,
)
from repro.core.select_candidate import (
    RESORT_EVERY,
    RESORT_WARMUP,
    CandidateSelector,
)
from repro.core.uncertain import TRUNCATE_SIGMAS
from repro.core.windows import WINDOW_SAMPLE_FRACTION, WindowCleaner
from repro.gateway.http import GatewayServer
from repro.gateway.metrics import GatewayMetrics, LatencySummary
from repro.models import Adam, Conv2D
from repro.models.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
from repro.models.trainer import LEARNING_RATE, TRAIN_BATCH_SIZE
from repro.trace import JsonlTraceLog, Tracer


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        leaves = [
            errors.ConfigurationError,
            errors.VideoError,
            errors.FrameIndexError,
            errors.ModelError,
            errors.NotFittedError,
            errors.ShapeError,
            errors.OracleError,
            errors.OracleBudgetExceededError,
            errors.UncertainRelationError,
            errors.QueryError,
            errors.GuaranteeUnreachableError,
        ]
        for leaf in leaves:
            assert issubclass(leaf, errors.ReproError)

    def test_frame_index_error_is_index_error(self):
        error = errors.FrameIndexError(10, 5)
        assert isinstance(error, IndexError)
        assert error.index == 10 and error.num_frames == 5

    def test_budget_error_carries_budget(self):
        error = errors.OracleBudgetExceededError(17)
        assert error.budget == 17
        assert "17" in str(error)


class TestPhase1Config:
    def test_paper_grid_has_twelve_models(self):
        assert len(PAPER_CMDN_GRID) == 12
        assert (5, 20) in PAPER_CMDN_GRID
        assert (15, 40) in PAPER_CMDN_GRID

    def test_train_sample_size_formula(self):
        config = Phase1Config(
            sample_fraction=0.005, min_train_samples=500)
        # Cap binds for very long videos.
        assert config.train_sample_size(10_000_000) == 30_000
        # Floor binds for short videos.
        assert config.train_sample_size(20_000) == 500
        # Proportional in between.
        assert config.train_sample_size(1_000_000) == 5_000
        # Never exceeds the video.
        assert config.train_sample_size(100) == 100

    def test_holdout_capped_by_video_length(self):
        config = Phase1Config(holdout_samples=300)
        assert config.holdout_sample_size(90) == 30
        assert config.holdout_sample_size(100_000) == 300

    def test_validation(self):
        with pytest.raises(errors.ConfigurationError):
            Phase1Config(sample_fraction=0.0)
        with pytest.raises(errors.ConfigurationError):
            Phase1Config(cmdn_grid=())
        with pytest.raises(errors.ConfigurationError):
            Phase1Config(epochs=0)

    @pytest.mark.parametrize("make, keyword", [
        (Phase1Config, "max_train_samples"),
        (Phase1Config, "batch_size"),
        (Phase1Config, "learning_rate"),
        (Phase1Config, "quantization_step"),
        (Phase1Config, "truncate_sigmas"),
        (Phase2Config, "window_sample_fraction"),
        (lambda **kw: Session(None, None, **kw), "streaming"),
        (Tracer, "jsonl_max_bytes"),
        (Tracer, "jsonl_backups"),
        (GatewayMetrics, "max_latency_samples"),
        (lambda **kw: GatewayServer(None, **kw), "handler_threads"),
        (Phase2Config, "select_candidate"),
        (Phase2Config, "use_upper_bound"),
        (Phase2Config, "resort_every"),
        (Phase2Config, "resort_warmup"),
        (lambda **kw: CandidateSelector(None, None, **kw), "config"),
        (lambda **kw: WindowCleaner(None, None, 30, **kw),
         "sample_fraction"),
        (lambda **kw: Adam(1e-3, **kw), "beta1"),
        (lambda **kw: Adam(1e-3, **kw), "beta2"),
        (lambda **kw: Adam(1e-3, **kw), "epsilon"),
        (lambda **kw: Adam(1e-3, **kw), "momentum"),
        (lambda **kw: Conv2D(1, 1, **kw), "stride"),
        (lambda **kw: Conv2D(1, 1, **kw), "pad"),
        (LatencySummary, "max_samples"),
        (lambda **kw: JsonlTraceLog("unused.jsonl", **kw), "max_bytes"),
        (lambda **kw: JsonlTraceLog("unused.jsonl", **kw), "backups"),
    ])
    def test_removed_setting_is_refused(self, make, keyword):
        """The settable values that only ever held one value are
        constants now, and drift auditing's and the live session's
        history bound are gone with it: naming one is a
        construction-time TypeError."""
        with pytest.raises(TypeError, match=keyword):
            make(**{keyword: 1})


class TestOtherConfigs:
    def test_diff_validation(self):
        with pytest.raises(errors.ConfigurationError):
            DiffDetectorConfig(mse_threshold=-1.0)
        with pytest.raises(errors.ConfigurationError):
            DiffDetectorConfig(clip_size=0)

    def test_phase2_validation(self):
        with pytest.raises(errors.ConfigurationError):
            Phase2Config(batch_size=0)
        with pytest.raises(errors.ConfigurationError):
            Phase2Config(oracle_budget=0)

    def test_select_candidate_validation(self):
        """Select-candidate has no settings left to validate: one
        early-stopped scan on the paper's re-sort schedule."""
        assert (RESORT_EVERY, RESORT_WARMUP) == (10, 100)
        assert not hasattr(repro, "SelectCandidateConfig")

    def test_adam_is_the_one_optimizer(self):
        assert not hasattr(models, "SGD")
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    def test_fast_preset_is_valid(self):
        config = EverestConfig.fast()
        assert config.phase1.epochs >= 1
        assert config.phase2.batch_size >= 1

    def test_paper_defaults(self):
        config = EverestConfig()
        assert config.phase2.batch_size == 8  # paper Section 3.5
        assert config.diff.clip_size == 30    # paper Section 4
        assert config.diff.mse_threshold == 1e-4
        assert WINDOW_SAMPLE_FRACTION == 0.1
        assert TRUNCATE_SIGMAS == 3.0
        assert MAX_TRAIN_SAMPLES == 30_000  # paper Section 3.5
        assert (TRAIN_BATCH_SIZE, LEARNING_RATE) == (64, 2e-3)
