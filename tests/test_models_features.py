"""``extract_features`` bytes: one sort per chunk vs the frozen reference.

The library's extractor takes a frame's max, median and 90th percentile
from one ``np.sort`` over 128-row chunks (DESIGN.md §3);
``reference_features.py`` is the extractor it replaced — ``np.max`` /
``np.median`` / ``np.percentile`` over the whole batch. Equality is
``array_equal`` on every feature, never a tolerance: Phase 1's bytes
hang off these rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.models.features import (
    _FEATURE_CHUNK,
    NUM_FEATURES,
    extract_features,
)
from repro.video import TrafficVideo

import reference_features

#: Even and odd pixel counts; the percentile's virtual index
#: ``0.9 (m - 1)`` has fractional part .5, .2, .6, .2, .7 — both sides
#: of NumPy's two-sided interpolation.
RESOLUTIONS = [(24, 24), (23, 23), (5, 7), (3, 3), (16, 9)]

#: Around the chunk boundary, and several chunks plus a remainder.
BATCHES = [1, _FEATURE_CHUNK - 1, _FEATURE_CHUNK, _FEATURE_CHUNK + 1, 513]


def _frames(kind: str, batch: int, resolution, dtype, seed: int):
    rng = np.random.default_rng(seed)
    shape = (batch,) + tuple(resolution)
    if kind == "constant":
        pixels = np.broadcast_to(rng.random((batch, 1, 1)), shape)
    elif kind == "ties":
        pixels = rng.integers(0, 4, size=shape) / 3.0
    else:
        pixels = rng.random(shape)
    return np.ascontiguousarray(pixels, dtype=dtype)


def assert_same_features(pixels):
    features = extract_features(pixels)
    reference = reference_features.extract_features(pixels)
    assert features.dtype == reference.dtype == np.float64
    assert features.shape == reference.shape
    np.testing.assert_array_equal(features, reference)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "constant", "ties"]),
    batch=st.sampled_from(BATCHES),
    resolution=st.sampled_from(RESOLUTIONS),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_features_equal_the_reference(kind, batch, resolution, dtype, seed):
    assert_same_features(_frames(kind, batch, resolution, dtype, seed))


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_single_frame_equals_the_reference(resolution, dtype):
    frame = _frames("uniform", 1, resolution, dtype, seed=3)[0]
    assert frame.ndim == 2
    assert_same_features(frame)
    assert extract_features(frame).shape == (1, NUM_FEATURES)


@pytest.mark.parametrize("batch", BATCHES)
def test_rendered_frames_equal_the_reference(batch):
    video = TrafficVideo("features", 600, seed=12)
    assert_same_features(video.batch_pixels(np.arange(batch)))


def test_a_nan_pixel_poisons_the_order_statistics_as_in_numpy():
    pixels = _frames("uniform", 5, (5, 7), np.float64, seed=4)
    pixels[1, 0, 0] = pixels[3, 4, 6] = np.nan
    np.testing.assert_array_equal(
        extract_features(pixels),
        reference_features.extract_features(pixels))
    assert np.isnan(extract_features(pixels)[[1, 3]][:, :5]).all()


def test_an_empty_batch_has_no_rows():
    for dtype in (np.float32, np.float64):
        features = extract_features(np.zeros((0, 24, 24), dtype=dtype))
        assert features.shape == (0, NUM_FEATURES)
        assert features.dtype == np.float64


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4, 5), ()])
def test_wrong_ranks_are_still_refused(shape):
    with pytest.raises(ShapeError):
        extract_features(np.zeros(shape))
