"""Cheap hand-crafted frame features for the fast MDN proxy.

The paper's CMDN consumes raw 128x128 pixels through five conv layers.
That is faithful but expensive in pure numpy, so the library also
offers ``FeatureMDN``: the same mixture-density head on top of a cheap,
fixed feature extractor. Both satisfy Phase 1's contract (frame ->
calibrated score distribution); the conv variant is available for
paper-faithful runs, the feature variant for large sweeps.

Features per frame (``NUM_FEATURES`` total):

* global statistics: mean, std, max, 90th percentile;
* foreground mass: sum of pixels above the median (objects are bright
  blobs on a dark background, so this tracks object count / size);
* a ``GRID x GRID`` grid of block means (coarse spatial layout);
* horizontal + vertical gradient energy (edges / texture).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

#: Side length of the coarse spatial grid.
GRID = 3

#: Total number of features produced per frame.
NUM_FEATURES = 4 + 1 + GRID * GRID + 2


#: Rows featurized per pass: the float64 temporaries of one chunk stay
#: cache-sized. Rows are independent, so chunking cannot move a byte.
_FEATURE_CHUNK = 128


def extract_features(pixels: np.ndarray) -> np.ndarray:
    """Extract features from frames.

    Parameters
    ----------
    pixels:
        Either one frame ``(H, W)`` or a batch ``(N, H, W)``.

    Returns
    -------
    ``(N, NUM_FEATURES)`` float64 array (``N=1`` for a single frame).
    """
    arr = np.asarray(pixels)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ShapeError(f"expected (H, W) or (N, H, W), got {arr.shape}")
    features = np.empty((arr.shape[0], NUM_FEATURES))
    for lo in range(0, arr.shape[0], _FEATURE_CHUNK):
        features[lo:lo + _FEATURE_CHUNK] = _chunk_features(
            arr[lo:lo + _FEATURE_CHUNK].astype(np.float64, copy=False))
    return features


def _chunk_features(arr: np.ndarray) -> np.ndarray:
    """The feature rows of one ``(n, H, W)`` float64 chunk.

    Std, foreground and both gradients are computed into one
    ``(n, H * W)`` temporary, reused: a fresh array this size pays in
    page faults about what the arithmetic on it costs. Each is summed
    along its rows as NumPy's ``std`` / ``mean`` sum them.
    """
    n, h, w = arr.shape
    m = h * w
    flat = arr.reshape(n, -1)
    scratch = np.empty_like(flat)
    mean = flat.mean(axis=1)
    # ``flat.std(axis=1)``: NumPy's own steps, in place.
    np.subtract(flat, mean[:, None], out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    std = np.sqrt(scratch.sum(axis=1) / m)

    # One sort supplies every order statistic, byte-equal to ``np.max``,
    # ``np.median`` and ``np.percentile(..., 90)`` (DESIGN.md §3): the
    # median is the mean of the middle one or two, the percentile
    # NumPy's two-sided linear interpolation at index ``0.9 (m - 1)``.
    ordered = np.sort(flat, axis=1)
    peak = ordered[:, -1]
    median = (ordered[:, (m - 1) // 2] + ordered[:, m // 2]) / 2.0
    virtual = (m - 1) * (90 / 100)
    below = int(virtual)
    t = virtual - below
    lower, upper = ordered[:, below], ordered[:, min(below + 1, m - 1)]
    p90 = upper - (upper - lower) * (1 - t) if t >= 0.5 \
        else lower + (upper - lower) * t
    # A NaN sorts last and poisons both statistics, as in NumPy.
    poisoned = np.isnan(peak)
    median[poisoned] = p90[poisoned] = np.nan
    np.subtract(flat, median[:, None], out=scratch)
    foreground = np.maximum(scratch, 0.0, out=scratch).sum(axis=1) / m

    # Coarse spatial grid of block means.
    gh, gw = h // GRID, w // GRID
    trimmed = arr[:, : gh * GRID, : gw * GRID]
    blocks = trimmed.reshape(n, GRID, gh, GRID, gw).mean(axis=(2, 4))
    grid = blocks.reshape(n, GRID * GRID)

    grad_x = _mean_abs_step(arr[:, :, 1:], arr[:, :, :-1], scratch)
    grad_y = _mean_abs_step(arr[:, 1:], arr[:, :-1], scratch)

    return np.column_stack(
        [mean, std, peak, p90, foreground, grid, grad_x, grad_y])


def _mean_abs_step(after: np.ndarray, before: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """``np.abs(after - before).mean(axis=(1, 2))`` per frame, computed
    in the front of ``scratch``."""
    n = after.shape[0]
    step = scratch.reshape(-1)[:after.size].reshape(after.shape)
    np.subtract(after, before, out=step)
    np.abs(step, out=step)
    return step.reshape(n, -1).sum(axis=1) / (after.size // n)


class FeatureScaler:
    """Per-feature standardization fitted on the training sample."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.scale: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "FeatureScaler":
        self.mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale < 1e-9] = 1.0
        self.scale = scale
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean is None or self.scale is None:
            raise ShapeError("FeatureScaler used before fit")
        return (features - self.mean) / self.scale

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)
