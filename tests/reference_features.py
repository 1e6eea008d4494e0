"""Frozen feature extractor: the reference the one-sort one is pinned to.

This is ``repro.models.features.extract_features`` as it stood before
its order statistics came from a single ``np.sort`` over fixed row
chunks: ``np.max``, ``np.percentile`` and ``np.median`` each over the
whole batch, kept operation for operation (like ``reference_render.py``
for the renderer). ``tests/test_models_features.py`` pins the library's
extractor to it byte for byte.

Do not "optimise" this file: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

#: Side length of the coarse spatial grid.
GRID = 3

#: Total number of features produced per frame.
NUM_FEATURES = 4 + 1 + GRID * GRID + 2


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
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ShapeError(f"expected (H, W) or (N, H, W), got {arr.shape}")
    n, h, w = arr.shape

    flat = arr.reshape(n, -1)
    mean = flat.mean(axis=1)
    std = flat.std(axis=1)
    peak = flat.max(axis=1)
    p90 = np.percentile(flat, 90, axis=1)
    median = np.median(flat, axis=1)
    foreground = np.maximum(flat - median[:, None], 0.0).sum(axis=1) / (h * w)

    # Coarse spatial grid of block means.
    gh, gw = h // GRID, w // GRID
    trimmed = arr[:, : gh * GRID, : gw * GRID]
    blocks = trimmed.reshape(n, GRID, gh, GRID, gw).mean(axis=(2, 4))
    grid = blocks.reshape(n, GRID * GRID)

    grad_x = np.abs(np.diff(arr, axis=2)).mean(axis=(1, 2))
    grad_y = np.abs(np.diff(arr, axis=1)).mean(axis=(1, 2))

    return np.column_stack(
        [mean, std, peak, p90, foreground, grid, grad_x, grad_y])
