"""Frozen scalar renderer: the reference the batched one is pinned to.

This is the per-frame ``_render``/``_blob`` arithmetic that lived in
``repro.video.synthetic`` before rendering was batched, kept operation
for operation (like ``repro.core.reference`` for the Top-K kernels) so
the render contract — ``batch_pixels(ids)`` is bit-identical to
stacking one ``pixels(i)`` at a time — is checked against an
independent implementation rather than against itself. It shares nothing with the
batched renderer but the video's random draws (latent signals, slot
trajectories, illumination): grid, background, blob and scene
arithmetic are all restated here.

Do not "optimise" this file: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.video import DashcamVideo, SentimentVideo, TrafficVideo


def _grid(video):
    height, width = video.resolution
    yy, xx = np.mgrid[0:height, 0:width]
    return yy.astype(np.float64), xx.astype(np.float64)


def _background(video):
    height, width = video.resolution
    yy, _ = np.mgrid[0:height, 0:width]
    return (0.15 + 0.05 * (yy / max(height - 1, 1))).astype(np.float64)


def _blob(grid, cx: float, cy: float, sigma: float, amplitude: float):
    """A Gaussian intensity blob centred at ``(cx, cy)``."""
    yy, xx = grid
    return amplitude * np.exp(
        -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma * sigma)
    )


def _positions(slots, index: int, active: int, width: int, height: int):
    j = np.arange(active)
    cx = width * 0.5 * (
        1.0
        + slots.amplitude[j]
        * np.sin(2 * np.pi * slots.speed_x[j] * index + slots.phase_x[j])
    )
    cy = height * 0.5 * (
        1.0
        + slots.amplitude[j]
        * np.sin(2 * np.pi * slots.speed_y[j] * index + slots.phase_y[j])
    )
    return np.stack([cx, cy], axis=1)


def _traffic_scene(video: TrafficVideo, index: int) -> np.ndarray:
    grid = _grid(video)
    height, width = video.resolution
    scene = _background(video) + video._illumination[index]
    for slots in video._populations:
        active = int(slots.counts[index])
        if active:
            positions = _positions(slots, index, active, width, height)
            for j, (cx, cy) in enumerate(positions):
                scene = scene + _blob(
                    grid, cx, cy, video._sigma, slots.contrast[j])
    return scene


def _dashcam_scene(video: DashcamVideo, index: int) -> np.ndarray:
    grid = _grid(video)
    height, width = video.resolution
    scene = _background(video).copy()
    yy, _ = grid
    scroll_speed = 0.8
    texture_period = max(4.0, height / 4.0)
    phase = 2 * np.pi * (yy + scroll_speed * index) / texture_period
    scene = scene + 0.05 * np.sin(phase)
    distance = float(video.distances[index])
    sigma = max(0.8, 18.0 / distance) * min(video.resolution) / 24.0
    scene = scene + _blob(grid, width / 2.0, height * 0.6, sigma, 0.7)
    return scene


def _sentiment_scene(video: SentimentVideo, index: int) -> np.ndarray:
    height, width = video.resolution
    pattern = _blob(
        _grid(video), width * 0.5, height * 0.4,
        max(1.5, min(height, width) / 8.0), 1.0,
    )
    h = float(video.happiness[index])
    return _background(video) + 0.25 * h + 0.4 * h * pattern


def reference_scene(video, index: int) -> np.ndarray:
    """The noiseless float64 scene of frame ``index``."""
    if isinstance(video, TrafficVideo):
        return _traffic_scene(video, index)
    if isinstance(video, DashcamVideo):
        return _dashcam_scene(video, index)
    if isinstance(video, SentimentVideo):
        return _sentiment_scene(video, index)
    raise TypeError(f"no reference renderer for {type(video).__name__}")


def reference_pixels(video, index: int) -> np.ndarray:
    """What ``video.pixels(index)`` returned before batching (float64)."""
    scene = reference_scene(video, index)
    noise_rng = np.random.default_rng((video.seed, index, 0x5EED))
    noisy = scene + noise_rng.normal(0.0, video.noise_level, scene.shape)
    return np.clip(noisy, 0.0, 1.0)


def reference_batch_pixels(video, indices) -> np.ndarray:
    """What ``video.batch_pixels(indices)`` returned before batching."""
    frames = [reference_pixels(video, int(i)) for i in indices]
    if not frames:
        height, width = video.resolution
        return np.zeros((0, height, width), dtype=np.float32)
    return np.stack(frames).astype(np.float32)
