"""Video reader with caching and priority prefetching (paper Section 3.5).

Decoding frames from disk is a real cost in Everest: the scan baseline
reads sequentially (easy to prefetch) whereas Phase 2's cleaning reads
in ψ-priority order. The paper prefetches batches of frames with the
highest ψ while the GPU computes. This reader reproduces the mechanism:

* every *cold* read charges decode latency to the cost model;
* :meth:`set_priority_order` declares the expected future access order;
* :meth:`prefetch` warms the cache along that order, so later reads are
  cache hits (charged once, at prefetch time — modelling overlap of
  decode with compute).

:meth:`read_batch` and :meth:`prefetch` render all their misses with one
``batch_pixels`` call, then account for them frame by frame exactly as
single reads would (same counters, same charge sequence). A frame cached
that way is held at the float32 precision batches are delivered in; one
cached by :meth:`read` is the float64 ``pixels(i)``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .synthetic import SyntheticVideo


class VideoReader:
    """LRU-cached random-access reader over a synthetic video."""

    def __init__(
        self,
        video: SyntheticVideo,
        *,
        cache_size: int = 4_096,
        cost_model: Optional[object] = None,
        decode_cost_key: str = "decode",
    ):
        if cache_size < 1:
            raise ConfigurationError("cache_size must be >= 1")
        self.video = video
        self.cache_size = cache_size
        self.cost_model = cost_model
        self.decode_cost_key = decode_cost_key
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._priority: list = []
        self._priority_pos = 0
        self.cold_reads = 0
        self.cache_hits = 0

    def __len__(self) -> int:
        return len(self.video)

    def _charge_decode(self, num_frames: int) -> None:
        if self.cost_model is not None:
            self.cost_model.charge(self.decode_cost_key, num_frames)

    def _insert(self, index: int, pixels: np.ndarray) -> None:
        self._cache[index] = pixels
        self._cache.move_to_end(index)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _render_uncached(
        self, candidates: Iterable[int], limit: int
    ) -> Dict[int, np.ndarray]:
        """One batch render of the first ``limit`` distinct frames of
        ``candidates`` that are not cached right now."""
        missing: Dict[int, None] = {}
        for index in candidates:
            if len(missing) == limit:
                break
            if index not in self._cache:
                missing[index] = None
        if not missing:
            return {}
        # Rows are copied so an evicted frame frees its memory instead
        # of living on inside the batch array.
        return {index: row.copy() for index, row in zip(
            missing, self.video.batch_pixels(list(missing)))}

    def _decode(self, index: int, rendered: Dict[int, np.ndarray]) \
            -> np.ndarray:
        """Account for one cold frame and cache it, taking its pixels
        from ``rendered`` when the batch render has them."""
        self.cold_reads += 1
        self._charge_decode(1)
        pixels = rendered.pop(index, None)
        if pixels is None:
            pixels = self.video.pixels(index)
        self._insert(index, pixels)
        return pixels

    def _read(self, index: int, rendered: Dict[int, np.ndarray]) \
            -> np.ndarray:
        if index in self._cache:
            self.cache_hits += 1
            self._cache.move_to_end(index)
            return self._cache[index]
        return self._decode(index, rendered)

    def read(self, index: int) -> np.ndarray:
        """Read one frame's pixels, charging decode cost on a miss."""
        return self._read(index, {})

    def read_batch(self, indices: Iterable[int]) -> np.ndarray:
        """Read several frames as an ``(N, H, W)`` float32 array."""
        indices = list(indices)
        if not indices:
            return np.zeros((0,) + self.video.resolution, dtype=np.float32)
        rendered = self._render_uncached(indices, len(indices))
        return np.stack(
            [self._read(i, rendered) for i in indices]).astype(np.float32)

    def set_priority_order(self, order: Sequence[int]) -> None:
        """Declare the expected future access order (descending ψ)."""
        self._priority = list(order)
        self._priority_pos = 0

    def prefetch(self, count: int) -> int:
        """Warm the cache with the next ``count`` priority frames.

        Returns the number of frames actually decoded. Mirrors the
        paper's overlap of decode with oracle compute: batches with the
        highest ψ are fetched ahead of the cleaning loop.
        """
        rendered = self._render_uncached(
            (self._priority[pos] for pos in range(
                self._priority_pos, len(self._priority))),
            count)
        fetched = 0
        while fetched < count and self._priority_pos < len(self._priority):
            index = self._priority[self._priority_pos]
            self._priority_pos += 1
            if index in self._cache:
                continue
            self._decode(index, rendered)
            fetched += 1
        return fetched

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cold_reads
        return self.cache_hits / total if total else 0.0
