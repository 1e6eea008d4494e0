"""Deterministic, seeded scene simulators standing in for real videos.

Everest's pipeline needs three things from a video (see DESIGN.md §1,
"Video substrate", for the full rationale):

1. pixels that are *predictive but noisy* evidence of the ground-truth
   score, so a learned proxy produces calibrated, imperfect
   distributions;
2. an expensive oracle signal per frame (object count, lead-vehicle
   distance, happiness);
3. temporal locality, so the difference detector and tumbling windows
   behave like they do on real footage.

Each simulator here renders small grayscale frames on demand (random
access, no decode order constraint) from a per-video latent process
generated eagerly at construction. All randomness derives from the
constructor ``seed``; rendering frame ``i`` twice yields identical
pixels.

Rendering is batched: a generator computes the noiseless scenes of a
whole index array at once (:meth:`SyntheticVideo._scenes`), and the
sensor noise of frame ``i`` always comes from its own stream
``default_rng((seed, i, 0x5EED))``. Every operation is elementwise per
frame and applied in one fixed order, so ``batch_pixels(ids)`` is
bit-identical to stacking ``pixels(i)`` for any batch composition —
``pixels(i)`` *is* the batch of one. ``tests/reference_render.py``
keeps the original one-frame-at-a-time renderer as the reference.

Those noise streams are not built one ``default_rng`` at a time, which
cost more than the draws: a render computes the PCG64 start states of
its whole block with ``SeedSequence``'s mixing vectorized over frames
and pool words (:func:`_noise_states`), and steps one Generator of its
own through them — its own, because renders run on several threads at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, FrameIndexError
from .frame import BoundingBox, Frame


def _ar1(eps: np.ndarray, coefficient: float) -> np.ndarray:
    """``y[n] = eps[n] + coefficient * y[n-1]``, starting from rest.

    Byte-equal to SciPy's ``lfilter([1], [1, -coefficient], eps)`` —
    one multiply, then one add, per sample — which is the test oracle
    now (``tests/test_models_bytes.py``): importing SciPy's signal
    stack cost every process 0.1 s for this loop, run once or twice
    per video at construction (0.2 ms per 3 000 samples).
    """
    out = []
    y = 0.0
    for x in eps.tolist():
        y = x + coefficient * y
        out.append(y)
    return np.array(out, dtype=np.float64)


class ObjectCountProcess:
    """Integer object-count process with diurnal bursts.

    The latent intensity is a sum of a base level and Gaussian "rush
    hour" bumps; an AR(1) perturbation adds local variability. Counts
    are the rounded, clipped intensity. The result has strong temporal
    autocorrelation and a heavy right tail — peak frames are rare, which
    is exactly the regime where Top-K beats a full scan.
    """

    def __init__(
        self,
        num_frames: int,
        *,
        base_level: float = 1.0,
        num_bursts: int = 4,
        burst_amplitude: float = 6.0,
        burst_width_fraction: float = 0.02,
        ar_coefficient: float = 0.995,
        noise_scale: float = 0.15,
        max_objects: int = 12,
        seed: int = 0,
    ):
        if num_frames < 1:
            raise ConfigurationError("num_frames must be >= 1")
        if not 0.0 <= ar_coefficient < 1.0:
            raise ConfigurationError("ar_coefficient must be in [0, 1)")
        if max_objects < 1:
            raise ConfigurationError("max_objects must be >= 1")
        self.num_frames = num_frames
        self.max_objects = max_objects
        rng = np.random.default_rng(seed)

        t = np.arange(num_frames, dtype=np.float64)
        intensity = np.full(num_frames, base_level, dtype=np.float64)
        width = max(2.0, burst_width_fraction * num_frames)
        for _ in range(num_bursts):
            center = rng.uniform(0.05, 0.95) * num_frames
            amplitude = burst_amplitude * rng.uniform(0.5, 1.0)
            intensity += amplitude * np.exp(-0.5 * ((t - center) / width) ** 2)

        eps = rng.normal(0.0, noise_scale, size=num_frames)
        perturbation = _ar1(eps, ar_coefficient)

        counts = np.rint(intensity + perturbation)
        self.counts = np.clip(counts, 0, max_objects).astype(np.int64)

    def __len__(self) -> int:
        return self.num_frames

    def __getitem__(self, index: int) -> int:
        return int(self.counts[index])


def check_indices(indices: Iterable[int], num_frames: int) -> np.ndarray:
    """``indices`` as an int64 array (order and duplicates kept),
    raising :class:`FrameIndexError` on the first one out of range."""
    if not isinstance(indices, np.ndarray):
        indices = list(indices)
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    bad = (indices < 0) | (indices >= num_frames)
    if bad.any():
        raise FrameIndexError(int(indices[bad][0]), num_frames)
    return indices


# ----------------------------------------------------------------------
# Sensor noise. Frame ``i`` of a video seeded ``seed`` draws its noise
# from ``default_rng((seed, i, 0x5EED))``. Building that Generator costs
# more than drawing the frame's noise, so the start states of a whole
# block are computed at once: NumPy's ``SeedSequence`` (its algorithm is
# kept stable by NEP 19) restated over uint32 arrays, one row per frame
# and one column per pool word, then PCG64's seeding step.

_NOISE_KEY = 0x5EED
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: ``SeedSequence``'s pool size, in 32-bit words.
_POOL_WORDS = 4
#: ``SeedSequence``'s hash and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``count`` terms of ``c <- c * mult mod 2**32`` from ``init``: the
    constant each successive hash call uses."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


#: Entropy hashing: call ``k`` xors with ``_HASH_A[k]`` and multiplies
#: by ``_HASH_A[k + 1]``. Calls 0-3 fill the pool, 4-15 mix it, and
#: each entropy word past the pool takes four more (precomputed for
#: entropy of up to 32 words; longer seeds extend it per call).
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * 32 + 1)
#: ``generate_state``'s hashing, likewise, for the 8 words of PCG64's
#: 128-bit seed and increment.
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 9)


def _mixing_round(src: int):
    """Xor and multiply rows of the round in which pool word ``src`` is
    hashed into each other word (in word order). Word ``src`` gets a
    zero multiplier; :func:`_pcg64_states` keeps that word as it was."""
    xor = np.zeros(_POOL_WORDS, dtype=np.uint32)
    mult = np.zeros_like(xor)
    call = _POOL_WORDS + (_POOL_WORDS - 1) * src
    for dst in range(_POOL_WORDS):
        if dst != src:
            xor[dst], mult[dst] = _HASH_A[call], _HASH_A[call + 1]
            call += 1
    return xor, mult


_MIXING_ROUNDS = [_mixing_round(src) for src in range(_POOL_WORDS)]


def _hashmix(value, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix``, its hash constants given."""
    value = value ^ xor
    value *= mult
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix``; overwrites ``y``."""
    y *= _MIX_R
    out = _MIX_L * x
    out -= y
    out ^= out >> _SHIFT
    return out


def _uint32_words(value: int) -> List[int]:
    """A non-negative int as ``SeedSequence`` reads it: little-endian
    32-bit words, at least one."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg64_states(entropy: list, count: int) -> List[dict]:
    """``PCG64(SeedSequence(words)).state`` for ``count`` word lists at
    once: ``entropy`` lists the words in order, each an int shared by
    every list or a ``(count,)`` array. Row ``r`` of the pool is list
    ``r``'s, column ``j`` its word ``j``."""
    consts = _HASH_A
    if consts.size < 4 * len(entropy) + 1:
        consts = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
    pool = np.zeros((count, _POOL_WORDS), dtype=np.uint32)
    for column, word in enumerate(entropy[:_POOL_WORDS]):
        pool[:, column] = word
    pool = _hashmix(pool, consts[:4], consts[1:5])
    for src, (xor, mult) in enumerate(_MIXING_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[:, src, None], xor, mult))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for extra, word in enumerate(entropy[_POOL_WORDS:]):
        call = 4 * (_POOL_WORDS + extra)
        word = np.asarray(word, dtype=np.uint32).reshape(-1, 1)
        pool = _mix(pool, _hashmix(
            word, consts[call:call + 4], consts[call + 1:call + 5]))
    state = _hashmix(
        np.concatenate((pool, pool), axis=1), _HASH_B[:8], _HASH_B[1:])
    # Four little-endian uint64 per list: seed high, low; inc high, low.
    words = state.astype("<u4", copy=False)
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in words.view("<u8").tolist():
        # PCG64's seeding: inc = 2 * initseq + 1, then two LCG steps.
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
        start = ((((seed_hi << 64) | seed_lo) + inc) * _PCG64_MULT
                 + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": start, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def _noise_states(seed: int, indices: np.ndarray) -> List[dict]:
    """``default_rng((seed, i, 0x5EED)).bit_generator.state`` for each
    ``i`` of ``indices`` (non-negative int64), in order."""
    seed_words = _uint32_words(seed)
    if indices.max(initial=0) < 1 << 32:
        return _pcg64_states(
            [*seed_words, indices, _NOISE_KEY], indices.size)
    # An index from 2**32 on is two entropy words: mix each width apart.
    states: List[dict] = [{}] * indices.size
    high = indices >> 32
    wide = high != 0
    for rows, index_words in (
            (~wide, [indices]), (wide, [indices & _MASK32, high])):
        rows = np.flatnonzero(rows)
        entropy = [*seed_words, *(w[rows] for w in index_words), _NOISE_KEY]
        for row, state in zip(
                rows.tolist(), _pcg64_states(entropy, rows.size)):
            states[row] = state
    return states


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """Zero seed words: a PCG64 whose state is set before every draw
    need not pay for ``SeedSequence``'s mixing when it is built."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


#: Frames rendered per pass of :meth:`SyntheticVideo.batch_pixels`;
#: sized so a block's float64 temporaries (0.6 MB each at 24x24) stay
#: cache-resident, whatever the size of the batch.
_RENDER_BLOCK = 128


class SyntheticVideo:
    """Base class: a fixed-length, randomly accessible synthetic video.

    Subclasses implement :meth:`_scenes` (latent state -> noiseless
    pixels, a batch at a time) and :meth:`_signal` (the per-frame
    latent array an oracle's score is read from), and name that scalar
    in :attr:`signal_key`.
    """

    #: Name of the primary ground-truth signal (e.g. ``"count"``).
    signal_key: str = "signal"

    def __init__(
        self,
        name: str,
        num_frames: int,
        *,
        resolution: Tuple[int, int] = (24, 24),
        fps: float = 30.0,
        noise_level: float = 0.004,
        seed: int = 0,
    ):
        if num_frames < 1:
            raise ConfigurationError("num_frames must be >= 1")
        if resolution[0] < 4 or resolution[1] < 4:
            raise ConfigurationError("resolution must be at least 4x4")
        if fps <= 0:
            raise ConfigurationError("fps must be positive")
        # Checked before any label is bought: a NaN level would surface
        # as an invalid pmf after training, a negative one at the first
        # render, and an infinite one would saturate every pixel.
        if not (math.isfinite(noise_level) and noise_level >= 0):
            raise ConfigurationError(
                f"noise_level must be finite and >= 0, got {noise_level!r}")
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed!r}")
        self.name = name
        self.num_frames = num_frames
        self.resolution = (int(resolution[0]), int(resolution[1]))
        self.fps = float(fps)
        self.noise_level = float(noise_level)
        self.seed = int(seed)
        height, width = self.resolution
        # Static background with a gentle gradient; shared by all frames.
        yy, xx = np.mgrid[0:height, 0:width]
        self._background = (
            0.15 + 0.05 * (yy / max(height - 1, 1))
        ).astype(np.float64)
        self._grid = (yy.astype(np.float64), xx.astype(np.float64))

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def _scenes(self, indices: np.ndarray) -> np.ndarray:
        """Noiseless scenes of ``indices`` as ``(N, H, W)`` float64.

        Must be elementwise per frame (frame ``i``'s scene may not
        depend on which other frames share the batch) and return a
        fresh array the caller may overwrite.
        """
        raise NotImplementedError

    def _signal(self) -> np.ndarray:
        """The per-frame latent array behind :attr:`signal_key`."""
        raise NotImplementedError

    def _objects(self, indices: np.ndarray) -> List[List[BoundingBox]]:
        """Ground-truth boxes of each frame of ``indices``; default
        none. Elementwise per frame, like :meth:`_scenes`."""
        return [[] for _ in range(indices.size)]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_frames

    def __iter__(self) -> Iterator[Frame]:
        for i in range(self.num_frames):
            yield self.frame(i)

    def _check_index(self, index: int) -> int:
        index = int(index)
        if index < 0 or index >= self.num_frames:
            raise FrameIndexError(index, self.num_frames)
        return index

    def _render(self, indices: np.ndarray) -> np.ndarray:
        """Scenes plus per-frame sensor noise, clipped to ``[0, 1]``."""
        frames = self._scenes(indices)
        shape = frames.shape[1:]
        # This call's own Generator (renders run on several threads at
        # once), moved to each frame's start state in turn.
        noise = np.random.Generator(np.random.PCG64(_Unseeded()))
        for frame, state in zip(frames, _noise_states(self.seed, indices)):
            noise.bit_generator.state = state
            frame += noise.normal(0.0, self.noise_level, shape)
        return np.clip(frames, 0.0, 1.0, out=frames)

    def pixels(self, index: int) -> np.ndarray:
        """Render frame ``index`` as a ``(H, W)`` float array in [0, 1]."""
        return self._render(np.array([self._check_index(index)]))[0]

    def batch_pixels(self, indices: Iterable[int]) -> np.ndarray:
        """Render several frames into an ``(N, H, W)`` float32 array.

        Row ``r`` holds exactly ``pixels(indices[r])`` (duplicates and
        arbitrary order allowed), rounded to float32.
        """
        indices = check_indices(indices, self.num_frames)
        out = np.empty((indices.size,) + self.resolution, dtype=np.float32)
        for start in range(0, indices.size, _RENDER_BLOCK):
            block = slice(start, start + _RENDER_BLOCK)
            out[block] = self._render(indices[block])
        return out

    def _frames(self, indices: np.ndarray) -> List[Frame]:
        """Frames (lazy pixels + ground truth) of checked ``indices``."""
        signal = self._signal()[indices].astype(np.float64)
        return [
            Frame(
                index=index,
                video=self,
                timestamp=index / self.fps,
                truth={self.signal_key: value},
                objects=boxes,
            )
            for index, value, boxes in zip(
                indices.tolist(), signal.tolist(), self._objects(indices))
        ]

    def frame(self, index: int) -> Frame:
        """Return the full :class:`Frame` (lazy pixels + ground truth)."""
        return self._frames(np.array([self._check_index(index)]))[0]

    def frames(self, indices: Iterable[int]) -> List[Frame]:
        """``[self.frame(i) for i in indices]``, field for field
        (duplicates and arbitrary order allowed), with the per-frame
        ground truth computed for the whole batch at once.

        A subclass that overrides :meth:`frame` — a view delegating to
        its source, a test's fault seam — still has it called once per
        index: only the base implementation is ever batched.
        """
        if type(self).frame is not SyntheticVideo.frame:
            return [self.frame(i) for i in indices]
        return self._frames(check_indices(indices, self.num_frames))

    def __getitem__(self, index: int) -> Frame:
        return self.frame(index)

    def objects(self, index: int) -> List[BoundingBox]:
        """Ground-truth boxes for frame ``index`` without rendering it."""
        return self._objects(np.array([self._check_index(index)]))[0]

    def truth_array(self, key: Optional[str] = None) -> np.ndarray:
        """Ground-truth signal for every frame as one array.

        Intended for oracles and for metric computation only; the query
        pipeline must access ground truth through an oracle so that the
        cost model charges for it.
        """
        if key is not None and key != self.signal_key:
            raise KeyError(key)
        return np.array(self._signal(), dtype=np.float64)

    @property
    def duration_seconds(self) -> float:
        return self.num_frames / self.fps


def _radius2(grid, cx, cy) -> np.ndarray:
    """Squared distance of every pixel from the centre ``(cx, cy)``.

    Scalar centres give ``(H, W)``; centres shaped ``(N, 1, 1)`` give
    one plane per centre, ``(N, H, W)``. The squares are taken on one
    row of ``xx`` and one column of ``yy`` (the grid is separable) and
    only their sum is full-size.
    """
    yy, xx = grid
    return (xx[:1, :] - cx) ** 2 + (yy[:, :1] - cy) ** 2


def _blobs(radius2: np.ndarray, sigma, amplitude) -> np.ndarray:
    """Gaussian intensity blobs of width ``sigma`` over ``radius2``."""
    blobs = -radius2 / (2.0 * sigma * sigma)
    np.exp(blobs, out=blobs)
    blobs *= amplitude
    return blobs


@dataclass(frozen=True)
class _Slots:
    """Trajectory and contrast parameters of one object population.

    Objects drift across the scene on low-frequency Lissajous paths,
    giving smooth inter-frame motion (essential for the difference
    detector). Slot ``j`` of the population is visible in frame ``t``
    iff ``j < counts[t]``.
    """

    counts: np.ndarray
    label: str
    speed_x: np.ndarray
    speed_y: np.ndarray
    phase_x: np.ndarray
    phase_y: np.ndarray
    amplitude: np.ndarray
    contrast: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, counts: np.ndarray,
             label: str, num_slots: int, fps: float) -> "_Slots":
        return cls(
            counts=counts,
            label=label,
            speed_x=rng.uniform(0.02, 0.12, num_slots) / fps,
            speed_y=rng.uniform(0.02, 0.12, num_slots) / fps,
            phase_x=rng.uniform(0.0, 2 * np.pi, num_slots),
            phase_y=rng.uniform(0.0, 2 * np.pi, num_slots),
            amplitude=rng.uniform(0.55, 0.85, num_slots),
            contrast=rng.uniform(0.30, 0.70, num_slots),
        )

    def centres(self, indices: np.ndarray, width: int, height: int):
        """``(cx, cy)``, each ``(N, slots)``: every slot's centre at
        every frame of ``indices``."""
        t = indices.astype(np.float64)[:, None]
        cx = width * 0.5 * (
            1.0
            + self.amplitude
            * np.sin(2 * np.pi * self.speed_x * t + self.phase_x)
        )
        cy = height * 0.5 * (
            1.0
            + self.amplitude
            * np.sin(2 * np.pi * self.speed_y * t + self.phase_y)
        )
        return cx, cy


class TrafficVideo(SyntheticVideo):
    """A fixed-camera street scene whose score is the object count.

    ``max_objects`` slots carry smoothly moving objects; slot ``j`` is
    visible in frame ``t`` iff ``j < counts[t]``, so the visible count
    follows :class:`ObjectCountProcess` while motion stays continuous.

    Real 1080p footage confounds learned proxies far more than clean
    blobs would, so three realism confounders are on by default:

    * slow global *illumination drift* (time of day, clouds) whose
      brightness contribution rivals an object's;
    * *distractor* objects of a different class that are rendered but
      never counted (pedestrians in a car-counting query);
    * per-object *contrast variation* (some objects are faint).

    They make pixel evidence genuinely ambiguous — the regime in which
    the paper's comparisons between Everest and proxy-only baselines
    were run.
    """

    signal_key = "count"

    def __init__(
        self,
        name: str = "traffic",
        num_frames: int = 3_000,
        *,
        object_label: str = "car",
        resolution: Tuple[int, int] = (24, 24),
        fps: float = 30.0,
        noise_level: float = 0.004,
        seed: int = 0,
        count_process: Optional[ObjectCountProcess] = None,
        illumination_amplitude: float = 0.10,
        distractor_mean: float = 1.5,
        **count_kwargs,
    ):
        super().__init__(
            name,
            num_frames,
            resolution=resolution,
            fps=fps,
            noise_level=noise_level,
            seed=seed,
        )
        self.object_label = object_label
        if count_process is None:
            count_process = ObjectCountProcess(
                num_frames, seed=seed ^ 0xC0FFEE, **count_kwargs
            )
        if len(count_process) != num_frames:
            raise ConfigurationError(
                "count_process length must equal num_frames")
        self.count_process = count_process
        self.counts = count_process.counts

        rng = np.random.default_rng((seed, 0xB10B))
        height, width = self.resolution
        #: Rendered populations, in accumulation order: the counted
        #: objects, then (optionally) the distractors.
        self._populations = [_Slots.draw(
            rng, self.counts, object_label, count_process.max_objects, fps)]
        self._sigma = max(1.2, min(height, width) / 14.0)

        # Illumination drift: slow sinusoid plus an OU wobble.
        drift_period = max(600.0, num_frames / 4.0)
        t = np.arange(num_frames, dtype=np.float64)
        drift_phase = rng.uniform(0.0, 2 * np.pi)
        self._illumination = illumination_amplitude * (
            np.sin(2 * np.pi * t / drift_period + drift_phase)
            + 0.5 * _ou_process(
                num_frames, mean=0.0, reversion=0.01,
                volatility=0.02, seed=seed ^ 0x111)
        )

        # Distractors: a second object population never counted.
        if distractor_mean > 0:
            distractors = ObjectCountProcess(
                num_frames,
                base_level=distractor_mean,
                burst_amplitude=2.0 * distractor_mean,
                num_bursts=3,
                max_objects=max(2, int(np.ceil(3 * distractor_mean))),
                seed=seed ^ 0xD157,
            )
            self.distractor_counts = distractors.counts
            self._populations.append(_Slots.draw(
                np.random.default_rng((seed, 0xD157)),
                self.distractor_counts,
                "person" if object_label != "person" else "car",
                distractors.max_objects, fps))
        else:
            self.distractor_counts = np.zeros(num_frames, dtype=np.int64)

    def _scenes(self, indices: np.ndarray) -> np.ndarray:
        height, width = self.resolution
        scenes = self._background \
            + self._illumination[indices][:, None, None]
        for slots in self._populations:
            active = slots.counts[indices]
            cx, cy = slots.centres(indices, width, height)
            # Slot by slot, so every frame accumulates its blobs in slot
            # order — float addition is not associative, and this order
            # is what the pixels are pinned to.
            for j in range(int(active.max(initial=0))):
                rows = np.flatnonzero(active > j)
                centre = (rows, j, None, None)
                scenes[rows] += _blobs(
                    _radius2(self._grid, cx[centre], cy[centre]),
                    self._sigma, slots.contrast[j])
        return scenes

    def _signal(self) -> np.ndarray:
        return self.counts

    def _objects(self, indices: np.ndarray) -> List[List[BoundingBox]]:
        height, width = self.resolution
        radius = 2.0 * self._sigma
        side = repeat(float(2 * radius))
        boxes: List[List[BoundingBox]] = [[] for _ in range(indices.size)]
        for slots in self._populations:
            active = slots.counts[indices]
            # Only slots some frame of the batch shows are boxed.
            top = int(active.max(initial=0))
            if top == 0:
                continue
            cx, cy = slots.centres(indices, width, height)
            label = repeat(slots.label)
            for frame_boxes, xs, ys, count in zip(
                    boxes, (cx[:, :top] - radius).tolist(),
                    (cy[:, :top] - radius).tolist(), active.tolist()):
                frame_boxes.extend(map(
                    BoundingBox, xs[:count], ys[:count], side, side, label))
        return boxes

    def true_count(self, index: int) -> int:
        return int(self.counts[self._check_index(index)])


def _ou_process(
    num_frames: int,
    *,
    mean: float,
    reversion: float,
    volatility: float,
    seed: int,
) -> np.ndarray:
    """Ornstein-Uhlenbeck path sampled once per frame."""
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, volatility, num_frames)
    return mean + _ar1(eps, 1.0 - reversion)


class DashcamVideo(SyntheticVideo):
    """A dashcam scene scored by distance to the lead vehicle.

    The lead-vehicle distance follows a mean-reverting process with
    occasional close-approach episodes (tailgating). The rendered
    vehicle blob grows as distance shrinks, so pixels predict distance.
    """

    signal_key = "distance"

    def __init__(
        self,
        name: str = "dashcam",
        num_frames: int = 3_000,
        *,
        resolution: Tuple[int, int] = (24, 24),
        fps: float = 30.0,
        noise_level: float = 0.004,
        mean_distance: float = 30.0,
        min_distance: float = 2.0,
        max_distance: float = 60.0,
        num_episodes: int = 5,
        seed: int = 0,
    ):
        super().__init__(
            name,
            num_frames,
            resolution=resolution,
            fps=fps,
            noise_level=noise_level,
            seed=seed,
        )
        if not min_distance < mean_distance < max_distance:
            raise ConfigurationError(
                "require min_distance < mean_distance < max_distance")
        base = _ou_process(
            num_frames,
            mean=mean_distance,
            reversion=0.005,
            volatility=0.35,
            seed=seed ^ 0xD15,
        )
        # Close-approach episodes: smooth negative bumps toward the
        # minimum distance, the "dangerous tailgating moments".
        rng = np.random.default_rng((seed, 0xE915))
        t = np.arange(num_frames, dtype=np.float64)
        width = max(3.0, 0.01 * num_frames)
        for _ in range(num_episodes):
            center = rng.uniform(0.05, 0.95) * num_frames
            depth = rng.uniform(0.6, 1.0) * (mean_distance - min_distance)
            base -= depth * np.exp(-0.5 * ((t - center) / width) ** 2)
        # High-frequency jitter (road vibration, estimator noise): real
        # per-frame depth estimates are not silky smooth, and this
        # frame-level texture is what makes a frame-granular Top-K
        # well-posed.
        jitter = _ou_process(
            num_frames, mean=0.0, reversion=0.5, volatility=0.35,
            seed=seed ^ 0x7177)
        self.distances = np.clip(
            base + jitter, min_distance, max_distance)
        self.min_distance = min_distance
        self.max_distance = max_distance
        height, width_px = self.resolution
        # Squared distance of every pixel from the vehicle's centre.
        self._vehicle_r2 = _radius2(
            self._grid, width_px / 2.0, height * 0.6)
        # Scrolling road/scenery texture: dashcam footage is never
        # static, so consecutive frames genuinely differ and the
        # difference detector keeps per-frame resolution.
        self._scroll_speed = 0.8  # pixels per frame
        self._texture_period = max(4.0, height / 4.0)

    def _scenes(self, indices: np.ndarray) -> np.ndarray:
        yy, _ = self._grid
        t = indices.astype(np.float64)[:, None, None]
        phase = 2 * np.pi * (
            yy + self._scroll_speed * t) / self._texture_period
        scenes = self._background + 0.05 * np.sin(phase)
        # Apparent size scales inversely with distance.
        sigma = np.maximum(0.8, 18.0 / self.distances[indices]) \
            * min(self.resolution) / 24.0
        scenes += _blobs(self._vehicle_r2, sigma[:, None, None], 0.7)
        return scenes

    def _signal(self) -> np.ndarray:
        return self.distances

    def true_distance(self, index: int) -> float:
        return float(self.distances[self._check_index(index)])


class SentimentVideo(SyntheticVideo):
    """A vlog-like video scored by per-frame happiness in ``[0, 1]``.

    Happiness is a logistic-squashed OU path; rendering maps happiness
    to overall brightness plus a fixed "face" pattern whose intensity
    tracks the signal, so pixels predict the score.
    """

    signal_key = "happiness"

    def __init__(
        self,
        name: str = "vlog",
        num_frames: int = 3_000,
        *,
        resolution: Tuple[int, int] = (24, 24),
        fps: float = 30.0,
        noise_level: float = 0.004,
        seed: int = 0,
    ):
        super().__init__(
            name,
            num_frames,
            resolution=resolution,
            fps=fps,
            noise_level=noise_level,
            seed=seed,
        )
        latent = _ou_process(
            num_frames,
            mean=0.0,
            reversion=0.004,
            volatility=0.08,
            seed=seed ^ 0x5E17,
        )
        self.happiness = 1.0 / (1.0 + np.exp(-latent))
        height, width = self.resolution
        self._pattern = _blobs(
            _radius2(self._grid, width * 0.5, height * 0.4),
            max(1.5, min(height, width) / 8.0), 1.0,
        )

    def _scenes(self, indices: np.ndarray) -> np.ndarray:
        h = self.happiness[indices][:, None, None]
        return self._background + 0.25 * h + 0.4 * h * self._pattern

    def _signal(self) -> np.ndarray:
        return self.happiness

    def true_happiness(self, index: int) -> float:
        return float(self.happiness[self._check_index(index)])
