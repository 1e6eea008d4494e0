"""Top-K tumbling windows (paper Section 3.4).

The video is divided into consecutive non-overlapping windows of ``L``
frames; a window's score is the average of its frames' scores. The
difference detector partitions each window into segments of frames
sharing one retained representative, and the window score distribution
is approximated by a single Gaussian whose moments aggregate the
segments' mixture moments (paper Equation 9):

    S_w ~ N( (1/L) sum_t |s_t| mu-bar_{r_t},
             (1/L) sum_t |s_t| sigma-bar^2_{r_t} )

Quantizing these Gaussians yields a window-level uncertain relation
that is *directly compatible* with the Phase 2 algorithms: window ids
play the role of frame ids and cleaning a window means oracle-scoring a
sample of its frames (paper: 10%) and taking the sample mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..models.mdn import GaussianMixture
from ..oracle.base import Oracle
from ..video.diff import DiffResult
from ..video.synthetic import SyntheticVideo
from .uncertain import UncertainRelation, _read_only, build_relation

#: Default ratio between the frame-level step and the window-level step
#: (window means live on a finer scale than individual scores).
WINDOW_STEP_DIVISOR = 4.0

#: Fraction of a window's frames the oracle scores to confirm it (the
#: paper samples 10%).
WINDOW_SAMPLE_FRACTION = 0.1


def num_windows(num_frames: int, window_size: int) -> int:
    """Number of tumbling windows (a ragged last window is kept)."""
    if window_size < 1:
        raise ConfigurationError("window_size must be >= 1")
    return int(np.ceil(num_frames / window_size))


def window_bounds(
    window_id: int, window_size: int, num_frames: int
) -> Tuple[int, int]:
    """Frame range ``[start, end)`` of one window."""
    start = window_id * window_size
    return start, min(start + window_size, num_frames)


def window_truth(
    truth: np.ndarray, window_size: int
) -> np.ndarray:
    """Exact window scores (frame-score averages) for metrics."""
    n = truth.shape[0]
    count = num_windows(n, window_size)
    scores = np.empty(count)
    for w in range(count):
        start, end = window_bounds(w, window_size, n)
        scores[w] = float(np.mean(truth[start:end]))
    return scores


def build_window_relation(
    mixtures: GaussianMixture,
    retained_ids: np.ndarray,
    diff_result: DiffResult,
    *,
    window_size: int,
    floor: float,
    step: float,
) -> UncertainRelation:
    """Aggregate frame mixtures into the window uncertain relation."""
    if retained_ids.size != mixtures.pi.shape[0]:
        raise ConfigurationError(
            "mixtures must align with the retained frame ids")
    n = diff_result.num_frames
    count = num_windows(n, window_size)

    row_of: Dict[int, int] = {
        int(f): i for i, f in enumerate(retained_ids)}
    frame_mean = mixtures.mean()
    frame_var = mixtures.variance()
    representative = diff_result.representative

    means = np.zeros(count)
    variances = np.zeros(count)
    for w in range(count):
        start, end = window_bounds(w, window_size, n)
        reps = representative[start:end]
        # Segment lengths within this window, per representative run.
        change = np.flatnonzero(np.diff(reps)) + 1
        run_starts = np.concatenate(([0], change))
        run_ends = np.concatenate((change, [reps.size]))
        length = end - start
        mean_acc = 0.0
        var_acc = 0.0
        for rs, re in zip(run_starts, run_ends):
            rep = int(reps[rs])
            row = row_of[rep]
            seg_len = int(re - rs)
            mean_acc += seg_len * frame_mean[row]
            var_acc += seg_len * frame_var[row]
        means[w] = mean_acc / length
        # Paper Eq. 9 uses 1/L on the variance aggregate as well.
        variances[w] = var_acc / length

    sigma = np.sqrt(np.maximum(variances, 1e-12))
    window_mixture = GaussianMixture(
        pi=np.ones((count, 1)),
        mu=means[:, None],
        sigma=sigma[:, None],
    )
    return build_relation(
        np.arange(count),
        window_mixture,
        floor=floor,
        step=step,
    )


def window_sample(
    seed: int, window_id: int, window_size: int, num_frames: int
) -> np.ndarray:
    """The frames (read-only) the oracle scores to confirm a window: a
    seeded :data:`WINDOW_SAMPLE_FRACTION` of them, at least one."""
    start, end = window_bounds(window_id, window_size, num_frames)
    length = end - start
    sample = max(1, int(np.ceil(WINDOW_SAMPLE_FRACTION * length)))
    rng = np.random.default_rng((seed, window_id))
    return _read_only(start + rng.choice(
        length, size=min(sample, length), replace=False))


@dataclass
class WindowCleaner:
    """Cleaning callback for windows: sampled oracle confirmation.

    Scoring a whole window would clean ``L`` frames; the paper samples
    :data:`WINDOW_SAMPLE_FRACTION` (10%) of them and uses the sample
    mean, trading a little precision jitter for proportionally less
    oracle work.

    A sample is drawn once into ``samples`` (window id -> frame ids),
    the cleaner's own dict unless the executor hands in its entry's
    (:meth:`~repro.core.phase1.Phase1Entry.window_samples`).
    """

    video: SyntheticVideo
    oracle: Oracle
    window_size: int
    seed: int = 0
    cost_model: Optional[object] = None
    samples: Dict[int, np.ndarray] = field(default_factory=dict)

    def frames_for(self, window_id: int) -> np.ndarray:
        frames = self.samples.get(window_id)
        if frames is None:
            frames = self.samples[window_id] = window_sample(
                self.seed, window_id, self.window_size, len(self.video))
        return frames

    def __call__(self, window_ids: Sequence[int]) -> np.ndarray:
        scores = np.empty(len(window_ids))
        for i, window_id in enumerate(window_ids):
            frames = self.frames_for(int(window_id))
            if self.cost_model is not None:
                self.cost_model.charge("decode", frames.size)
            frame_scores = self.oracle.score(self.video, frames)
            # np.mean's own arithmetic, without its Python wrapper.
            scores[i] = float(np.add.reduce(frame_scores)) / frame_scores.size
        return scores
