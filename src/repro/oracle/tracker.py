"""IoU-based object tracker (paper Section 2, video relation model).

To recognize identical objects across frames so they share an
``objectID``, the paper invokes a tracker that takes polygons from two
consecutive frames and decides whether they represent the same object.
This module implements the standard greedy IoU matcher used by such
trackers: detections in frame ``t`` are matched to tracks alive at
``t-1`` in descending IoU order; unmatched detections open new tracks;
tracks unmatched for ``max_age`` frames are closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..video.frame import BoundingBox


@dataclass
class Track:
    """One tracked object: its id and the boxes it matched per frame."""

    object_id: int
    boxes: Dict[int, BoundingBox] = field(default_factory=dict)
    last_frame: int = -1

    @property
    def length(self) -> int:
        return len(self.boxes)


class IoUTracker:
    """Greedy IoU matcher assigning stable object ids across frames."""

    def __init__(self, *, iou_threshold: float = 0.3, max_age: int = 3):
        if not 0.0 < iou_threshold <= 1.0:
            raise ConfigurationError("iou_threshold must be in (0, 1]")
        if max_age < 0:
            raise ConfigurationError("max_age must be >= 0")
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self._next_id = 0
        self._active: List[Track] = []
        self.tracks: List[Track] = []

    def reset(self) -> None:
        self._next_id = 0
        self._active = []
        self.tracks = []

    def update(
        self, frame_index: int, detections: Sequence[BoundingBox]
    ) -> List[Tuple[int, BoundingBox]]:
        """Advance the tracker by one frame; returns (id, box) pairs."""
        # Expire stale tracks first.
        self._active = [
            t for t in self._active
            if frame_index - t.last_frame <= self.max_age
        ]

        # All candidate (iou, track_pos, det_pos) pairs above threshold,
        # greedily matched in descending IoU order.
        candidates = []
        for ti, track in enumerate(self._active):
            last_box = track.boxes[track.last_frame]
            for di, det in enumerate(detections):
                if det.label != last_box.label:
                    continue
                iou = last_box.iou(det)
                if iou >= self.iou_threshold:
                    candidates.append((iou, ti, di))
        candidates.sort(reverse=True)

        matched_tracks = set()
        matched_dets = set()
        assignments: List[Tuple[int, BoundingBox]] = []
        for iou, ti, di in candidates:
            if ti in matched_tracks or di in matched_dets:
                continue
            matched_tracks.add(ti)
            matched_dets.add(di)
            track = self._active[ti]
            track.boxes[frame_index] = detections[di]
            track.last_frame = frame_index
            assignments.append((track.object_id, detections[di]))

        for di, det in enumerate(detections):
            if di in matched_dets:
                continue
            track = Track(object_id=self._next_id)
            self._next_id += 1
            track.boxes[frame_index] = det
            track.last_frame = frame_index
            self._active.append(track)
            self.tracks.append(track)
            assignments.append((track.object_id, det))

        assignments.sort(key=lambda pair: pair[0])
        return assignments
