"""The concatenation view behind the corpus layer (DESIGN.md §9).

:class:`ConcatVideo` exposes an ordered sequence of member videos as
one logical video whose frame ``g`` is member ``m``'s frame
``g - offset[m]`` (:func:`owners` states the rule). A corpus query is a
plain single-video query over it.

The view renders nothing itself and is not appendable; a growing
member is wrapped by :class:`~repro.video.streaming.StreamingVideo`
*before* it joins a corpus, and the view reads its length dynamically.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, FrameIndexError
from .frame import BoundingBox, Frame
from .synthetic import check_indices


def owners(offsets: np.ndarray, indices):
    """The member owning each global frame id: the last one whose start
    offset is ``<=`` it (``offsets`` ascending; no range check)."""
    return np.searchsorted(offsets, indices, side="right") - 1


class ConcatVideo:
    """Member videos exposed as one logical concatenation.

    Global frame ``g`` belongs to member ``owners(offsets, g)`` and maps
    to its local frame ``g - offset[m]``; reads delegate to the member,
    so a plain oracle over the concat view scores each member's own
    frames. The view reads member lengths on every access — a streaming
    member's appends are visible immediately.
    """

    def __init__(self, members: Sequence, *, name: str):
        if not members:
            raise ConfigurationError("ConcatVideo needs >= 1 member")
        self.members = list(members)
        self.name = name
        first = self.members[0]
        for member in self.members[1:]:
            if tuple(member.resolution) != tuple(first.resolution):
                raise ConfigurationError(
                    f"member {member.name!r} resolution "
                    f"{member.resolution} differs from "
                    f"{first.name!r} {first.resolution}")
        self.resolution = first.resolution
        self.fps = first.fps
        self.signal_key = getattr(first, "signal_key", "signal")

    # ------------------------------------------------------------------
    def offsets(self) -> np.ndarray:
        """Global id of each member's frame 0 (member order)."""
        lengths = [len(member) for member in self.members]
        return np.concatenate(([0], np.cumsum(lengths[:-1]))).astype(
            np.int64)

    def locate(self, index: int) -> Tuple[int, int]:
        """``(member_index, local_frame)`` owning global frame ``index``."""
        index = int(index)
        if index < 0 or index >= len(self):
            raise FrameIndexError(index, len(self))
        offsets = self.offsets()
        member = int(owners(offsets, index))
        return member, index - int(offsets[member])

    def __len__(self) -> int:
        return sum(len(member) for member in self.members)

    def pixels(self, index: int) -> np.ndarray:
        member, local = self.locate(index)
        return self.members[member].pixels(local)

    def by_member(self, indices: Iterable[int]):
        """The checked ``indices`` split by owner: their count, then
        ``(member index, request rows, local frames)`` per member
        touched, in member order."""
        indices = check_indices(indices, len(self))
        offsets = self.offsets()
        owner = owners(offsets, indices)
        groups = []
        for member in np.unique(owner).tolist():
            rows = np.flatnonzero(owner == member)
            groups.append((member, rows, indices[rows] - offsets[member]))
        return indices.size, groups

    def batch_pixels(self, indices: Iterable[int]) -> np.ndarray:
        """One ``batch_pixels`` call per member touched, scattered back
        into request order (duplicates and arbitrary order allowed)."""
        count, groups = self.by_member(indices)
        out = np.empty((count,) + tuple(self.resolution), dtype=np.float32)
        for member, rows, local in groups:
            out[rows] = self.members[member].batch_pixels(local)
        return out

    def frame(self, index: int) -> Frame:
        member, local = self.locate(index)
        return self.members[member].frame(local)

    def frames(self, indices: Iterable[int]) -> List[Frame]:
        """One ``frames`` call per member touched, put back into request
        order (duplicates and arbitrary order allowed); a subclass
        overriding :meth:`frame` still has it called once per index."""
        if type(self).frame is not ConcatVideo.frame:
            return [self.frame(i) for i in indices]
        count, groups = self.by_member(indices)
        out: List[Optional[Frame]] = [None] * count
        for member, rows, local in groups:
            for row, frame in zip(
                    rows.tolist(), self.members[member].frames(local)):
                out[row] = frame
        return out

    def __getitem__(self, index: int) -> Frame:
        return self.frame(index)

    def __iter__(self) -> Iterator[Frame]:
        for i in range(len(self)):
            yield self.frame(i)

    def objects(self, index: int) -> List[BoundingBox]:
        member, local = self.locate(index)
        return self.members[member].objects(local)

    def truth_array(self, key: Optional[str] = None) -> np.ndarray:
        return np.concatenate(
            [member.truth_array(key) for member in self.members])

    @property
    def duration_seconds(self) -> float:
        return sum(member.duration_seconds for member in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "+".join(member.name for member in self.members)
        return f"ConcatVideo({names}, {len(self)} frames)"
