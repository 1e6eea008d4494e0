"""The seams perfbench wraps by name still exist (tier-1, <1 s).

``perfbench/tracing.py`` records its per-layer ledger from *outside* the
program: it monkeypatches functions and methods by name, at the class
or module that defines them. A renamed or re-homed seam would otherwise
only surface in the minutes-long ``perfbench`` CI job.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_seam_installs_and_restores():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    recorder = tracing.Recorder()
    try:
        tracing.install(recorder)
        assert recorder._patched
    finally:
        recorder.restore()
    assert not recorder._patched
