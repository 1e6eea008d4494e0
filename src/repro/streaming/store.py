"""Persistent Phase-1 artifact store (DESIGN.md §7).

A checkpoint is a directory holding:

* ``state-<sha12>.pkl`` — the pickled session state: the Phase-1
  maintainer (the streaming video view — source, watermark, segments,
  window and horizon — the scoring function, configurations, trained
  CMDN weights, diff arrays, block inference cache, known scores,
  ledger replay inputs, the revealed-score cache and the fresh
  inference count) and the autosave path — nothing per delivered
  event;
* ``manifest.json`` — human-readable metadata naming the state file
  and carrying its SHA-256, the format version, and identity fields
  (video, UDF, watermark) for inspection without unpickling.

Crash-recovery contract: the state blob is fully written, fsynced and
renamed into place *before* the manifest is atomically swapped to
point at it. A crash at any instant therefore leaves a manifest that
references a complete, checksum-verified blob — either the previous
checkpoint or the new one, never a torn mix. Superseded blobs are
garbage-collected only after the manifest swap.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..errors import CheckpointError

#: Bump when the pickled state layout changes incompatibly — including
#: a class the pickle names moving or going away: the manifest check
#: runs before unpickling, so an old checkpoint is refused cleanly
#: instead of failing inside ``pickle``. (2: one Phase-1 maintainer and
#: block cache, in ``repro.core.phase1``. 3: one session class and one
#: live view — a version-2 ``StreamingVideo`` lacks the window fields.
#: 4: the live session keeps a plain ``Phase1Maintainer``, its history
#: bound beside it, and no drift or retrain state. 5: the maintainer
#: and the autosave path only — no history bound, event logs or
#: work-counter object. 6: the pickled ``EverestConfig``'s
#: ``Phase2Config`` holds no Select-candidate settings, and their
#: class is gone. 7: a warm-tier ``Phase1Entry`` is one record, with
#: no result object inside, and neither it nor a maintainer stores
#: what it derives (the proxy, the label count) or a clock reading (a
#: ``TrainingHistory`` has no wall time), so equal histories write
#: equal bytes.)
FORMAT_VERSION = 7

MANIFEST_NAME = "manifest.json"


def _fsync_directory(path: Path) -> None:
    try:  # pragma: no cover - platform dependent, best effort
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp-file + fsync + rename."""
    tmp = path.with_name(f".tmp-{path.name}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def write_checkpoint(
    path,
    state: Dict[str, Any],
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Persist ``state`` under the checkpoint directory ``path``.

    Returns the directory path. ``metadata`` entries are merged into
    the manifest (JSON-safe values only).
    """
    import repro

    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    # Sweep tmp files orphaned by a crash mid-write (the atomic rename
    # never happened, so they are garbage by construction).
    for orphan in directory.glob(".tmp-*"):
        try:
            orphan.unlink()
        except OSError:  # pragma: no cover - concurrent cleanup
            pass
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    state_name = f"state-{digest[:12]}.pkl"
    _atomic_write(directory / state_name, blob)

    manifest: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "state_file": state_name,
        "sha256": digest,
        "library_version": getattr(repro, "__version__", "unknown"),
    }
    manifest.update(metadata or {})
    _atomic_write(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    # GC superseded blobs only now: the manifest no longer names them.
    for stale in directory.glob("state-*.pkl"):
        if stale.name != state_name:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
    return directory


def read_checkpoint(path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load and verify a checkpoint; returns ``(state, manifest)``."""
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(
            f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"unreadable checkpoint manifest {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {version!r} unsupported "
            f"(this library writes {FORMAT_VERSION})")
    # The one name write_checkpoint gives a blob: anything else (a path
    # reaching outside the directory, say) is refused before it is read.
    state_name = manifest.get("state_file")
    if state_name != f"state-{str(manifest.get('sha256'))[:12]}.pkl":
        raise CheckpointError(
            f"checkpoint manifest names state file {state_name!r}, not "
            f"the one its checksum implies")
    state_path = directory / state_name
    if not state_path.is_file():
        raise CheckpointError(
            f"checkpoint state file missing: {state_path}")
    blob = state_path.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.get("sha256"):
        raise CheckpointError(
            f"checkpoint state {state_path.name} fails its checksum "
            f"(manifest {str(manifest.get('sha256'))[:12]}…, "
            f"file {digest[:12]}…)")
    try:
        state = pickle.loads(blob)
    except Exception as error:
        raise CheckpointError(
            f"checkpoint state {state_path.name} failed to unpickle: "
            f"{error}") from error
    return state, manifest
