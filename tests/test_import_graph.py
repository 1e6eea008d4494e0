"""``import repro`` loads no SciPy beyond ``scipy.special``.

The import is paid by every process before it does any work, so what
it loads is a tested property: ``scripts/import_cost.py`` imports the
package in a fresh interpreter and fails if a public SciPy subpackage
other than ``special`` came with it (``scipy.stats`` and
``scipy.signal`` used to, for two functions, with nine more in tow).
Presence only — the script's timings are printed, never gated.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_repro_loads_only_scipy_special():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "import_cost.py")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "public scipy subpackages loaded: special\n" in done.stdout


def test_no_source_file_names_scipys_stats_or_signal_stacks():
    offenders = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src").rglob("*.py")
        if "scipy.stats" in path.read_text()
        or "scipy.signal" in path.read_text()
        or "from scipy import" in path.read_text()
    ]
    assert offenders == []
