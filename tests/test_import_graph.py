"""``import repro`` loads no SciPy, and neither does a query.

The import is paid by every process before it does any work, so what
it loads is a tested property: ``scripts/import_cost.py`` imports the
package in a fresh interpreter and fails if any public SciPy
subpackage came with it (``scipy.stats`` and ``scipy.signal`` used to,
for two functions, with nine more in tow; ``scipy.special`` did for
``ndtr``, now ported in house). A lazy import would only move the cost
into the first query, so a fresh interpreter also runs a cold query
and checks that no ``scipy`` module of any depth was loaded. Presence
only — the script's timings are printed, never gated.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_COLD_QUERY = """
import sys
import repro
from repro import EverestConfig, Session
from repro.oracle import counting_udf
from repro.video import TrafficVideo
session = Session(TrafficVideo("no-scipy", 700, seed=5),
                  counting_udf("car"), config=EverestConfig.fast())
session.query().topk(5).guarantee(0.9).run()
session.query().topk(3).guarantee(0.9).windows(size=30).run()
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_import_repro_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "import_cost.py")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "public scipy subpackages loaded: none\n" in done.stdout


def test_a_cold_query_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", _COLD_QUERY],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_no_source_file_names_scipys_stats_or_signal_stacks():
    offenders = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src").rglob("*.py")
        if "scipy.stats" in path.read_text()
        or "scipy.signal" in path.read_text()
        or "from scipy import" in path.read_text()
    ]
    assert offenders == []


def test_only_the_offline_guarantee_audit_names_scipy():
    audit = ROOT / "src" / "repro" / "experiments" / "guarantee_audit.py"
    offenders = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if path != audit and "scipy" in path.read_text()
    ]
    assert offenders == []
