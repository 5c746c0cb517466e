"""The paper's headline claims over the full colocation matrix.

Runs ``scripts/check_claims.py`` (24 apps x 3 services x {pliant,
precise} x seeds 1-5, serial, uncached) as a subprocess and requires it
to exit 0.  The claims and their bounds live in that script only; this
test just makes them part of the tier-1 suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_check_claims_script_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_claims.py")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
