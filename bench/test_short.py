"""The benchmark's own test: its short mode runs one small round of every
workload, untraced and traced, with every output check.

    python3 -m pytest bench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_short_mode_is_correct():
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--short"],
                       cwd=os.path.dirname(HERE), capture_output=True, text=True,
                       timeout=600)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"], p.stderr
    assert result["attempted"] > 0
