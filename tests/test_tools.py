"""The comparison tools under ``tools/``."""
from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cpu_pairs_removes_its_checkout_when_terminated(tmp_path):
    # SIGTERM after the first timed round: the handler turns it into
    # SystemExit, so the temporary directory of the base tree is removed
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "cpu_pairs.py"), "--base", "HEAD",
         "--configs", "1", "--rounds", "1000"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.startswith("round "):
                break
        else:
            raise AssertionError(f"no round line; stderr: {proc.stderr.read()}")
        assert list(tmp_path.iterdir())  # the base tree is extracted there
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert not list(tmp_path.iterdir())
