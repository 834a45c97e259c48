import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# stdout of the command below, recorded before the elimination moved to
# packed rows; the survey's types and counts must not change with it
SURVEY_SHA256 = "c7cf58e4e2a77283271851bfca1cb9f2e82b443c1d0074e9877eed8754ce1197"


def test_splitting_survey_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "splitting_survey.py"),
         "--n", "2", "--d", "2", "--lines", "2", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == SURVEY_SHA256
