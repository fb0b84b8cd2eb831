"""The §3 engines need nothing but numpy, and never import scipy.

scipy is not a declared dependency, and importing ``scipy.signal``
costs every pool worker more than a second.  Each run happens in a
fresh interpreter: once with scipy blocked (``sys.modules["scipy"] =
None``, which forked pool workers inherit), once with nothing blocked.
Both must produce the same digests and logs, and the unblocked run
must end without scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from repro.study.cohort import FleetConfig
from repro.study.fleet import run_fleet
from repro.study.generator import PopulationConfig, generate_population

def logs_digest(logs):
    h = hashlib.sha256()
    for log in logs:
        h.update(repr((log.info, log.signals)).encode())
        for column in (log.timestamps, log.available_mb, log.state,
                       log.interactive, log.n_services):
            h.update(column.tobytes())
    return h.hexdigest()

out = {}
config = FleetConfig(n_devices=6, hours_scale=0.02, seed=5, cohort_size=3)
for jobs in (1, 2):
    fleet = run_fleet(config, jobs=jobs, keep_logs=True)
    out[f"fleet_jobs{jobs}"] = [
        fleet.summary.state_digest(), logs_digest(fleet.logs)
    ]
population = generate_population(
    PopulationConfig(n_users=2, hours_scale=0.02, seed=5)
)
out["population"] = logs_digest(population)
out["scipy_loaded"] = sys.modules.get("scipy") is not None
print(json.dumps(out))
"""


def _run(mode):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_study_runs_without_scipy_and_never_imports_it():
    blocked, free = _run("blocked"), _run("free")
    assert not free.pop("scipy_loaded")
    assert not blocked.pop("scipy_loaded")
    assert blocked == free
    assert free["fleet_jobs1"] == free["fleet_jobs2"]
