"""REP120 bad fixture: a wall-clock reading lands in canonical_digest()."""

import time

from repro.storage import canonical_digest


def run_identity(config: dict) -> str:
    return canonical_digest({"config": config, "started": time.time()})
