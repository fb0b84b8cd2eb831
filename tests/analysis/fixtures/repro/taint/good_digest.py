"""REP120 good fixture: the wall clock times the run, but only the
config reaches canonical_digest()."""

import time

from repro.storage import canonical_digest


def run_identity(config: dict) -> tuple:
    started = time.perf_counter()
    digest = canonical_digest({"config": config})
    return digest, time.perf_counter() - started
