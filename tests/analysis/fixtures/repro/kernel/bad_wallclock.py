"""REP101 fixture: wall-clock reads inside the simulation core."""

import datetime
import time
from time import perf_counter as pc

from repro.sim.rng import derive_seed


def stamp() -> float:
    return time.time()


def elapsed() -> float:
    return pc()


def today() -> str:
    return datetime.datetime.now().isoformat()


def tick() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reseed() -> int:
    # REP101 for the read, REP120 for the seed it feeds.
    return derive_seed(0, str(time.localtime().tm_sec))
