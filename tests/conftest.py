"""Suite-wide guards.

The broker stages large ndarrays into ``multiprocessing.shared_memory``
segments, which live in the system's shared-memory directory until
someone unlinks them, past the end of the process.  A test that leaves
one behind leaks host memory on every run, so any test that ends with a
``psm_*`` segment it did not start with fails.
"""

import os

import pytest

SHARED_MEMORY_DIR = "/dev/shm"


def shared_memory_segments():
    """Names of the POSIX shared-memory segments Python has created."""
    try:
        names = os.listdir(SHARED_MEMORY_DIR)
    except FileNotFoundError:  # no POSIX shared memory on this platform
        return set()
    return {name for name in names if name.startswith("psm_")}


@pytest.fixture(autouse=True)
def no_leaked_shared_memory():
    before = shared_memory_segments()
    yield
    leaked = shared_memory_segments() - before
    assert not leaked, (
        f"test left {len(leaked)} shared-memory segment(s) behind: "
        f"{sorted(leaked)}; close the Broker that staged them")
