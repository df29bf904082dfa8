"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import contextlib
import os
import struct

import pytest
from hypothesis import HealthCheck, settings

from repro.abr.base import SessionConfig
from repro.qoe import QoEWeights
from repro.traces import (
    FCCTraceGenerator,
    HSDPATraceGenerator,
    SyntheticTraceGenerator,
    Trace,
)
from repro.video import envivio, short_test_video

# Keep property tests fast and deterministic in CI.
settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def envivio_manifest():
    """The paper's evaluation video (65 x 4 s chunks, 5 levels)."""
    return envivio()


@pytest.fixture
def short_manifest():
    """A small 8-chunk, 3-level video for exhaustive cross-checks."""
    return short_test_video(num_chunks=8, num_levels=3)


@pytest.fixture
def constant_trace():
    """A steady 1.5 Mbps link, long enough for the Envivio video."""
    return Trace.constant(1500.0, 600.0, name="constant-1500")


@pytest.fixture
def step_trace():
    """2 Mbps for 100 s, then a 400 kbps trough, then recovery."""
    return Trace(
        [0.0, 100.0, 160.0],
        [2000.0, 400.0, 2000.0],
        duration_s=600.0,
        name="step",
    )


@pytest.fixture
def fcc_traces():
    return FCCTraceGenerator(seed=7).generate_many(6, 320.0)


@pytest.fixture
def hsdpa_traces():
    return HSDPATraceGenerator(seed=7).generate_many(6, 320.0)


@pytest.fixture
def synthetic_traces():
    return SyntheticTraceGenerator(seed=7).generate_many(6, 320.0)


@pytest.fixture
def default_config():
    return SessionConfig()


@pytest.fixture
def balanced_weights():
    return QoEWeights.balanced()


# ----------------------------------------------------------------------
# Hostile serialized tables (service boundary)
# ----------------------------------------------------------------------


def _forged_table(buffer_count, throughput_count, levels, run_end):
    """A serialized DecisionTable header with one ``(run_end, 0)`` run."""
    return b"".join(
        [
            b"RPROTBL1",
            struct.pack("<ddIB", 0.0, 30.0, buffer_count, 0),
            struct.pack("<ddIB", 60.0, 6000.0, throughput_count, 1),
            struct.pack("<IB", levels, 0),
            struct.pack("<I", 1),
            struct.pack("<IB", run_end, 0),
        ]
    )


#: Forged table bodies that each declare ~4e9 entries or bins in 64 bytes.
FORGED_TABLE_BLOBS = {
    # A 12x5x12 header over a single run ending at 0xFFFFFFF0.
    "huge-run": _forged_table(12, 12, 5, 0xFFFFFFF0),
    # A buffer axis claiming 0xFFFFFFF0 bins; the runs cover 720 entries.
    "huge-bin-count": _forged_table(0xFFFFFFF0, 12, 5, 720),
    # The same bin count with a shape that matches the runs exactly.
    "huge-bin-count-consistent": _forged_table(0xFFFFFFF0, 1, 1, 0xFFFFFFF0),
}


@contextlib.contextmanager
def _address_space_headroom(extra_bytes):
    """Cap this process's address space at its current size plus
    ``extra_bytes`` for the duration of the block, so an unbounded
    allocation fails fast with ``MemoryError`` instead of exhausting the
    host.  A no-op where ``RLIMIT_AS`` or ``/proc`` is unavailable."""
    try:
        import resource

        with open("/proc/self/statm") as stream:
            vm_bytes = int(stream.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    except (ImportError, OSError, AttributeError, ValueError):
        yield
        return
    limit = vm_bytes + extra_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def forged_table_blobs():
    return dict(FORGED_TABLE_BLOBS)


@pytest.fixture
def address_space_headroom():
    return _address_space_headroom
