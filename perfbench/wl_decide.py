"""The decision service workloads: ``decide-frames`` and ``decide-sessions``.

Both drive a one-worker :class:`~repro.service.cluster.ClusterSupervisor`
(forked worker, mmap-published paper table: 100 x 100 buffer/throughput
bins, horizon 5, balanced weights) over two keep-alive connections from
this process, which is also the supervisor.

``decide-frames`` is a closed loop: each connection keeps one 256-record
binary frame in flight, so the worker always has the next frame queued
and per-record server work (frame decode, ``decide_batch``,
``record_decision``, response encode) dominates.

``decide-sessions`` is an open loop over JSON, one decision per exchange:
players arrive at seeded Poisson-like times (a fixed count, uniform order
statistics, so the offered rate does not swing with the seed), replay FCC
traces, and each next request is due one compressed, trace-driven
download time after the previous one was due.  Arms ``table``,
``robust-mpc`` and ``bola`` get equal shares of the sessions, every
request carries a ``family`` (shared prior active), and the same table is
re-deployed with ``POST /v1/table`` every two seconds.  Latency runs from
the instant a request was due.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import json
import math
import os
import random
import shutil
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.core import mpc as mpc_module
from repro.core.fastmpc import build_decision_table
from repro.core.table import DecisionTable
from repro.experiments.persistence import publish_table
from repro.qoe import QoEWeights
from repro.service import (
    AlgorithmBackend,
    ClusterConfig,
    ClusterSupervisor,
    DecisionRequest,
    DecisionResponse,
    DecisionService,
    ExperimentArm,
    ExperimentConfig,
    ServiceConfig,
    ServiceMetrics,
    SharedPriorStore,
)
from repro.service import server as server_module
from repro.service.protocol import (
    CONTENT_TYPE_BINARY,
    decode_response_batch,
    encode_request_batch,
    encode_response_batch,
)
from repro.service.server import VECTOR_MIN_BATCH
from repro.traces.datasets import make_generator
from repro.video.presets import (
    DEFAULT_BUFFER_CAPACITY_S,
    ENVIVIO_CHUNK_SECONDS,
    ENVIVIO_LADDER_KBPS,
)

from common import (
    WORK_DIR,
    GateFailure,
    log,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    self_cpu_s,
    self_peak_rss_mb,
)
from layers import LayerRecorder, diff_snapshots, format_layer_table, mean_us

LADDER = tuple(ENVIVIO_LADDER_KBPS)
CONNECTIONS = 2

# decide-frames
FRAME_RECORDS = 256
FRAMES = 64
SESSION_IDS = 4096

# decide-sessions
#: About a third of this arm mix's closed-loop capacity (1.5-1.8k
#: decisions/s on a 2-core host).  At half, the shared host's slow
#: stretches tipped the worker into saturation in some runs and queueing
#: swamped the latency being measured.
OFFERED_DPS = 600.0
CHUNKS_PER_SESSION = 40
#: Trace time runs this many times faster than the request schedule, and
#: no gap exceeds MAX_GAP_S, so every session (<= 2.4 s) fits inside the
#: warm-up and the window starts in steady state.
COMPRESSION = 80.0
MAX_GAP_S = 0.06
WARMUP_S = 3.0
SWAP_EVERY_S = 2.0
TRACE_POOL = 64
TRACE_S = 320.0
FAMILY = "fcc"
EXPERIMENT = ExperimentConfig(
    arms=(
        ExperimentArm(name="table", controller="table"),
        ExperimentArm(name="robust-mpc", controller="robust-mpc"),
        ExperimentArm(name="bola", controller="bola"),
    ),
    salt="perfbench",
)

#: The service's per-lookup budget, raised from its 5 ms default.  At the
#: default a cold robust-mpc solve (19-32 ms) and any host stall longer
#: than 5 ms during a 256-record frame (~2 ms of lookups) are answered by
#: the degraded fallback, which makes the failure count depend on the seed
#: and on the host.  At one second only a hung lookup degrades; the
#: solve's cost still shows in latency, CPU and kernel.startup_solve_ms.
LOOKUP_BUDGET_S = 1.0

#: A drive that has not finished this long after its window closes means
#: the service stopped answering: fail instead of hanging.
DRAIN_TIMEOUT_S = 60.0

#: Validity guards: past these the generator, not the service, limits.
#: Timer lateness has a floor of about half a millisecond (the event
#: loop's millisecond poll timeout), and its tail follows the shared
#: host's scheduling hiccups (tens of milliseconds at p99 in bad
#: stretches, with the generator 20% busy); a generator that cannot keep
#: up is late systematically, at the median.  The tail is reported.
MAX_GENERATOR_BUSY = 0.95
MAX_GENERATOR_LATE_P50_S = 0.002


@dataclass
class DecideContext:
    workload: str
    seed: int
    table: DecisionTable
    table_path: str
    work_dir: str
    traces: list
    loop: asyncio.AbstractEventLoop
    supervisor: Optional[ClusterSupervisor]
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def port(self) -> int:
        return self.supervisor.bound_port

    @property
    def worker_pid(self) -> int:
        return self.supervisor.worker_pids()[0]


# ---------------------------------------------------------------------------
# Set-up / teardown
# ---------------------------------------------------------------------------


async def _start_cluster(table_path: str, experiment: Optional[ExperimentConfig]) -> ClusterSupervisor:
    supervisor = ClusterSupervisor(
        LADDER,
        table_path=table_path,
        config=ClusterConfig(
            workers=1,
            control_port=None,
            experiment=experiment,
            service=ServiceConfig(lookup_budget_s=LOOKUP_BUDGET_S),
        ),
    )
    await supervisor.start()
    return supervisor


def _experiment_for(workload: str) -> Optional[ExperimentConfig]:
    return EXPERIMENT if workload == "decide-sessions" else None


def setup(workload: str, seed: int) -> DecideContext:
    """Cold table build, publication, traces, one-worker cluster start."""
    phases = {}
    t0 = time.perf_counter()
    table = build_decision_table(
        LADDER, ENVIVIO_CHUNK_SECONDS, DEFAULT_BUFFER_CAPACITY_S, QoEWeights.balanced()
    )
    phases["fastmpc.table_build_s"] = time.perf_counter() - t0
    work_dir = WORK_DIR / f"decide-{os.getpid()}"
    table_path = str(publish_table(table, work_dir / "table.rprotbl"))
    t0 = time.perf_counter()
    traces = []
    if workload == "decide-sessions":
        traces = make_generator("fcc", seed=seed).generate_many(TRACE_POOL, TRACE_S)
    phases["traces.generate_s"] = time.perf_counter() - t0
    loop = asyncio.new_event_loop()
    t0 = time.perf_counter()
    supervisor = loop.run_until_complete(_start_cluster(table_path, _experiment_for(workload)))
    phases["cluster.start_s"] = time.perf_counter() - t0
    return DecideContext(
        workload=workload,
        seed=seed,
        table=table,
        table_path=table_path,
        work_dir=str(work_dir),
        traces=traces,
        loop=loop,
        supervisor=supervisor,
        phases=phases,
    )


def teardown(ctx: DecideContext) -> None:
    try:
        if ctx.supervisor is not None:
            ctx.loop.run_until_complete(ctx.supervisor.stop())
            ctx.supervisor = None
    finally:
        ctx.loop.close()
        shutil.rmtree(ctx.work_dir, ignore_errors=True)


def _restart_cluster(ctx: DecideContext) -> None:
    ctx.loop.run_until_complete(ctx.supervisor.stop())
    ctx.supervisor = None
    ctx.supervisor = ctx.loop.run_until_complete(
        _start_cluster(ctx.table_path, _experiment_for(ctx.workload))
    )


# ---------------------------------------------------------------------------
# A minimal keep-alive HTTP/1.1 client (the load generator's transport)
# ---------------------------------------------------------------------------


def http_request(path: str, body: bytes = b"", content_type: str = "", method: str = "POST") -> bytes:
    type_header = f"Content-Type: {content_type}\r\n" if content_type else ""
    return (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{type_header}"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode() + body


METRICS_REQUEST = http_request("/metrics", method="GET")


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def exchange(self, blob: bytes) -> Tuple[int, bytes, bytes]:
        """Send one request, return ``(status, content type, body)``."""
        self.writer.write(blob)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        content_type = b""
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"content-type":
                content_type = value.strip()
        body = await self.reader.readexactly(length) if length else b""
        return status, content_type, body

    async def metrics(self, window: "Window", pid: int) -> dict:
        """The worker's /metrics document, noting its CPU at the snapshot."""
        window.snapshot_cpu_s.append(proc_cpu_s(pid))
        status, _, body = await self.exchange(METRICS_REQUEST)
        if status != 200:
            raise GateFailure(f"/metrics answered HTTP {status}")
        return json.loads(body)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError)


# ---------------------------------------------------------------------------
# Worker-side layer wrappers (installed before the worker forks)
# ---------------------------------------------------------------------------


def install_service_wrappers(recorder: LayerRecorder) -> None:
    """Wrap the service's layers; the worker reports them via /metrics."""
    recorder.wrap(server_module, "decode_request_batch", "protocol.decode_batch", units=lambda a, r: len(r))
    recorder.wrap(server_module, "encode_response_batch", "protocol.encode_batch", units=lambda a, r: len(a[0]))
    recorder.wrap(DecisionRequest, "from_json", "protocol.from_json")
    recorder.wrap(DecisionResponse, "to_json", "protocol.to_json")
    recorder.wrap(
        DecisionService,
        "decide_batch",
        lambda a: "service.decide_batch.vector" if len(a[1]) >= VECTOR_MIN_BATCH else "service.decide_batch.scalar",
        units=lambda a, r: len(a[1]),
    )
    recorder.wrap(DecisionTable, "lookup_batch", "table.lookup_batch", units=lambda a, r: len(a[1]))
    recorder.wrap(DecisionTable, "lookup", "table.lookup")
    recorder.wrap(DecisionTable, "from_bytes", "table.from_bytes")
    recorder.wrap(DecisionService, "swap_table", "table.swap_table")
    recorder.wrap(ServiceMetrics, "record_decision", "metrics.record_decision")
    recorder.wrap(
        AlgorithmBackend,
        "decide",
        lambda a: ("backends.decide." if a[1] in a[0]._sessions else "backends.first_decide.") + a[0].controller,
    )
    recorder.wrap(mpc_module, "solve_startup", "kernel.solve_startup")
    recorder.wrap(mpc_module, "solve_horizon", "kernel.solve_horizon")
    recorder.wrap(SharedPriorStore, "estimate", "prior.estimate")
    recorder.wrap(SharedPriorStore, "observe", "prior.observe")

    document = DecisionService.metrics_document

    def metrics_document(self):
        payload = document(self)
        payload["perfbench_layers"] = recorder.snapshot()
        return payload

    recorder.patch(DecisionService, "metrics_document", metrics_document)


@contextlib.contextmanager
def generator_gc_paused():
    """Keep the generator's own garbage collector out of the window: a
    collection over the exchange log stalls request timers by milliseconds.
    Workers are forked outside this block, so the service keeps its GC."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Window accounting shared by both workloads
# ---------------------------------------------------------------------------


#: End-to-end figures are medians over equal slices of the window: the
#: host is shared and its speed drifts by tens of percent over seconds,
#: so one slow stretch should move one slice, not the run.  3.6 seconds
#: each at the default length: a decide-frames slice holds ~800
#: exchanges and a decide-sessions slice ~2200 decisions and one or two
#: table swaps.
SEGMENTS = 5


@dataclass
class Window:
    decisions: int = 0
    failed: int = 0
    wrong: int = 0
    #: (key time, latency, decisions) per answered exchange; the key is
    #: the completion (closed loop) or due instant (open loop).
    points: List[Tuple[float, float, int]] = field(default_factory=list)
    #: (time, worker CPU, generator CPU) at every segment boundary.
    samples: List[Tuple[float, float, float]] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    decode_s: float = 0.0
    decoded_records: int = 0
    exchanges: int = 0
    swaps: int = 0
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)
    #: Worker CPU when each /metrics snapshot was taken: the reference
    #: for layer stats, which span warm-up and drain as well.
    snapshot_cpu_s: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.samples[-1][0] - self.samples[0][0]

    @property
    def worker_cpu_s(self) -> float:
        return self.samples[-1][1] - self.samples[0][1]

    @property
    def generator_cpu_s(self) -> float:
        return self.samples[-1][2] - self.samples[0][2]

    @property
    def latencies_s(self) -> List[float]:
        return [latency for _, latency, _ in self.points]

    @property
    def worker_cpu_us_per_decision(self) -> float:
        answered = sum(n for _, _, n in self.points)
        return self.worker_cpu_s * 1e6 / max(answered, 1)

    def segment_values(self) -> Dict[str, float]:
        """End-to-end metrics: medians of per-segment figures."""
        start = self.samples[0][0]
        width = (self.samples[-1][0] - start) / SEGMENTS
        latencies: List[List[float]] = [[] for _ in range(SEGMENTS)]
        counts = [0] * SEGMENTS
        for key, latency, n in self.points:
            segment = int((key - start) // width)
            if 0 <= segment < SEGMENTS:
                latencies[segment].append(latency)
                counts[segment] += n
        cpu = [self.samples[i + 1][1] - self.samples[i][1] for i in range(SEGMENTS)]
        return {
            "decisions_per_s": median([n / width for n in counts]),
            "request_p50_us": median([percentile(l, 50) for l in latencies]) * 1e6,
            "request_p99_us": median([percentile(l, 99) for l in latencies]) * 1e6,
            "cpu_us_per_decision": median([c * 1e6 / n for c, n in zip(cpu, counts)]),
        }


def _sample_segments(loop, pid: int, start: float, seconds: float, window: Window) -> None:
    """Read worker and generator CPU at every segment boundary."""

    def sample() -> None:
        window.samples.append((loop.time(), proc_cpu_s(pid), self_cpu_s()))

    for k in range(SEGMENTS + 1):
        loop.call_at(start + k * seconds / SEGMENTS, sample)


async def _bounded(drive, seconds: float) -> None:
    try:
        await asyncio.wait_for(drive, seconds + DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise GateFailure(f"the service stopped answering (no drain {DRAIN_TIMEOUT_S:.0f} s after the window)") from None


async def _all_sampled(window: Window) -> None:
    while len(window.samples) < SEGMENTS + 1:
        await asyncio.sleep(0.001)


# ---------------------------------------------------------------------------
# decide-frames
# ---------------------------------------------------------------------------


def make_frames(seed: int) -> List[List[DecisionRequest]]:
    """Seeded records spanning the table's whole state space."""
    rng = random.Random(seed)
    low, high = 0.1 * min(LADDER), 3.0 * max(LADDER)
    frames = []
    for _ in range(FRAMES):
        frame = []
        for _ in range(FRAME_RECORDS):
            prev = rng.randrange(-1, len(LADDER))
            frame.append(
                DecisionRequest(
                    session_id=f"s{rng.randrange(SESSION_IDS):04d}",
                    buffer_s=rng.uniform(0.0, DEFAULT_BUFFER_CAPACITY_S + 2.0),
                    predicted_kbps=math.exp(rng.uniform(math.log(low), math.log(high))),
                    prev_level=None if prev < 0 else prev,
                    past_errors=tuple(rng.uniform(-0.6, 0.6) for _ in range(rng.randrange(6))),
                )
            )
        frames.append(frame)
    return frames


def reference_service(table: DecisionTable) -> DecisionService:
    """The in-process service answers are checked against, configured as
    the worker is: at the default 5 ms budget a host stall while the
    reference decides would turn its answer into the fallback's."""
    return DecisionService(LADDER, table=table, config=ServiceConfig(lookup_budget_s=LOOKUP_BUDGET_S))


def expected_levels(table: DecisionTable, frames) -> List[List[int]]:
    """In-process ``DecisionService.decide`` on every record."""
    reference = reference_service(table)
    return [[reference.decide(r).level_index for r in frame] for frame in frames]


def _check_frame(responses, expected: List[int], window: Window) -> None:
    if len(responses) != len(expected):
        window.wrong += len(expected)
        return
    levels = [r.level_index for r in responses]
    if levels == expected:
        return
    for response, want in zip(responses, expected):
        if response.degraded:
            window.failed += 1
        elif response.level_index != want or response.source != "table":
            window.wrong += 1


#: A float whose eight bytes are all non-zero: a frame encoded with it
#: and with 0.0 as the server latency differs exactly in the latency bytes.
_LATENCY_PROBE_US = struct.unpack("<d", bytes(range(0x31, 0x39)))[0]


def response_template(responses) -> Tuple[np.ndarray, np.ndarray]:
    """``(expected, keep)``: a frame's response bytes as the program encodes
    them, and the mask of the bytes that must match (all but the batch's
    server latency, which varies per exchange)."""

    def encoded(latency_us: float) -> np.ndarray:
        batch = [dataclasses.replace(r, server_latency_us=latency_us) for r in responses]
        return np.frombuffer(encode_response_batch(batch), np.uint8)

    zero = encoded(0.0)
    keep = np.where(zero == encoded(_LATENCY_PROBE_US), 0xFF, 0x00).astype(np.uint8)
    return zero & keep, keep


def matches_template(body: bytes, template) -> bool:
    """The response equals the checked one byte for byte, latency aside.
    A few microseconds per frame where decoding 256 records costs the
    generator hundreds, so the generator stays well ahead of the worker."""
    if template is None:
        return False
    expected, keep = template
    got = np.frombuffer(body, np.uint8)
    return got.size == expected.size and np.array_equal(got & keep, expected)


async def _drive_frames(
    ctx: DecideContext, blobs, expected, templates, seconds: float, traced: bool
) -> Window:
    loop = ctx.loop
    window = Window()
    conns = [await Connection.open(ctx.port) for _ in range(CONNECTIONS)]
    window.metrics_before = await conns[0].metrics(window, ctx.worker_pid)
    clock = time.monotonic  # the event loop's clock, at full resolution
    start = loop.time()
    deadline = start + seconds
    _sample_segments(loop, ctx.worker_pid, start, seconds, window)

    async def pump(index: int) -> None:
        conn = conns[index]
        frame = index
        while clock() < deadline:
            k = frame % len(blobs)
            frame += CONNECTIONS
            sent = clock()
            try:
                status, content_type, body = await conn.exchange(blobs[k])
            except TRANSPORT_ERRORS:
                window.failed += FRAME_RECORDS
                window.decisions += FRAME_RECORDS
                await conn.close()
                conn = conns[index] = await Connection.open(ctx.port)
                continue
            done = clock()
            window.exchanges += 1
            window.decisions += FRAME_RECORDS
            if status != 200 or content_type != CONTENT_TYPE_BINARY.encode():
                window.failed += FRAME_RECORDS
                continue
            window.points.append((done, done - sent, FRAME_RECORDS))
            if not traced and matches_template(body, templates[k]):
                continue
            responses = decode_response_batch(body)
            if traced:
                window.decode_s += clock() - done
                window.decoded_records += len(responses)
            _check_frame(responses, expected[k], window)

    await _bounded(asyncio.gather(*(pump(i) for i in range(CONNECTIONS))), seconds)
    await _all_sampled(window)
    window.metrics_after = await conns[0].metrics(window, ctx.worker_pid)
    for conn in conns:
        await conn.close()
    return window


async def _gate_frames(ctx: DecideContext, blobs, expected) -> list:
    """Every frame once, before any clock: levels must match in-process.
    Returns each frame's response template (``None`` where a record came
    back degraded), against which the timed run checks every response."""
    conn = await Connection.open(ctx.port)
    window = Window()
    templates = []
    try:
        for blob, want in zip(blobs, expected):
            status, content_type, body = await conn.exchange(blob)
            if status != 200 or content_type != CONTENT_TYPE_BINARY.encode():
                raise GateFailure(f"decide-frames gate: HTTP {status} {content_type!r}")
            responses = decode_response_batch(body)
            failed, wrong = window.failed, window.wrong
            _check_frame(responses, want, window)
            clean = window.failed == failed and window.wrong == wrong
            templates.append(response_template(responses) if clean else None)
    finally:
        await conn.close()
    if window.wrong:
        raise GateFailure(
            f"decide-frames gate: {window.wrong} record(s) differ from in-process DecisionService.decide"
        )
    log(f"gate decide-frames: {len(blobs) * FRAME_RECORDS} records match in-process decide"
        f" ({window.failed} degraded)")
    return templates


def frame_blobs(frames) -> List[bytes]:
    return [http_request("/v1/decide", encode_request_batch(f), CONTENT_TYPE_BINARY) for f in frames]


# ---------------------------------------------------------------------------
# decide-sessions
# ---------------------------------------------------------------------------


class Player:
    """One trace-driven session: buffer, harmonic-mean prediction, errors."""

    __slots__ = (
        "session_id", "trace", "wall_s", "buffer_s", "prev_level", "measured",
        "errors", "predicted", "chunks", "tainted",
    )

    def __init__(self, session_id: str, trace, offset_s: float) -> None:
        self.session_id = session_id
        self.trace = trace
        self.wall_s = offset_s
        self.buffer_s = 0.0
        self.prev_level: Optional[int] = None
        self.measured: deque = deque(maxlen=5)
        self.errors: deque = deque(maxlen=5)
        self.predicted = 0.0
        self.chunks = 0
        self.tainted = False

    def request(self) -> DecisionRequest:
        if self.measured:
            predicted = len(self.measured) / sum(1.0 / c for c in self.measured)
        else:
            predicted = self.trace.bandwidth_at(self.wall_s)
        self.predicted = max(predicted, 1e-3)
        return DecisionRequest(
            session_id=self.session_id,
            buffer_s=self.buffer_s,
            predicted_kbps=self.predicted,
            prev_level=self.prev_level,
            past_errors=tuple(self.errors),
            family=FAMILY,
        )

    def advance(self, level: int) -> float:
        """Download the chunk at ``level``; returns the trace time it took."""
        size = ENVIVIO_CHUNK_SECONDS * LADDER[level]
        download_s = max(self.trace.time_to_download(self.wall_s, size), 1e-9)
        actual = max(size / download_s, 1e-3)
        self.buffer_s = min(
            max(self.buffer_s - download_s, 0.0) + ENVIVIO_CHUNK_SECONDS,
            DEFAULT_BUFFER_CAPACITY_S,
        )
        self.wall_s += download_s
        self.errors.append((self.predicted - actual) / actual)
        self.measured.append(actual)
        self.prev_level = level
        self.chunks += 1
        return download_s

    def local_level(self) -> int:
        """The rate-based rule the player falls back on when the service
        cannot answer."""
        level = 0
        for i, rate in enumerate(LADDER):
            if rate <= self.predicted:
                level = i
        return level


def make_players(ctx: DecideContext, prefix: str, count: int, rng: random.Random) -> List[Player]:
    """``count`` players with exactly equal arm shares (ids are chosen so
    the service's salted hash spreads them round-robin over the arms)."""
    arms = [arm.name for arm in EXPERIMENT.arms]
    players = []
    candidate = 0
    while len(players) < count:
        want = arms[len(players) % len(arms)]
        while True:
            session_id = f"{prefix}-{candidate}"
            candidate += 1
            if EXPERIMENT.assign(session_id).name == want:
                break
        trace = ctx.traces[rng.randrange(len(ctx.traces))]
        players.append(Player(session_id, trace, rng.uniform(0.0, trace.duration_s)))
    return players


@dataclass
class Exchange:
    player: Player
    request: DecisionRequest
    response: Optional[DecisionResponse]


async def _drive_sessions(
    ctx: DecideContext,
    players: List[Player],
    arrivals: List[float],
    warmup_s: float,
    seconds: float,
    log_exchanges: List[Exchange],
    traced: bool,
) -> Window:
    """Open-loop replay: requests fire at their due instants whether or not
    the service kept up; latency is measured from the due instant."""
    loop = ctx.loop
    window = Window()
    conns = [await Connection.open(ctx.port) for _ in range(CONNECTIONS)]
    window.metrics_before = await conns[0].metrics(window, ctx.worker_pid)
    table_blob = http_request("/v1/table", ctx.table.to_bytes())
    ready: asyncio.Queue = asyncio.Queue()
    stop = object()
    swap = object()
    t0 = loop.time() + 0.05
    window_start = t0 + warmup_s
    window_end = window_start + seconds
    outstanding = 0  # items scheduled and not yet handled

    def fire(item, due: float) -> None:
        if window_start <= due < window_end:
            window.late_s.append(loop.time() - due)
        ready.put_nowait((item, due))

    def schedule(item, due: float) -> None:
        nonlocal outstanding
        outstanding += 1
        loop.call_at(due, fire, item, due)

    for player, arrival in zip(players, arrivals):
        if t0 + arrival < window_end:
            schedule(player, t0 + arrival)
    swap_at = t0 + 1.0
    while swap_at < window_end:
        schedule(swap, swap_at)
        swap_at += SWAP_EVERY_S

    _sample_segments(loop, ctx.worker_pid, window_start, seconds, window)
    clock = loop.time

    async def finish() -> None:
        # Every request due inside the window is sent, however late.
        await asyncio.sleep(max(window_end - loop.time(), 0.0))
        while outstanding:
            await asyncio.sleep(0.001)
        for _ in range(CONNECTIONS):
            ready.put_nowait((stop, window_end))

    async def pump(index: int) -> None:
        nonlocal outstanding
        conn = conns[index]
        while True:
            item, due = await ready.get()
            if item is stop:
                return
            outstanding -= 1
            if item is swap:
                status, _, _ = await conn.exchange(table_blob)
                if status != 200:
                    raise GateFailure(f"table swap answered HTTP {status}")
                window.swaps += 1
                continue
            player = item
            request = player.request()
            in_window = window_start <= due < window_end
            try:
                status, _, body = await conn.exchange(
                    http_request("/v1/decide", request.to_json())
                )
                if status != 200:
                    raise ConnectionError(f"HTTP {status}")
                done = clock()
                response = DecisionResponse.from_json(body)
                if traced:
                    window.decode_s += clock() - done
                    window.decoded_records += 1
            except TRANSPORT_ERRORS:
                done = clock()
                response = None
                player.tainted = True
                await conn.close()
                conn = conns[index] = await Connection.open(ctx.port)
            log_exchanges.append(Exchange(player, request, response))
            if in_window:
                window.decisions += 1
                window.exchanges += 1
                if response is None:
                    window.failed += 1
                else:
                    window.points.append((due, done - due, 1))
                    window.failed += response.degraded
            level = player.local_level() if response is None else response.level_index
            download_s = player.advance(level)
            if player.chunks < CHUNKS_PER_SESSION:
                next_due = due + min(download_s / COMPRESSION, MAX_GAP_S)
                if next_due < window_end:
                    schedule(player, next_due)

    await _bounded(
        asyncio.gather(finish(), *(pump(i) for i in range(CONNECTIONS))), warmup_s + seconds
    )
    await _all_sampled(window)
    window.metrics_after = await conns[0].metrics(window, ctx.worker_pid)
    for conn in conns:
        await conn.close()
    return window


def verify_sessions(table: DecisionTable, exchanges: List[Exchange]) -> Tuple[int, int]:
    """Replay in-process; returns ``(checked, wrong)``.

    Table-arm answers must equal an in-process lookup; controller-arm
    sessions are replayed in order through fresh backends and every
    non-degraded level must match.
    """
    reference = reference_service(table)
    config = ServiceConfig()
    backends = {
        arm.controller: AlgorithmBackend(
            arm.controller,
            LADDER,
            chunk_duration_s=config.backend_chunk_duration_s,
            buffer_capacity_s=config.backend_buffer_capacity_s,
            max_sessions=config.backend_max_sessions,
            idle_timeout_s=config.backend_idle_timeout_s,
        )
        for arm in EXPERIMENT.arms
        if arm.controller != "table"
    }
    checked = wrong = 0
    for exchange in exchanges:
        player, request, response = exchange.player, exchange.request, exchange.response
        if response is None:
            continue
        arm = EXPERIMENT.assign(request.session_id)
        if response.arm != arm.name:
            wrong += 1
            continue
        if arm.controller == "table":
            if not response.degraded:
                checked += 1
                if response.level_index != reference.decide(request).level_index:
                    wrong += 1
            continue
        if player.tainted:
            continue  # a lost exchange may or may not have reached the backend
        level = backends[arm.controller].decide(
            request.session_id, request.buffer_s, request.prev_level, request.predicted_kbps
        )
        if not response.degraded:
            checked += 1
            if response.level_index != level:
                wrong += 1
    return checked, wrong


def session_schedule(ctx: DecideContext, prefix: str, seconds: float, warmup_s: float):
    rng = random.Random(ctx.seed)
    span = warmup_s + seconds
    count = max(3, round(OFFERED_DPS * span / CHUNKS_PER_SESSION))
    players = make_players(ctx, prefix, count, rng)
    # One arrival per 1/rate slot at a seeded offset: the offered load in
    # any stretch of the window is the same for every seed, which plain
    # Poisson arrivals (a few percent of swing per seed) would not give.
    slot = span / count
    arrivals = [(i + rng.random()) * slot for i in range(count)]
    return players, arrivals


def _run_session_phase(
    ctx: DecideContext, prefix: str, seconds: float, traced: bool, warmup_s: float = WARMUP_S
) -> Window:
    players, arrivals = session_schedule(ctx, prefix, seconds, warmup_s)
    exchanges: List[Exchange] = []
    with generator_gc_paused():
        window = ctx.loop.run_until_complete(
            _drive_sessions(ctx, players, arrivals, warmup_s, seconds, exchanges, traced)
        )
    checked, wrong = verify_sessions(ctx.table, exchanges)
    window.wrong += wrong
    log(f"verify decide-sessions[{prefix}]: {checked} non-degraded answers replayed in-process,"
        f" {wrong} differ; {window.swaps} table swaps")
    return window


def _gate_sessions(ctx: DecideContext) -> None:
    """A short probe through the service, verified before any clock."""
    window = _run_session_phase(ctx, "gate", 1.0, False, warmup_s=0.0)
    if window.wrong:
        raise GateFailure(f"decide-sessions gate: {window.wrong} answer(s) differ from in-process replay")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _check_validity(window: Window, closed_loop: bool) -> None:
    busy = window.generator_cpu_s / window.wall_s if window.wall_s > 0 else 1.0
    if busy > MAX_GENERATOR_BUSY:
        raise GateFailure(
            f"invalid run: load generator {busy:.0%} busy — the generator, not the service, was the bottleneck"
        )
    if closed_loop or not window.late_s:
        return
    late_p50 = percentile(window.late_s, 50)
    if late_p50 > MAX_GENERATOR_LATE_P50_S:
        raise GateFailure(
            f"invalid run: generator fired requests {late_p50 * 1e3:.2f} ms late at p50"
            " — the generator, not the service, fell behind"
        )


def _phase(ctx: DecideContext, seconds: float, traced: bool, prefix: str, frames_input) -> Window:
    if ctx.workload == "decide-frames":
        with generator_gc_paused():
            return ctx.loop.run_until_complete(_drive_frames(ctx, *frames_input, seconds, traced))
    return _run_session_phase(ctx, prefix, seconds, traced)


def run(ctx: DecideContext, seconds: float, traced: bool) -> dict:
    frames_input = None
    if ctx.workload == "decide-frames":
        frames = make_frames(ctx.seed)
        blobs, expected = frame_blobs(frames), expected_levels(ctx.table, frames)
        templates = ctx.loop.run_until_complete(_gate_frames(ctx, blobs, expected))
        frames_input = (blobs, expected, templates)
    else:
        _gate_sessions(ctx)
    closed_loop = ctx.workload == "decide-frames"
    if not traced:
        window = _phase(ctx, seconds, False, "run", frames_input)
        _check_validity(window, closed_loop)
        return {
            "correct": window.wrong == 0,
            "attempted": window.decisions,
            "failed": window.failed,
            "values": {
                **window.segment_values(),
                "peak_rss_mb": self_peak_rss_mb() + proc_peak_rss_mb(ctx.worker_pid),
            },
            "report": _report(ctx, window),
        }
    # Traced: an untraced half, then a fresh worker forked with wrappers.
    half = seconds / 2.0
    plain = _phase(ctx, half, False, "plain", frames_input)
    recorder = LayerRecorder()
    install_service_wrappers(recorder)
    try:
        _restart_cluster(ctx)
        window = _phase(ctx, half, True, "traced", frames_input)
    finally:
        recorder.unwrap_all()
    _check_validity(window, closed_loop)
    layers = diff_snapshots(
        window.metrics_after["perfbench_layers"], window.metrics_before["perfbench_layers"]
    )
    values = _layer_values(ctx, window, layers)
    plain_values = plain.segment_values()
    values["loadgen.request_p50_us"] = plain_values["request_p50_us"]
    values["loadgen.request_p99_us"] = plain_values["request_p99_us"]
    values["trace.overhead_us_per_decision"] = (
        window.worker_cpu_us_per_decision - plain.worker_cpu_us_per_decision
    )
    values["trace.overhead_share"] = (
        window.worker_cpu_us_per_decision / plain.worker_cpu_us_per_decision - 1.0
    )
    snapshot_cpu = window.snapshot_cpu_s[1] - window.snapshot_cpu_s[0]
    table = format_layer_table(
        f"{ctx.workload}: worker layers", layers, snapshot_cpu, "worker CPU between /metrics snapshots"
    )
    return {
        "correct": window.wrong == 0 and plain.wrong == 0,
        "attempted": window.decisions,
        "failed": window.failed,
        "values": values,
        "report": table + "\n" + _report(ctx, window),
    }


def _span(doc: dict, name: str) -> Tuple[int, float]:
    span = doc.get("spans_us", {}).get(name)
    return (span["count"], span["sum_us"]) if span else (0, 0.0)


def _counter_diff(after: dict, before: dict) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v - before.get(k, 0)}


def _layer_values(ctx: DecideContext, window: Window, layers: dict) -> Dict[str, float]:
    after, before = window.metrics_after, window.metrics_before
    count1, sum1 = _span(after, "decide")
    count0, sum0 = _span(before, "decide")
    exchanges = count1 - count0
    exchange_us = (sum1 - sum0) / exchanges if exchanges else 0.0
    inner = sum(
        layers.get(name, {}).get("total_s", 0.0)
        for name in (
            "protocol.decode_batch",
            "protocol.encode_batch",
            "protocol.from_json",
            "protocol.to_json",
            "service.decide_batch.vector",
            "service.decide_batch.scalar",
        )
    )
    occupancy = _counter_diff(after.get("batch_occupancy", {}), before.get("batch_occupancy", {}))
    batches = sum(occupancy.values())
    reasons = _counter_diff(after.get("fallback_reasons", {}), before.get("fallback_reasons", {}))
    swaps = layers.get("table.swap_table", {}).get("calls", 0)
    swap_s = sum(layers.get(n, {}).get("total_s", 0.0) for n in ("table.from_bytes", "table.swap_table"))
    prior_calls = layers.get("prior.observe", {}).get("calls", 0)
    prior_s = sum(layers.get(n, {}).get("total_s", 0.0) for n in ("prior.estimate", "prior.observe"))
    solves = sum(layers.get(n, {}).get("calls", 0) for n in ("kernel.solve_startup", "kernel.solve_horizon"))
    attributed = sum(layer["self_s"] for layer in layers.values())
    snapshot_cpu = window.snapshot_cpu_s[1] - window.snapshot_cpu_s[0]
    return {
        "protocol.decode_batch_us_per_record": mean_us(layers, "protocol.decode_batch", "units"),
        "protocol.encode_batch_us_per_record": mean_us(layers, "protocol.encode_batch", "units"),
        "protocol.from_json_us": mean_us(layers, "protocol.from_json"),
        "protocol.to_json_us": mean_us(layers, "protocol.to_json"),
        "service.decide_batch_us_per_record": mean_us(layers, "service.decide_batch.vector", "units"),
        "service.decide_us": mean_us(layers, "service.decide_batch.scalar", "units"),
        "server.exchange_us": exchange_us,
        "server.http_self_us": exchange_us - inner * 1e6 / exchanges if exchanges else 0.0,
        "server.batch_occupancy_mean": (
            sum(int(size) * n for size, n in occupancy.items()) / batches if batches else 0.0
        ),
        "server.busy_share": window.worker_cpu_s / window.wall_s,
        "service.degraded.over-budget": reasons.get("over-budget", 0),
        "service.degraded.malformed": reasons.get("malformed", 0),
        "service.degraded.no-table": reasons.get("no-table", 0),
        "table.lookup_batch_us_per_record": mean_us(layers, "table.lookup_batch", "units"),
        "table.lookup_us": mean_us(layers, "table.lookup"),
        "table.swap_ms": swap_s * 1e3 / swaps if swaps else 0.0,
        "metrics.record_decision_us_per_record": mean_us(layers, "metrics.record_decision"),
        "backends.decide_us.robust-mpc": mean_us(layers, "backends.decide.robust-mpc"),
        "backends.decide_us.bola": mean_us(layers, "backends.decide.bola"),
        "kernel.startup_solve_ms": mean_us(layers, "kernel.solve_startup") / 1e3,
        "kernel.solve_calls": solves,
        "prior.us_per_request": prior_s * 1e6 / prior_calls if prior_calls else 0.0,
        "client.busy_share": window.generator_cpu_s / window.wall_s,
        "client.decode_us_per_record": (
            window.decode_s * 1e6 / window.decoded_records if window.decoded_records else 0.0
        ),
        "loadgen.late_p99_ms": percentile(window.late_s, 99) * 1e3 if window.late_s else 0.0,
        "layers.other_share": (snapshot_cpu - attributed) / snapshot_cpu if snapshot_cpu else 0.0,
        **ctx.phases,
    }


def _report(ctx: DecideContext, window: Window) -> str:
    after, before = window.metrics_after, window.metrics_before
    reasons = _counter_diff(after.get("fallback_reasons", {}), before.get("fallback_reasons", {}))
    lines = [
        f"{ctx.workload}: {window.decisions:,} decisions in {window.wall_s:.2f} s"
        f" over {window.exchanges:,} exchanges",
        f"  failed_share {window.failed / max(window.decisions, 1):.5f}"
        f" (degraded by reason: {reasons or 'none'}) | wrong {window.wrong}",
        f"  worker busy {window.worker_cpu_s / window.wall_s:.0%}"
        f" | generator busy {window.generator_cpu_s / window.wall_s:.0%}",
    ]
    latency = window.segment_values()
    lines.append(
        f"  request latency p50 {latency['request_p50_us']:,.0f} us | p99 {latency['request_p99_us']:,.0f} us"
        " (reported, not bounded: it follows the host's CPU steal)"
    )
    if window.late_s:
        lines.append(f"  generator lateness p99 {percentile(window.late_s, 99) * 1e3:.3f} ms"
                     f" | table swaps {window.swaps}")
    return "\n".join(lines)
