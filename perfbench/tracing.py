"""Outside-in span tracing for the benchmark's traced run.

Nothing under ``src/`` is instrumented for this.  :class:`Tracer`
installs wrappers around public functions and methods of each layer (by
rebinding the module or class attribute), records one span per call and
removes every wrapper again on :meth:`Tracer.uninstall`.  Untraced runs
never construct a tracer, so they run the unmodified code.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for an operation's root) and ``op`` the operation
id.  Spans stay in memory and are written out when the benchmark ends.
A span's *self* time is its duration minus the durations of its direct
children; because calls nest strictly (the simulator is single-threaded
and no wrapped function is a generator), the self times of every span of
one operation add up exactly to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import defaultdict

from repro.checkpoint import dcp, full, incremental, recovery, restart
from repro.mem import address_space
from repro.mpi import communicator
from repro.net import network
from repro.sim import engine
from repro.storage import archive, disk, integrity, store

#: the benchmark's own code inside an operation (glue and output checks)
ROOT = "bench"

#: (owner, attribute, span name).  A function imported by name into
#: several modules is wrapped at every binding the run path calls.
TARGETS = (
    (engine.Engine, "run", "sim"),
    (address_space.AddressSpace, "mmap", "mem.map"),
    (address_space.AddressSpace, "mmap_fixed", "mem.map"),
    (address_space.AddressSpace, "munmap", "mem.map"),
    (address_space.AddressSpace, "sbrk", "mem.map"),
    (address_space.AddressSpace, "reset_and_protect", "mem.sweep"),
    (address_space.AddressSpace, "data_summary", "mem.sweep"),
    (address_space.AddressSpace, "state_signature", "mem.signature"),
    # the choke points of point-to-point sends and collective fan-outs
    (communicator.RankComm, "_send", "mpi.send"),
    (communicator.RankComm, "_send_many", "mpi.send"),
    (network.Network, "send", "net.send"),
    (network.Network, "send_many", "net.send"),
    (network.Network, "storage_send", "net.storage_send"),
    (incremental.IncrementalCheckpointer, "capture", "checkpoint.capture"),
    (incremental.IncrementalCheckpointer, "observe", "checkpoint.observe"),
    (full.FullCheckpointer, "capture", "checkpoint.capture"),
    (dcp.DcpCheckpointer, "capture", "checkpoint.dcp.capture"),
    (dcp.DcpCheckpointer, "mark_baseline", "checkpoint.dcp.baseline"),
    (recovery.RecoveryManager, "restore_all", "checkpoint.restore"),
    (recovery, "apply_chain", "checkpoint.restore"),
    (restart, "apply_chain", "checkpoint.restore"),
    (recovery, "replay_chain", "checkpoint.restore"),
    (store.CheckpointStore, "put", "storage.put"),
    (integrity, "piece_digest", "storage.digest"),
    (store, "piece_digest", "storage.digest"),
    (archive, "piece_digest", "storage.digest"),
    (integrity, "verify_chain", "storage.verify"),
    (store, "verify_chain", "storage.verify"),
    (archive, "verify_chain", "storage.verify"),
    (recovery, "verify_chain", "storage.verify"),
    (disk.Disk, "write", "storage.disk_write"),
    (archive, "save_store", "storage.archive.save"),
    (archive, "load_store", "storage.archive.load"),
    (archive, "scan_store", "storage.archive.scan"),
)

#: every span name a traced operation can report, root first
SPAN_NAMES = (ROOT, "cluster") + tuple(dict.fromkeys(t[2] for t in TARGETS))


def _payload_nbytes(payload) -> int:
    """Array bytes a piece digest hashes (0 when no payload is kept)."""
    if payload is None:
        return 0
    total = 0
    for p in payload.payloads:
        total += p.indices.nbytes + p.versions.nbytes
        raw = getattr(p, "block_bytes", None)
        if raw is None:
            raw = getattr(p, "page_bytes", None)
        if raw is not None:
            total += raw.nbytes
    return total


class Tracer:
    """In-memory span recorder plus the per-call counters that belong to
    the same layer boundaries.

    ``delays`` maps a span name to seconds of busy-waiting added inside
    every span of that name: the layer-sensitivity self-test uses it to
    slow exactly one layer by a known amount.
    """

    def __init__(self, delays: dict | None = None):
        self.delays = dict(delays or {})
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []
        self.counters: dict = defaultdict(int)
        self.capture_ms: list[float] = []
        self.engines: dict = {}
        self.networks: dict = {}
        #: op id -> (first, end) indices of its spans in ``spans``
        self._ranges: dict[int, tuple[int, int]] = {}

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, attr: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        delay = self.delays.get(name, 0.0)
        after = self._after_hook(name, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if delay:
                    until = clock() + delay
                    while clock() < until:
                        pass
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1,
                              tracer._op)
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _after_hook(self, name: str, attr: str):
        """Counters taken at the span's boundary from its arguments and
        result (work counts, not timings)."""
        c = self.counters
        if name == "sim":
            def after(args, kwargs, result, dur):
                self.engines[id(args[0])] = args[0]
        elif name == "mem.map":
            def after(args, kwargs, result, dur):
                c["mem.maps"] += 1
        elif attr == "reset_and_protect":
            def after(args, kwargs, result, dur):
                c["mem.pages_protected"] += result
        elif attr == "_send":
            def after(args, kwargs, result, dur):
                c["mpi.bytes_sent"] += args[2]
        elif attr == "_send_many":
            def after(args, kwargs, result, dur):
                c["mpi.bytes_sent"] += args[2] * len(result)
        elif name == "net.send":
            def after(args, kwargs, result, dur):
                self.networks[id(args[0])] = args[0]
        elif name == "checkpoint.capture":
            def after(args, kwargs, result, dur):
                c[f"checkpoint.captures_{result.kind}"] += 1
                c["checkpoint.bytes_captured"] += result.nbytes
                self.capture_ms.append(dur * 1e3)
        elif name == "checkpoint.dcp.capture":
            def after(args, kwargs, result, dur):
                inc = args[0]
                c["checkpoint.dcp.captures"] += 1
                c["checkpoint.dcp.blocks_hashed"] += inc.last_blocks_hashed
                c["checkpoint.dcp.blocks_written"] += inc.last_blocks_written
        elif attr == "replay_chain":
            def after(args, kwargs, result, dur):
                c["checkpoint.bytes_restored"] += sum(
                    ck.nbytes for ck in args[0])
        elif name == "storage.digest":
            def after(args, kwargs, result, dur):
                payload = (args[4] if len(args) > 4
                           else kwargs.get("payload"))
                c["storage.bytes_digested"] += _payload_nbytes(payload)
        else:
            return None
        return after

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        """Open the root span of a new operation."""
        self._op += 1
        self.counters.clear()
        self.capture_ms = []
        self.engines = {}
        self.networks = {}
        self._root = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._root)
        self._root_t0 = time.perf_counter()

    def end_op(self) -> float:
        """Close the root span; returns the operation's traced wall time."""
        t1 = time.perf_counter()
        self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of an operation")
        self.spans[self._root] = (ROOT, self._root_t0, t1, -1, self._op)
        self._ranges[self._op] = (self._root, len(self.spans))
        return t1 - self._root_t0

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code (``with`` block)."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, stack[-1] if stack else -1, self._op)

    def engine_counts(self) -> dict:
        """Exact engine work counters summed over every engine of the
        current operation (one per life under fault injection)."""
        events = cancelled = epochs = 0
        for eng in self.engines.values():
            stats = eng.stats()
            events += stats["dispatched"]
            cancelled += stats["cancelled"]
            if eng.timer_hub is not None:
                epochs += eng.timer_hub.stats()["epochs"]
        return {"sim.events": events, "sim.cancelled": cancelled,
                "sim.timer_epochs": epochs}

    def network_counts(self) -> dict:
        return {"net.messages": sum(n.messages_delivered
                                    for n in self.networks.values()),
                "net.bytes": sum(n.bytes_delivered
                                 for n in self.networks.values())}

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per span name over one operation's spans."""
        first, end = self._ranges[op]
        spans = self.spans
        child = defaultdict(float)
        for i in range(first, end):
            name, t0, t1, parent, _ = spans[i]
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(first, end):
            name, t0, t1, _, _ = spans[i]
            out[name] += (t1 - t0) - child.get(i, 0.0)
        return out

    def span_total(self, op: int, name: str) -> float:
        """Summed duration of the outermost spans of ``name`` in ``op``."""
        first, end = self._ranges[op]
        spans = self.spans
        total = 0.0
        for i in range(first, end):
            s = spans[i]
            if s[0] != name:
                continue
            parent = s[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total += s[2] - s[1]
        return total

    def dump(self, path) -> None:
        """Write every span, gzip-compressed, as JSON lines ``[name,
        start_us, end_us, parent, op]`` with times in microseconds from
        the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(
                f'["{n}",{round((t0 - base) * 1e6)},'
                f'{round((t1 - base) * 1e6)},{p},{op}]\n'
                for n, t0, t1, p, op in self.spans)
