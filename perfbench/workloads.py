"""The three benchmark workloads, driven only through the public API.

Each workload turns a seed into inputs (a stand-in graph written as an
edge-list file, plus its query stream), sets up from that file in a
fresh process, opens the served index in the main process, runs a
timed load phase and checks every answer it kept outside the timed
region.

* ``bulk-k6`` — the paper's uniform random pairs at k = 6 through a
  two-worker :class:`~repro.core.serve.QueryServer`; Case 1 dominates,
  so row-store lookups and pool IPC set the query time and the MS-BFS
  build sets the setup time.  It is not in ``BENCHMARK.json``: on a
  busy 2-vCPU virtual machine its CPU per pair rose by up to 70 % with
  the host's CPU steal, more than the gate's bound allows.
* ``frontdoor-n`` — classic reachability (k = None) on a partitioned
  index behind the asyncio :class:`~repro.serve.frontdoor.FrontDoor`:
  micro-batching, the answer cache, routing, stitching and the Case-4
  join.
* ``churn-k6`` — seeded write/read traces against
  :class:`~repro.core.dynamic.DynamicKReachIndex` reopened from its base
  snapshot with an fsync-ed :class:`~repro.core.serialize.OpLog` journal
  attached; write bursts and the maintenance they defer set the time.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.cputime import read_cpu_ticks, tree_cpu_seconds
from perfbench.tracer import Tracer, layer_table
from repro.core import (
    KReachIndex,
    OpLog,
    QueryServer,
    ShardedQueryServer,
    load_mmap,
    partition_kreach,
    recover_dynamic,
    save_mmap,
    save_sharded,
)
from repro.core.vertex_cover import cover_from_strategy
from repro.datasets.registry import load as load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.ingest import IngestStats, ingest_edge_list
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.traversal import reaches_within_bfs
from repro.serve.frontdoor import FrontDoor
from repro.workloads import churn_trace

perf = time.perf_counter


@dataclass
class Phase:
    """What one load phase did, measured and checked."""

    window: tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    pairs: int = 0
    latencies: list = field(default_factory=list)  # seconds per request
    stamps: list = field(default_factory=list)  # seconds into the load at each end
    sizes: list = field(default_factory=list)  # pairs per request
    write_latencies: list = field(default_factory=list)
    checked: int = 0
    mismatches: int = 0
    health: str = "ok"
    restarts: int = 0
    layers: dict = field(default_factory=dict)  # per-layer metrics
    cpu_s: float = 0.0  # CPU seconds of this process and its children in the window
    steal_frac: float = 0.0  # share of the guest's busy CPU time the host took
    _marks: tuple = ()

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def sent(self) -> int:
        """Requests answered or failed so far."""
        return len(self.latencies) + self.failed

    def open_window(self) -> float:
        """Start the load clocks; returns the wall-clock start."""
        self._marks = (tree_cpu_seconds(), read_cpu_ticks())
        lo = perf()
        self.window = (lo, lo)
        return lo

    def close_window(self) -> None:
        hi = perf()
        cpu0, (steal0, busy0) = self._marks
        steal1, busy1 = read_cpu_ticks()
        self.cpu_s = tree_cpu_seconds() - cpu0
        self.steal_frac = (steal1 - steal0) / max(1, busy1 - busy0)
        self.window = (self.window[0], hi)

    def cpu_us_per_pair(self) -> float:
        """CPU microseconds of the process tree per pair answered."""
        return self.cpu_s / self.pairs * 1e6 if self.pairs else 0.0

    def record(self, start: float, end: float, pairs: int) -> None:
        """One answered request of ``pairs`` pairs."""
        self.latencies.append(end - start)
        self.stamps.append(end - self.window[0])
        self.sizes.append(pairs)
        self.pairs += pairs


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space.

    ``VmHWM`` is read rather than ``ru_maxrss``: Linux carries the
    parent's resident size at fork over into the child's ``ru_maxrss``,
    so a small setup process would report the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def span_total(spans, name: str, lo: float, hi: float) -> float:
    return sum(s[3] - s[2] for s in spans if s[1] == name and lo <= s[3] <= hi)


def per_pair_us(index, pairs: np.ndarray, repeats: int = 3) -> float:
    """Median in-process ``query_batch`` time per pair, in microseconds.

    Subsets under 256 pairs report 0: their time is call overhead, not
    the case's cost per pair.
    """
    if len(pairs) < 256:
        return 0.0
    times = []
    for _ in range(repeats):
        start = perf()
        index.query_batch(pairs)
        times.append(perf() - start)
    return float(np.median(times)) / len(pairs) * 1e6


def case_layers(index, pairs: np.ndarray) -> dict:
    """Algorithm-2 case mix of ``pairs`` and the in-process cost per case."""
    codes = np.asarray(index.query_case_batch(pairs))
    out = {}
    for case in (1, 2, 3, 4):
        subset = pairs[codes == case][:65536]
        out[f"kreach.case{case}_frac"] = float(np.mean(codes == case))
        out[f"kreach.case{case}_us"] = per_pair_us(index, subset)
    return out


def distinct_frac(batches) -> float:
    """Mean share of distinct pairs per batch (what coalescing could save)."""
    shares = [len(np.unique(b, axis=0)) / len(b) for b in batches if len(b)]
    return float(np.mean(shares)) if shares else 0.0


def write_stand_in(dataset: str, scale: float, workdir: Path):
    """Generate the dataset's stand-in graph and write it as an edge list.

    The graph is the registry's fixed stand-in, as the paper fixes its
    datasets and draws only the queries at random; the run's seed picks
    the query pairs, hot set and write trace.
    """
    graph = load_dataset(dataset, scale=scale)
    path = workdir / f"{dataset.lower()}.edges"
    write_edge_list(graph, path)
    return graph, path


def ingest(edges: Path, rep_dir: Path, tracer: Tracer):
    stats = IngestStats()
    with tracer.span("ingest"):
        graph = ingest_edge_list(edges, tmp_dir=rep_dir, stats=stats)
    return graph, stats


class TimedPool:
    """The pool :class:`FrontDoor` calls, with a span around each batch.

    FrontDoor needs only ``query_batch`` and ``stats()``.  The batches
    are kept so their distinct-pair share can be measured afterwards.
    """

    def __init__(self, server, tracer: Tracer) -> None:
        self._server = server
        self._tracer = tracer
        self._ids = itertools.count()
        self.batches: list[np.ndarray] = []

    def query_batch(self, pairs, *, engine=None):
        self.batches.append(pairs)
        with self._tracer.span("sharded.query_batch", request=f"b{next(self._ids)}"):
            return self._server.query_batch(pairs, engine=engine)

    def stats(self) -> dict:
        return self._server.stats()


def patch_methods(tracer: Tracer, obj, names: dict[str, str]) -> None:
    """Shadow bound methods of one instance with traced ones (when tracing)."""
    if not tracer.enabled:
        return
    for attr, span_name in names.items():
        setattr(obj, attr, tracer.wrap(getattr(obj, attr), span_name))


def unpatch_methods(obj, names) -> None:
    for attr in names:
        obj.__dict__.pop(attr, None)


def door_counters(door) -> dict:
    """The front door's cumulative counters the per-layer metrics use."""
    names = ("cache_hits", "cache_misses", "batched_pairs", "batches", "admission_rejects")
    return {name: getattr(door, name) for name in names}


class Workload:
    name = ""
    dataset = ""
    scale = 1.0
    k: int | None = None
    # Set-ups per run, each in a fresh process; ``setup_s`` is their
    # median.  The host's speed differs from one process to the next by
    # up to 1.4x, so a short set-up is repeated more often.
    setup_reps = 5

    def inputs(self, seed: int, workdir: Path, seconds: float) -> dict:
        graph, edges = write_stand_in(self.dataset, self.scale, workdir)
        return {"seed": seed, "edges": edges, "n": graph.n}

    def setup(self, inputs: dict, rep_dir: Path, tracer: Tracer) -> dict:
        raise NotImplementedError

    def open(self, inputs: dict, built: dict, tracer: Tracer):
        raise NotImplementedError

    def load(self, state, inputs: dict, seconds: float, tracer: Tracer, phase_dir: Path) -> Phase:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# bulk-k6
# ----------------------------------------------------------------------
class BulkK6(Workload):
    name = "bulk-k6"
    dataset = "CiteSeer"
    scale = 0.5
    k = 6
    batch = 8192
    workers = 2
    check_every = 8  # every 8th served batch is replayed in-process
    warmup_batches = 32  # fault the mmap-ed rows into the workers before timing
    bfs_batches, bfs_pairs = 8, 32  # BFS-oracle sample: 32 pairs of 8 batches

    def _pairs(self, seed: int, i: int, n: int, stream: int = 1) -> np.ndarray:
        rng = np.random.default_rng([seed, stream, i])
        return rng.integers(0, n, size=(self.batch, 2), dtype=np.int64)

    def setup(self, inputs, rep_dir, tracer):
        path = rep_dir / "index.kr5"
        start, cpu0 = perf(), tree_cpu_seconds()
        graph, stats = ingest(inputs["edges"], rep_dir, tracer)
        with tracer.span("vertex_cover"):
            cover = cover_from_strategy(graph, "degree")
        with tracer.span("kreach.build"):
            index = KReachIndex(graph, self.k, cover=cover)
        with tracer.span("serialize.save"):
            save_mmap(index, path)
        with tracer.span("serve.start"):
            server = QueryServer(path, workers=self.workers)
        try:
            with tracer.span("serve.first_answer"):
                server.query_batch([(0, 0)])
            setup_s = perf() - start
            setup_cpu_s = tree_cpu_seconds() - cpu0
        finally:
            server.close()
        return {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "artifact": str(path),
            "sizes": {
                "n": graph.n,
                "m": graph.m,
                "cover": len(cover),
                "index_edges": index.edge_count,
                "index_bytes": tree_bytes(path),
                "spill_runs": stats.spill_runs,
            },
        }

    def open(self, inputs, built, tracer):
        path = built["artifact"]
        with tracer.span("serialize.open", request="open"):
            ref = load_mmap(path)
        with tracer.span("kreach.prepare", request="open"):
            ref.prepare_batch()
        server = QueryServer(path, workers=self.workers)
        return {"ref": ref, "server": server, "oracle": read_edge_list(inputs["edges"])}

    def close(self, state):
        state["server"].close()

    def load(self, state, inputs, seconds, tracer, phase_dir):
        server, ref, seed = state["server"], state["ref"], inputs["seed"]
        n = ref.graph.n
        hooks = {"submit": "serve.submit", "collect": "serve.collect"}
        patch_methods(tracer, server, hooks)
        kept = []  # (batch number, packed verdicts, latency)
        for i in range(self.warmup_batches):
            server.query_batch(self._pairs(seed, i, n, stream=7))
        phase = Phase()
        lo = phase.open_window()
        stop = lo + seconds
        i = 0
        while perf() < stop:
            pairs = self._pairs(seed, i, n)
            start = perf()
            try:
                with tracer.span("serve.query_batch", request=i):
                    verdicts = server.query_batch(pairs)
            except Exception as exc:  # counted as a failed request
                phase.failures[type(exc).__name__] += 1
            else:
                end = perf()
                phase.record(start, end, len(pairs))
                if i % self.check_every == 0:
                    kept.append((i, np.packbits(verdicts), end - start))
            i += 1
        phase.close_window()
        phase.attempted = i
        unpatch_methods(server, hooks)
        stats = server.stats()
        phase.health, phase.restarts = stats["health"], stats["restarts"]

        replay_s = served_s = 0.0
        sample = []
        for number, packed, took in kept:
            pairs = self._pairs(seed, number, n)
            start = perf()
            expect = ref.query_batch(pairs)
            replay_s += perf() - start
            served_s += took
            got = np.unpackbits(packed, count=len(pairs)).astype(bool)
            phase.checked += len(pairs)
            phase.mismatches += int(np.count_nonzero(got != expect))
            if len(sample) < self.bfs_batches:
                sample.append((pairs[: self.bfs_pairs], got[: self.bfs_pairs]))
        for pairs, got in sample:
            for (s, t), verdict in zip(pairs.tolist(), got.tolist()):
                phase.checked += 1
                if reaches_within_bfs(state["oracle"], s, t, self.k) != verdict:
                    phase.mismatches += 1
        if tracer.enabled:
            head = [self._pairs(seed, number, n) for number, _, _ in kept[:8]]
            phase.layers.update(case_layers(ref, np.concatenate(head)))
            phase.layers["batch.distinct_frac"] = distinct_frac(head)
            phase.layers["serve.ipc_overhead_frac"] = (
                1.0 - replay_s / served_s if served_s else 0.0
            )
        return phase


# ----------------------------------------------------------------------
# frontdoor-n
# ----------------------------------------------------------------------
class FrontdoorN(Workload):
    name = "frontdoor-n"
    dataset = "Human"
    scale = 1.0
    k = None
    shards = 2
    clients = 32
    request_pairs = 8  # half Zipf(1.2) over the hot set, half fresh uniform
    hot_pairs = 200_000
    zipf_a = 1.2
    # Requests sent before timing, so the answer cache has turned over
    # about once (4 misses per request against 65,536 entries) and is
    # as warm in the first timed second as in the last.
    warmup_requests = 16384

    def inputs(self, seed, workdir, seconds):
        out = super().inputs(seed, workdir, seconds)
        rng = np.random.default_rng([seed, 2])
        out["hot"] = rng.integers(0, out["n"], size=(self.hot_pairs, 2), dtype=np.int64)
        return out

    def setup(self, inputs, rep_dir, tracer):
        manifest = rep_dir / "shards"
        start, cpu0 = perf(), tree_cpu_seconds()
        graph, stats = ingest(inputs["edges"], rep_dir, tracer)
        with tracer.span("vertex_cover"):
            cover = cover_from_strategy(graph, "degree")
        with tracer.span("partition"):
            sharded = partition_kreach(graph, self.k, self.shards, cover=cover)
        with tracer.span("serialize.save"):
            save_sharded(sharded, manifest)
        with tracer.span("serve.start"):
            server = ShardedQueryServer(manifest, workers=1, backend="process")
        try:
            with tracer.span("serve.first_answer"):
                server.query_batch([(0, 0)])
            setup_s = perf() - start
            setup_cpu_s = tree_cpu_seconds() - cpu0
        finally:
            server.close()
        uniform = np.random.default_rng([inputs["seed"], 5]).integers(
            0, graph.n, size=(65536, 2), dtype=np.int64
        )
        cross = sharded.route(uniform[:, 0], uniform[:, 1]) < 0
        return {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "artifact": str(manifest),
            "sizes": {
                "n": graph.n,
                "m": graph.m,
                "cover": len(cover),
                "index_edges": sum(s.index.edge_count for s in sharded.shards),
                "index_bytes": tree_bytes(manifest),
                "spill_runs": stats.spill_runs,
                "boundary": int(len(sharded.boundary)),
                "uniform_cross_frac": float(cross.mean()),
                "hot_pairs": self.hot_pairs,
                "cache_pairs": inspect.signature(FrontDoor).parameters["cache_pairs"].default,
            },
        }

    def open(self, inputs, built, tracer):
        server = ShardedQueryServer(built["artifact"], workers=1, backend="process")
        ref = KReachIndex(read_edge_list(inputs["edges"]), self.k)
        ref.prepare_batch()
        return {"server": server, "ref": ref}

    def close(self, state):
        state["server"].close()

    def load(self, state, inputs, seconds, tracer, phase_dir):
        return asyncio.run(self._load(state, inputs, seconds, tracer))

    async def _client(self, door, rng, inputs, more, ids, tracer, phase, records):
        hot, n = inputs["hot"], inputs["n"]
        half = self.request_pairs // 2
        while more():
            ranks = rng.zipf(self.zipf_a, size=half)
            pairs = np.concatenate(
                [hot[(ranks - 1) % len(hot)], rng.integers(0, n, size=(half, 2))]
            )
            request = next(ids)
            start = perf()
            try:
                with tracer.span("frontdoor.request", request=request):
                    verdicts = await door.query(pairs)
            except Exception as exc:  # refusals and timeouts included
                phase.failures[type(exc).__name__] += 1
            else:
                phase.record(start, perf(), len(pairs))
                records.append((pairs, verdicts))

    async def _load(self, state, inputs, seconds, tracer):
        server, ref = state["server"], state["ref"]
        sharded = server.sharded
        route_hooks = {"route": "sharded.route", "stitch": "sharded.stitch"}
        pool_hooks = {"submit": "serve.submit", "collect": "serve.collect"}
        patch_methods(tracer, sharded, route_hooks)
        for pool in server.servers:
            patch_methods(tracer, pool, pool_hooks)
        timed = TimedPool(server, tracer) if tracer.enabled else None
        records: list = []
        ids = itertools.count()
        door = FrontDoor(timed or server)

        async def drive(stream, more, phase, records):
            await asyncio.gather(
                *(
                    self._client(
                        door,
                        np.random.default_rng([inputs["seed"], stream, c]),
                        inputs,
                        more,
                        ids,
                        tracer,
                        phase,
                        records,
                    )
                    for c in range(self.clients)
                )
            )

        async with door:
            warm = Phase()
            await drive(8, lambda: warm.sent < self.warmup_requests, warm, records)
            counters, before = door_counters(door), server.stats()
            if timed:
                timed.batches.clear()
            phase = Phase()
            lo = phase.open_window()
            stop = lo + seconds
            await drive(3, lambda: perf() < stop, phase, records)
            phase.close_window()
        # Warm-up requests count as attempted too, so none of their
        # failures is hidden; their answers are checked with the rest.
        phase.attempted = warm.sent + phase.sent
        phase.failures.update(warm.failures)
        counters = {k: v - counters[k] for k, v in door_counters(door).items()}
        unpatch_methods(sharded, route_hooks)
        for pool in server.servers:
            unpatch_methods(pool, pool_hooks)
        after = server.stats()
        phase.health, phase.restarts = after["health"], after["restarts"]

        if records:
            pairs = np.concatenate([p for p, _ in records])
            got = np.concatenate([np.asarray(v, dtype=bool) for _, v in records])
            phase.checked = len(pairs)
            phase.mismatches = int(np.count_nonzero(got != ref.query_batch(pairs)))
        if tracer.enabled:
            lo, hi = phase.window
            served = after["pairs_served"] - before["pairs_served"]
            lookups = counters["cache_hits"] + counters["cache_misses"]
            pool_s = span_total(tracer.spans, "sharded.query_batch", lo, hi)
            replay_s = 0.0
            if timed.batches:
                sharded.query_batch(timed.batches[0])  # lazy preparation, untimed
            for batch in timed.batches:  # the same batches, in-process
                start = perf()
                sharded.query_batch(batch)
                replay_s += perf() - start
            table = layer_table(tracer.spans, lo, hi)
            requests = table.get("frontdoor.request", {"calls": 0, "self_s": 0.0})
            phase.layers.update(
                case_layers(ref, pairs[:262144]) if records else {}
            )
            phase.layers.update(
                {
                    "batch.distinct_frac": distinct_frac(timed.batches),
                    "partition.cross_frac": (
                        (after["cross_pairs"] - before["cross_pairs"]) / served
                        if served
                        else 0.0
                    ),
                    "frontdoor.cache_hit_rate": (
                        counters["cache_hits"] / lookups if lookups else 0.0
                    ),
                    "frontdoor.mean_batch_pairs": (
                        counters["batched_pairs"] / counters["batches"]
                        if counters["batches"]
                        else 0.0
                    ),
                    "frontdoor.pool_busy_frac": pool_s / (hi - lo),
                    "serve.ipc_overhead_frac": 1.0 - replay_s / pool_s if pool_s else 0.0,
                    "frontdoor.wait_ms": (
                        requests["self_s"] / requests["calls"] * 1e3
                        if requests["calls"]
                        else 0.0
                    ),
                    "frontdoor.admission_rejects": counters["admission_rejects"],
                }
            )
        return phase


# ----------------------------------------------------------------------
# churn-k6
# ----------------------------------------------------------------------
class ChurnK6(Workload):
    name = "churn-k6"
    dataset = "CiteSeer"
    scale = 0.1
    k = 6
    setup_reps = 15  # 0.1 s each
    read_fraction = 5 / 6
    read_pairs = 2048
    write_burst = 8
    # The load is a run of segments; each reopens the base snapshot with
    # a fresh journal and replays one whole seeded trace of
    # ``segment_events`` events.  One long trace drifts (the maintained
    # cover only grows), and a segment cut by the clock would let a
    # faster run reach dearer positions of its trace; whole segments of
    # fixed length give every run the same work mix.
    segment_events = 40
    segments_per_second = 4  # distinct traces generated per second of load
    check_pairs = 8  # BFS-checked pairs per read batch

    def inputs(self, seed, workdir, seconds):
        graph, edges = write_stand_in(self.dataset, self.scale, workdir)
        traces = [
            churn_trace(
                graph,
                self.segment_events,
                read_fraction=self.read_fraction,
                batch_size=self.read_pairs,
                write_burst=self.write_burst,
                rng=np.random.default_rng([seed, 4, segment]),
            )
            for segment in range(max(1, int(self.segments_per_second * seconds)))
        ]
        return {"seed": seed, "edges": edges, "n": graph.n, "traces": traces}

    def _open_dynamic(self, base: Path, log: Path, tracer: Tracer):
        """Base snapshot + empty fsync-ed journal -> a served dynamic index."""
        journal = OpLog(log)  # fsync=True: every accepted write is durable
        with tracer.span("serialize.open"):
            dyn = recover_dynamic(base, log)
        patch_methods(tracer, journal, {"append": "serialize.oplog_append"})
        dyn.attach_journal(journal)
        with tracer.span("kreach.prepare"):
            dyn.prepare_batch()
        return dyn, journal

    def setup(self, inputs, rep_dir, tracer):
        base = rep_dir / "base.kr5"
        start, cpu0 = perf(), tree_cpu_seconds()
        graph, stats = ingest(inputs["edges"], rep_dir, tracer)
        with tracer.span("vertex_cover"):
            cover = cover_from_strategy(graph, "degree")
        with tracer.span("kreach.build"):
            index = KReachIndex(graph, self.k, cover=cover)
        with tracer.span("serialize.save"):
            save_mmap(index, base)
        dyn, journal = self._open_dynamic(base, rep_dir / "ops.log", tracer)
        try:
            with tracer.span("serve.first_answer"):
                dyn.query_batch([(0, 0)])
            setup_s = perf() - start
            setup_cpu_s = tree_cpu_seconds() - cpu0
        finally:
            journal.close()
        return {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "artifact": str(base),
            "sizes": {
                "n": graph.n,
                "m": graph.m,
                "cover": len(cover),
                "index_edges": index.edge_count,
                "index_bytes": tree_bytes(base),
                "spill_runs": stats.spill_runs,
            },
        }

    def open(self, inputs, built, tracer):
        return {"base": Path(built["artifact"])}

    def load(self, state, inputs, seconds, tracer, phase_dir):
        pick = np.random.default_rng([inputs["seed"], 6])
        phase = Phase()
        lo = phase.open_window()
        peak_overlay = compactions = 0
        replayed = []  # (trace, samples, index) per segment, checked after
        stop = lo + seconds
        traces = inputs["traces"]
        for segment in itertools.count():
            if perf() >= stop:
                break
            trace = traces[segment % len(traces)]
            log = phase_dir / f"ops{segment}.log"
            with tracer.span("open", request="open"):
                dyn, journal = self._open_dynamic(state["base"], log, tracer)
            samples = {}  # trace position -> (sampled rows, their verdicts)
            settle_due = False
            i = 0
            try:
                while i < len(trace):
                    op = trace[i]
                    try:
                        if op[0] == "query":
                            if settle_due and tracer.enabled:
                                with tracer.span("dynamic.settle", request=i):
                                    dyn.prepare_batch()
                            settle_due = False
                            start = perf()
                            with tracer.span("dynamic.read", request=i):
                                verdicts = dyn.query_batch(op[1])
                            phase.record(start, perf(), len(op[1]))
                            rows = pick.choice(len(op[1]), self.check_pairs, replace=False)
                            samples[i] = (rows, verdicts[rows])
                        else:
                            write = dyn.insert_edge if op[0] == "insert" else dyn.delete_edge
                            start = perf()
                            with tracer.span("dynamic.write", request=i):
                                write(op[1], op[2])
                            phase.write_latencies.append(perf() - start)
                            settle_due = True
                    except Exception as exc:  # counted as a failed request
                        phase.failures[type(exc).__name__] += 1
                    if tracer.enabled:
                        peak_overlay = max(peak_overlay, dyn.overlay_rows)
                    i += 1
            finally:
                journal.close()
            phase.attempted += i
            compactions += dyn.compactions
            replayed.append((trace, samples, dyn))
        phase.close_window()
        for ops, samples, dyn in replayed:
            self._check(inputs, ops, samples, dyn, phase)
        phase.layers.update(
            {"dynamic.compactions": compactions, "dynamic.peak_overlay_rows": peak_overlay}
        )
        if tracer.enabled:
            reads = [op[1] for ops, _, _ in replayed for op in ops if op[0] == "query"]
            phase.layers.update(case_layers(dyn, np.concatenate(reads[:32])))
            phase.layers["batch.distinct_frac"] = distinct_frac(reads)
        return phase

    def _check(self, inputs, replayed, samples, dyn, phase) -> None:
        """BFS-check each read's sample on the graph that read saw.

        The graph is rebuilt from the edge file and the trace's writes,
        not from the index, and the index's final graph must match it.
        """
        graph = read_edge_list(inputs["edges"], n=inputs["n"])
        live = set(graph.edges())
        for pos, op in enumerate(replayed):
            if op[0] == "query":
                if pos not in samples:
                    continue
                if graph is None:
                    graph = DiGraph(inputs["n"], sorted(live))
                rows, verdicts = samples[pos]
                for (s, t), verdict in zip(op[1][rows].tolist(), verdicts.tolist()):
                    phase.checked += 1
                    if reaches_within_bfs(graph, s, t, self.k) != verdict:
                        phase.mismatches += 1
            else:
                (live.add if op[0] == "insert" else live.discard)((op[1], op[2]))
                graph = None
        if set(dyn.to_digraph().edges()) != live:
            phase.mismatches += 1


WORKLOADS = {w.name: w for w in (BulkK6(), FrontdoorN(), ChurnK6())}


def run_setup(name: str, inputs: dict, rep_dir: str, traced: bool) -> dict:
    """One setup in a fresh process: timings, sizes, peak RSS and spans."""
    tracer = Tracer(traced)
    rep = Path(rep_dir)
    with tracer.span("setup", request=rep.name):
        out = WORKLOADS[name].setup(inputs, rep, tracer)
    out["peak_rss_mb"] = peak_rss_mb()
    out["spans"] = tracer.spans
    return out
