"""Async front-door suite.

Pins the batching front end's contract: many concurrent clients get
bit-exact verdicts through micro-batched pool queries, the pool is
never re-entered, a backlog leaves in calls of ``max_batch`` pairs, no
task is created per request, ``close()`` answers pending requests at
once, bad requests are refused alone, the LRU cache serves repeats
and invalidates on churn, admission control sheds load instead of
queueing without bound, the HTTP surface exposes ``/healthz`` +
``/metrics``, and a worker SIGKILL injected through the faults
registry never produces a wrong or dropped verdict.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core.kreach import KReachIndex
from repro.core.partition import partition_kreach
from repro.core.serialize import save_mmap, save_sharded
from repro.core.serve import ThreadQueryServer
from repro.core.sharded import ShardedQueryServer
from repro.graph.generators import gnp_digraph
from repro.serve import FrontDoor, FrontDoorOverloaded, http_request
from repro.workloads import random_pairs


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(80, 0.05, seed=21)


@pytest.fixture(scope="module")
def reference(graph):
    return KReachIndex(graph, 6).prepare_batch()


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    directory = tmp_path_factory.mktemp("door") / "m2"
    save_sharded(partition_kreach(graph, 6, 2), directory)
    return directory


class TestBatching:
    def test_64_concurrent_clients_agree(self, graph, reference, manifest):
        async def scenario():
            with ShardedQueryServer(manifest, backend="thread") as server:
                async with FrontDoor(
                    server, window_ms=3, max_batch=2048, cache_pairs=4096
                ) as door:
                    async def client(cid):
                        rng = np.random.default_rng(cid)
                        ok = True
                        for _ in range(4):
                            p = rng.integers(0, graph.n, size=(16, 2))
                            got = await door.query(p.tolist())
                            ok &= got == reference.query_batch(p).tolist()
                        return ok
                    results = await asyncio.gather(
                        *[client(i) for i in range(64)]
                    )
                    metrics = door.metrics()
            return results, metrics

        results, metrics = asyncio.run(scenario())
        assert all(results)
        assert metrics["requests"] == 256
        # Micro-batching actually aggregated: far fewer flushes than
        # requests, and multi-request batches on average.
        assert metrics["batches"] < metrics["requests"]
        assert metrics["mean_batch_pairs"] > 16
        assert metrics["latency_ms"]["p50"] is not None
        assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"]

    def test_max_batch_forces_flush(self, graph, reference):
        async def scenario():
            class CountingServer:
                def __init__(self):
                    self.batches = []

                def query_batch(self, pairs, engine=None):
                    self.batches.append(len(pairs))
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            spy = CountingServer()
            async with FrontDoor(
                spy, window_ms=200, max_batch=64, cache_pairs=0
            ) as door:
                pairs = np.stack(
                    [np.arange(64), np.roll(np.arange(64), 1)], axis=1
                )
                waiters = [
                    door.query(pairs[i : i + 16].tolist())
                    for i in range(0, 64, 16)
                ]
                await asyncio.gather(*waiters)
            return spy.batches

        batches = asyncio.run(scenario())
        # 64 pairs hit max_batch=64 well before the 200ms window closes.
        assert sum(batches) == 64 and len(batches) <= 2


class _SpyPool:
    """Answers from ``reference``; records batch sizes and overlapping calls."""

    def __init__(self, reference, delay=0.0, n=None):
        self.reference = reference
        self.delay = delay
        if n is not None:
            self.n = n
        self.batches = []
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def query_batch(self, pairs, engine=None):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            time.sleep(self.delay)
            self.batches.append(len(pairs))
            return self.reference.query_batch(pairs)
        finally:
            with self._lock:
                self.active -= 1

    def stats(self):
        return {"health": "ok"}


class _GatedPool(_SpyPool):
    """Holds each call until ``release`` is set; ``entered`` marks a call begun."""

    def __init__(self, reference):
        super().__init__(reference)
        self.entered, self.release = threading.Event(), threading.Event()

    def query_batch(self, pairs, engine=None):
        self.entered.set()
        self.release.wait(5)
        return super().query_batch(pairs, engine)


class TestBatcherContract:
    def test_pool_never_reentered_under_64_clients(self, graph, reference):
        spy = _SpyPool(reference, delay=0.002)

        async def scenario():
            async with FrontDoor(spy, window_ms=0.5, cache_pairs=0) as door:
                async def client(cid):
                    rng = np.random.default_rng(cid)
                    ok = True
                    for _ in range(5):
                        # Staggered, so requests arrive while a call is in flight.
                        await asyncio.sleep(rng.random() * 0.004)
                        p = rng.integers(0, graph.n, size=(8, 2))
                        ok &= await door.query(p) == reference.query_batch(p).tolist()
                    return ok

                return await asyncio.gather(*[client(i) for i in range(64)])

        assert all(asyncio.run(scenario()))
        assert spy.max_active == 1
        assert sum(spy.batches) == 64 * 5 * 8

    def test_close_answers_pending_without_waiting_out_the_window(self, reference):
        spy = _SpyPool(reference)

        async def scenario():
            door = FrontDoor(spy, window_ms=1000, cache_pairs=0)
            waiters = [
                asyncio.ensure_future(door.query([[i, i + 1]])) for i in range(4)
            ]
            await asyncio.sleep(0.01)  # all four are pending in the open window
            assert spy.batches == []
            start = time.monotonic()
            await door.close()
            assert all(w.done() for w in waiters)
            return time.monotonic() - start, await asyncio.gather(*waiters)

        elapsed, got = asyncio.run(scenario())
        assert elapsed < 0.5
        want = reference.query_batch(np.array([[i, i + 1] for i in range(4)]))
        assert [v for (v,) in got] == want.tolist()
        assert spy.batches == [4]

    def test_cancelled_client_leaves_no_backlog(self, reference):
        pool = _GatedPool(reference)

        async def scenario():
            async with FrontDoor(
                pool, window_ms=0, cache_pairs=0
            ) as door:
                doomed = asyncio.ensure_future(door.query([[0, 5], [5, 9]]))
                await asyncio.to_thread(pool.entered.wait, 5)  # its flush is in flight
                doomed.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                assert door.metrics()["backlog_pairs"] == 2
                pool.release.set()
                # The next window opens once the cancelled rider's flush returns.
                after = await asyncio.wait_for(door.query([[9, 0]]), 5)
                return after, door.metrics()["backlog_pairs"]

        after, backlog = asyncio.run(scenario())
        assert after == reference.query_batch(np.array([[9, 0]])).tolist()
        assert backlog == 0

    def test_max_batch_caps_each_pool_call(self, graph, reference):
        pool = _GatedPool(reference)
        rng = np.random.default_rng(5)
        first = rng.integers(0, graph.n, size=(8, 2))
        rest = [rng.integers(0, graph.n, size=(4, 2)) for _ in range(5)]

        async def scenario():
            async with FrontDoor(
                pool, window_ms=0, max_batch=8, cache_pairs=0
            ) as door:
                head = asyncio.ensure_future(door.query(first))
                await asyncio.to_thread(pool.entered.wait, 5)  # 8 pairs in flight
                tail = [asyncio.ensure_future(door.query(p)) for p in rest]
                await asyncio.sleep(0.01)  # 20 pairs pend behind the call
                pool.release.set()
                got = await asyncio.gather(head, *tail)
                return got, door.metrics()["batch_occupancy"]

        got, occupancy = asyncio.run(scenario())
        want = [reference.query_batch(p).tolist() for p in [first, *rest]]
        assert got == want
        # The backlog leaves in max_batch-sized calls, oldest first.
        assert pool.batches == [8, 8, 8, 4]
        assert occupancy == 28 / 32

    def test_no_task_per_request(self, graph, reference):
        clients, rounds = 8, 50

        async def scenario():
            created = 0

            def factory(loop, coro, **kwargs):
                nonlocal created
                created += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            async with FrontDoor(
                _SpyPool(reference), window_ms=5, cache_pairs=0
            ) as door:
                async def client(cid):
                    rng = np.random.default_rng(cid)
                    for _ in range(rounds):
                        await door.query(rng.integers(0, graph.n, size=(8, 2)))

                asyncio.get_running_loop().set_task_factory(factory)
                await asyncio.gather(*[client(i) for i in range(clients)])
                asyncio.get_running_loop().set_task_factory(None)
                return created, door.batches, door.requests

        created, batches, requests = asyncio.run(scenario())
        assert requests == clients * rounds
        assert batches < requests / 2  # the bound below is then meaningful
        # The gather's one task per client, plus at most one per flush.
        assert created <= batches + clients + 2


class TestValidation:
    def test_bad_request_does_not_fail_its_batch(self, graph, reference, tmp_path):
        path = tmp_path / "g.kr"
        save_mmap(reference, path)

        async def scenario():
            with ThreadQueryServer(path, workers=1) as server:
                async with FrontDoor(server, window_ms=20) as door:
                    return await asyncio.gather(
                        door.query([[0, 5], [5, 9]]),
                        door.query([[0, 10**9]]),
                        return_exceptions=True,
                    )

        good, bad = asyncio.run(scenario())
        assert good == reference.query_batch(np.array([[0, 5], [5, 9]])).tolist()
        assert isinstance(bad, ValueError) and "out of range" in str(bad)

    @pytest.mark.parametrize(
        "pairs, n",
        [
            ([[0.9, 5.7]], 80),
            ([[1, 2, 3]], 80),
            ([[-1, 2]], 80),
            ([[True, False]], 80),
            ([[0, 80]], 80),
            (np.array([[0, 2**63]], dtype=np.uint64), None),  # past int64
        ],
    )
    def test_malformed_pairs_never_reach_the_pool(self, reference, pairs, n):
        spy = _SpyPool(reference, n=n)

        async def scenario():
            async with FrontDoor(spy, window_ms=0) as door:
                with pytest.raises(ValueError):
                    await door.query(pairs)
                return door.requests

        assert asyncio.run(scenario()) == 0
        assert spy.batches == []


class TestMetrics:
    def test_qps_divides_by_uptime_while_it_is_short(self, reference):
        async def scenario():
            async with FrontDoor(_SpyPool(reference), window_ms=0) as door:
                await door.query([[i, i + 1] for i in range(40)])
                await asyncio.sleep(0.05)
                return door.metrics()

        metrics = asyncio.run(scenario())
        # 40 pairs in well under a second: qps is pairs per second of
        # uptime, not pairs per 10 s.
        assert metrics["qps"] == pytest.approx(40 / metrics["uptime_s"], rel=0.05)
        assert metrics["qps"] > 40


class TestCache:
    def test_hot_pairs_served_from_cache(self, graph, reference):
        async def scenario():
            calls = []

            class SpyServer:
                def query_batch(self, pairs, engine=None):
                    calls.append(len(pairs))
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            async with FrontDoor(
                SpyServer(), window_ms=0, cache_pairs=1024
            ) as door:
                hot = [[0, 5], [5, 9], [9, 0]]
                first = await door.query(hot)
                second = await door.query(hot)
                metrics = door.metrics()
                # Churn: invalidation empties the cache and misses again.
                door.invalidate_cache()
                third = await door.query(hot)
            return first, second, third, calls, metrics

        first, second, third, calls, metrics = asyncio.run(scenario())
        assert first == second == third
        assert first == reference.query_batch(np.array([[0, 5], [5, 9], [9, 0]])).tolist()
        assert calls == [3, 3]  # second round never reached the pool
        assert metrics["cache"]["hits"] == 3
        assert metrics["cache"]["hit_rate"] == 0.5

    def test_in_flight_answers_skip_an_invalidated_cache(self, reference):
        pool = _GatedPool(reference)

        async def scenario():
            async with FrontDoor(pool, window_ms=0) as door:
                pending = asyncio.ensure_future(door.query([[0, 5], [5, 9]]))
                await asyncio.to_thread(pool.entered.wait, 5)
                door.invalidate_cache()  # churn while the batch is in flight
                pool.release.set()
                got = await pending
                return got, door.metrics()["cache"]["entries"]

        got, entries = asyncio.run(scenario())
        assert got == reference.query_batch(np.array([[0, 5], [5, 9]])).tolist()
        assert entries == 0  # pre-churn verdicts were not written back

    def test_lru_eviction_bounds_entries(self, graph, reference):
        async def scenario():
            class Srv:
                def query_batch(self, pairs, engine=None):
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            async with FrontDoor(Srv(), window_ms=0, cache_pairs=8) as door:
                for i in range(40):
                    await door.query([[i % graph.n, (i + 1) % graph.n]])
                return door.metrics()["cache"]["entries"]

        assert asyncio.run(scenario()) <= 8


class TestAdmission:
    def test_backlog_sheds_load(self, graph, reference):
        async def scenario():
            started = asyncio.Event()

            class SlowServer:
                def query_batch(self, pairs, engine=None):
                    import time as _time

                    _time.sleep(0.2)
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            door = FrontDoor(
                SlowServer(), window_ms=0, max_batch=4, cache_pairs=0,
                max_backlog=8,
            )
            async with door:
                big = np.stack(
                    [np.arange(8), np.roll(np.arange(8), 1)], axis=1
                ).tolist()
                first = asyncio.ensure_future(door.query(big))
                await asyncio.sleep(0.05)  # batcher now owns 8 pairs
                with pytest.raises(FrontDoorOverloaded):
                    await door.query([[1, 2]])
                verdicts = await first
                rejects = door.admission_rejects
            return verdicts, rejects

        verdicts, rejects = asyncio.run(scenario())
        assert len(verdicts) == 8 and rejects == 1


class TestHttp:
    def test_routes(self, graph, reference, manifest):
        async def scenario():
            with ShardedQueryServer(manifest, backend="thread") as server:
                door = FrontDoor(server, window_ms=1)
                host, port = await door.start_http()
                pairs = [[0, 5], [5, 9]]
                status, body = await http_request(
                    host, port, "POST", "/query", {"pairs": pairs}
                )
                hz = await http_request(host, port, "GET", "/healthz")
                mt = await http_request(host, port, "GET", "/metrics")
                bad = await http_request(
                    host, port, "POST", "/query", {"wrong": 1}
                )
                lost = await http_request(host, port, "GET", "/nope")
                await door.close()
            return status, body, hz, mt, bad, lost

        status, body, hz, mt, bad, lost = asyncio.run(scenario())
        assert status == 200
        assert body["verdicts"] == reference.query_batch(
            np.array([[0, 5], [5, 9]])
        ).tolist()
        assert hz[0] == 200 and hz[1]["status"] == "ok"
        assert mt[0] == 200 and mt[1]["server"]["health"] == "ok"
        assert "worker_restarts" in mt[1]["server"]["shards"][0]
        assert bad[0] == 400
        assert lost[0] == 404

    def test_query_validation_is_400(self, reference):
        async def scenario():
            class Srv:
                def query_batch(self, pairs, engine=None):
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            door = FrontDoor(Srv(), window_ms=0)
            host, port = await door.start_http()
            oob = await http_request(
                host, port, "POST", "/query", {"pairs": [[0, 10**9]]}
            )
            fractional = await http_request(
                host, port, "POST", "/query", {"pairs": [[0.9, 5.7]]}
            )
            await door.close()
            return oob, fractional

        (status, body), fractional = asyncio.run(scenario())
        assert status == 400 and "error" in body
        assert fractional[0] == 400 and "integer" in fractional[1]["error"]


class TestFaults:
    def test_worker_sigkill_no_wrong_or_dropped_verdicts(
        self, tmp_path, graph, reference, manifest
    ):
        """SIGKILL a shard worker (faults registry) under live traffic."""

        async def scenario():
            with faults.inject(
                "serve.worker_exit", "exit", token=str(tmp_path / "tok")
            ):
                with ShardedQueryServer(
                    manifest,
                    workers=1,
                    backend="process",
                    server_kwargs={"slot_pairs": 256},
                ) as server:
                    async with FrontDoor(
                        server, window_ms=2, cache_pairs=0
                    ) as door:
                        async def client(cid):
                            rng = np.random.default_rng(100 + cid)
                            p = rng.integers(0, graph.n, size=(64, 2))
                            got = await door.query(p.tolist())
                            return got == reference.query_batch(p).tolist()

                        results = await asyncio.gather(
                            *[client(i) for i in range(16)]
                        )
                    restarts = server.stats()["restarts"]
            return results, restarts

        results, restarts = asyncio.run(scenario())
        assert all(results)  # every verdict delivered, none wrong
