"""An asyncio batching front door for the k-reach serving pools.

Many concurrent clients each hold a handful of ``(s, t)`` pairs; the
pools underneath (:class:`~repro.core.sharded.ShardedQueryServer`,
:class:`~repro.core.serve.QueryServer`, or
:class:`~repro.core.serve.ThreadQueryServer`) are happiest with large
batches.  :class:`FrontDoor` bridges the two:

* **Micro-batching.**  A request's uncached pairs join a pending list.
  The first pending request opens a window with one event-loop timer
  (``window_ms``); the window flushes when the timer fires or as soon
  as ``max_batch`` pairs are pending, whichever comes first, and sends
  pending requests oldest first until the call holds ``max_batch``
  pairs.  At most one pool call is in flight (the pools are not
  thread-safe): it runs in a worker thread so the event loop keeps
  accepting clients, and when it returns the next window opens over
  whatever is pending.  No task, queue or timeout is created per
  request.
* **Validation per request.**  Pairs that are not integer ids, not an
  ``(m, 2)`` array, or (when the pool exposes ``n``) outside
  ``[0, n)`` are refused with :class:`ValueError` (HTTP 400) before
  they join a batch, so one bad request never fails its batch-mates.
* **Hot-pair answer cache.**  An LRU of recent verdicts
  (``cache_pairs`` entries) short-circuits repeat queries — social
  workloads hit the same celebrity pairs constantly.  The cache is
  generation-stamped: :meth:`FrontDoor.invalidate_cache` bumps the
  generation (call it after graph churn), and in-flight requests from
  an old generation never write stale verdicts back.
* **Admission control.**  When the uncollected backlog exceeds
  ``max_backlog`` pairs, new work is refused with
  :class:`FrontDoorOverloaded` (HTTP 503 on the wire) instead of
  growing the pending list without bound.
* **Observability.**  ``GET /healthz`` reports pool health;
  ``GET /metrics`` returns structured counters — qps (pairs per
  second), batch occupancy, cache hit rate, p50/p99 latency, admission
  rejects, and the per-shard pool stats (including per-worker restart
  counts) straight from ``server.stats()``.

The HTTP surface is a deliberately minimal HTTP/1.1 implementation on
``asyncio.start_server`` — three JSON routes, connection-close
semantics — so the serving tier stays dependency-free.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from collections import OrderedDict, deque
from itertools import chain

import numpy as np

__all__ = ["FrontDoor", "FrontDoorOverloaded", "http_request"]


class FrontDoorOverloaded(RuntimeError):
    """Admission control refused a request: backlog over ``max_backlog``."""

    def __init__(self, backlog: int, limit: int) -> None:
        super().__init__(
            f"front door overloaded: {backlog} pairs queued (limit {limit})"
        )
        self.backlog = backlog
        self.limit = limit


class FrontDoor:
    """Aggregate concurrent async clients into batched pool queries.

    Parameters
    ----------
    server:
        Any pool with ``query_batch(pairs, engine=...)`` and
        ``stats()`` — sharded or single.  A pool that exposes ``n``
        gets its vertex range checked per request.
    window_ms:
        Micro-batch window: how long the door waits after the first
        pending request for more riders before flushing.
    max_batch:
        Flush immediately once this many pairs have accumulated.  A
        pool call takes pending requests only until it holds this many
        pairs; the rest wait for the next flush.
    cache_pairs:
        LRU answer-cache capacity in pairs (0 disables caching).
    max_backlog:
        Admission-control bound on enqueued-but-unflushed pairs.
    engine:
        Engine override forwarded to the pool.
    """

    def __init__(
        self,
        server,
        *,
        window_ms: float = 2.0,
        max_batch: int = 8192,
        cache_pairs: int = 65536,
        max_backlog: int = 65536,
        engine: str | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._server = server
        self._n = getattr(server, "n", 2**63)  # else any id the pools' int64 holds
        self._window = max(0.0, window_ms) / 1000.0
        self._max_batch = int(max_batch)
        self._cache_cap = int(cache_pairs)
        self._max_backlog = int(max_backlog)
        self._engine = engine
        # Each pending request: its uncached pairs as s0, t0, s1, t1, ...
        # and the future its client awaits.
        self._pending: list[tuple[list[int], asyncio.Future]] = []
        self._pending_pairs = 0
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: asyncio.Future | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._closed = False
        self._born = time.monotonic()

        # Stays empty when cache_pairs=0, so every lookup misses.
        self._cache: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._cache_generation = 0
        self._backlog_pairs = 0

        # Counters and reservoirs for /metrics.
        self.requests = 0
        self.pairs_served = 0
        self.batches = 0
        self.batched_pairs = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.admission_rejects = 0
        self._latencies: deque[float] = deque(maxlen=4096)  # seconds
        self._qps_window: deque[tuple[float, int]] = deque()

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> "FrontDoor":
        """Ready the door (idempotent); batching needs no background task."""
        return self

    async def start_http(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the HTTP listener; returns the bound ``(host, port)``."""
        await self.start()
        self._http_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._http_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Graceful shutdown: stop the listener, flush pending requests now.

        The underlying pool is **not** closed — the caller owns it.
        """
        if self._closed:
            return
        self._closed = True
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        self._arm()  # closed: flushes now instead of opening a window
        while self._inflight is not None:
            await asyncio.wait([self._inflight])

    async def __aenter__(self) -> "FrontDoor":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------- serving

    async def query(self, pairs) -> list[bool]:
        """Answer a client's pairs (cache first, batched pool second).

        Malformed pairs raise :class:`ValueError` before joining a batch.
        """
        if self._closed:
            raise RuntimeError("front door is closed")
        # The checks and messages of core.batch.as_pair_arrays, inlined:
        # on 8-pair requests its int64 copy, numpy min/max and column
        # splits cost about 1 us per pair more (benchmarks/frontdoor_overhead.py).
        arr = np.asarray(pairs)
        if arr.size == 0:
            return []
        if arr.dtype.kind not in "iu":
            raise ValueError(f"pairs must be integer vertex ids, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"pairs must be an (m, 2) array, got shape {arr.shape}")
        flat = arr.ravel().tolist()
        if min(flat) < 0 or max(flat) >= self._n:
            raise ValueError(f"query vertex out of range [0, {self._n})")
        self.requests += 1
        born = time.monotonic()
        keys = list(zip(flat[::2], flat[1::2]))
        cache, generation = self._cache, self._cache_generation
        out: list = []
        missing: list[int] = []
        for i, key in enumerate(keys):
            hit = cache.get(key)
            if hit is None:
                missing.append(i)
            else:
                cache.move_to_end(key)
            out.append(hit)
        self.cache_hits += len(keys) - len(missing)
        self.cache_misses += len(missing)

        if missing:
            if self._backlog_pairs + len(missing) > self._max_backlog:
                self.admission_rejects += 1
                raise FrontDoorOverloaded(self._backlog_pairs, self._max_backlog)
            future = asyncio.get_running_loop().create_future()
            self._pending.append(([v for i in missing for v in keys[i]], future))
            self._pending_pairs += len(missing)
            self._backlog_pairs += len(missing)
            self._arm()
            verdicts = await future
            fill = self._cache_cap > 0 and generation == self._cache_generation
            for i, verdict in zip(missing, verdicts):
                out[i] = verdict
                if fill:
                    cache[keys[i]] = verdict
                    cache.move_to_end(keys[i])
                    if len(cache) > self._cache_cap:
                        cache.popitem(last=False)

        now = time.monotonic()
        self._latencies.append(now - born)
        self.pairs_served += len(keys)
        self._qps_window.append((now, len(keys)))
        while self._qps_window and now - self._qps_window[0][0] > 10.0:
            self._qps_window.popleft()
        return out

    def invalidate_cache(self) -> None:
        """Drop every cached verdict (call after graph churn).

        Requests already in flight carry the old generation and will
        not re-populate the cache with pre-churn answers.
        """
        self._cache_generation += 1
        self._cache.clear()

    # ------------------------------------------------------------ batching

    def _arm(self) -> None:
        """Flush if full or closed, else open a window (not while a call is out)."""
        if self._inflight is not None or not self._pending:
            return
        if self._pending_pairs >= self._max_batch or self._closed:
            self._flush()
        elif self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(self._window, self._flush)

    def _flush(self) -> None:
        """Send pending requests, oldest first, up to ``max_batch`` pairs."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        take = total = 0
        while total < self._max_batch and take < len(self._pending):
            total += len(self._pending[take][0]) // 2
            take += 1
        batch = self._pending[:take]
        del self._pending[:take]  # the rest ride the next flush
        self._pending_pairs -= total
        self.batches += 1
        self.batched_pairs += total
        flat = np.array(list(chain.from_iterable(f for f, _ in batch)), dtype=np.int64)
        call = functools.partial(
            self._server.query_batch, flat.reshape(-1, 2), engine=self._engine
        )
        self._inflight = asyncio.get_running_loop().run_in_executor(None, call)
        self._inflight.add_done_callback(functools.partial(self._deliver, batch, total))

    def _deliver(self, batch, total: int, done: asyncio.Future) -> None:
        """Scatter a finished pool call's verdicts (or error) to its riders."""
        self._inflight = None
        self._backlog_pairs -= total
        try:
            verdicts = np.asarray(done.result(), dtype=bool).tolist()
        except BaseException as exc:  # propagate to every rider
            error = exc if isinstance(exc, Exception) else RuntimeError(repr(exc))
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            if error is not exc:
                raise  # an interrupt, exit or cancellation goes on to the loop
        else:
            offset = 0
            for flat, future in batch:
                if not future.done():  # the client may have been cancelled
                    future.set_result(verdicts[offset : offset + len(flat) // 2])
                offset += len(flat) // 2
        finally:
            self._arm()

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Structured serving metrics plus the pool's own ``stats()``.

        ``qps`` counts pairs (not requests) answered per second over the
        last 10 s, or over the uptime while that is shorter.
        """
        latencies = np.array(self._latencies, dtype=np.float64)
        now = time.monotonic()
        window = [n for ts, n in self._qps_window if now - ts <= 10.0]
        span = min(10.0, now - self._born)
        total_cache = self.cache_hits + self.cache_misses
        return {
            "uptime_s": round(now - self._born, 3),
            "requests": self.requests,
            "pairs_served": self.pairs_served,
            "qps": round(sum(window) / span, 2) if window else 0.0,
            "batches": self.batches,
            "batch_occupancy": round(
                self.batched_pairs / (self.batches * self._max_batch), 4
            )
            if self.batches
            else 0.0,
            "mean_batch_pairs": round(self.batched_pairs / self.batches, 1)
            if self.batches
            else 0.0,
            "backlog_pairs": self._backlog_pairs,
            "admission_rejects": self.admission_rejects,
            "cache": {
                "entries": len(self._cache),
                "capacity": self._cache_cap,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hits / total_cache, 4)
                if total_cache
                else 0.0,
                "generation": self._cache_generation,
            },
            "latency_ms": {
                "p50": round(float(np.percentile(latencies, 50)) * 1000, 3)
                if len(latencies)
                else None,
                "p99": round(float(np.percentile(latencies, 99)) * 1000, 3)
                if len(latencies)
                else None,
            },
            "server": self._server.stats(),
        }

    def healthz(self) -> dict:
        health = self._server.stats().get("health", "ok")
        return {
            "status": health,
            "backlog_pairs": self._backlog_pairs,
            "uptime_s": round(time.monotonic() - self._born, 3),
        }

    # ----------------------------------------------------------------- HTTP

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0].upper(), parts[1]
            content_length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    content_length = int(value.strip())
            body = await reader.readexactly(content_length) if content_length else b""
            status, payload = await self._dispatch(method, path, body)
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            return
        except Exception as exc:  # never kill the listener on one request
            status, payload = 500, {"error": str(exc)}
        try:
            blob = json.dumps(payload).encode("utf-8")
            reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                      503: "Service Unavailable", 500: "Internal Server Error"}
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(blob)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + blob
            )
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/healthz":
            report = self.healthz()
            return (200 if report["status"] == "ok" else 503), report
        if method == "GET" and path == "/metrics":
            return 200, self.metrics()
        if method == "POST" and path == "/query":
            try:
                pairs = json.loads(body.decode("utf-8"))["pairs"]
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                return 400, {"error": f"bad request: {exc}"}
            try:  # query() validates the pairs themselves
                verdicts = await self.query(pairs)
            except FrontDoorOverloaded as exc:
                return 503, {"error": str(exc)}
            except (ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            return 200, {"verdicts": verdicts}
        return 404, {"error": f"no route for {method} {path}"}


async def http_request(
    host: str, port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict]:
    """Tiny JSON-over-HTTP client for tests, examples, and CI smoke.

    Returns ``(status_code, decoded_json_body)``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest.decode("utf-8")) if rest else {}
