"""CPU cost of the asyncio front door itself, per pair answered.

Runs :class:`~repro.serve.frontdoor.FrontDoor` over an instant
in-process pool (its verdict for ``(s, t)`` is ``s <= t``, computed in
one vectorised step) with the repository benchmark's client shape:
closed-loop clients sending 8 pairs per request, half of them Zipf(1.2)
draws from a fixed hot set, half uniform.  With the pool's own work
near zero, what is left is the door: validation, the answer cache,
batching and the scatter back to each client.  Prints CPU microseconds
per pair of the main thread (the event loop and the clients) and of
all threads (adding the worker thread that calls the pool), then
checks every verdict outside the timed region.

Usage::

    PYTHONPATH=src python benchmarks/frontdoor_overhead.py [--seconds 5]
"""

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.serve.frontdoor import FrontDoor

# The client shape of the frontdoor-n workload (perfbench/workloads.py,
# class FrontdoorN) and its Human stand-in's vertex count.
N = 40051
CLIENTS = 32
REQUEST_PAIRS = 8  # half Zipf(1.2) over the hot set, half fresh uniform
HOT_PAIRS = 200_000
ZIPF_A = 1.2
WARMUP_REQUESTS = 16384  # untimed, so the answer cache has turned over
SEED = 11


class InstantPool:
    """A pool whose answers cost next to nothing: ``s <= t``."""

    def __init__(self, n: int) -> None:
        self.n = n

    def query_batch(self, pairs, engine=None):
        return pairs[:, 0] <= pairs[:, 1]

    def stats(self) -> dict:
        return {"health": "ok"}


async def run(seconds: float) -> int:
    rng = np.random.default_rng(SEED)
    hot = rng.integers(0, N, size=(HOT_PAIRS, 2), dtype=np.int64)
    half = REQUEST_PAIRS // 2
    door = FrontDoor(InstantPool(N))
    records: list = []

    async def client(cid: int, more) -> None:
        crng = np.random.default_rng([SEED, cid])
        while more():
            ranks = crng.zipf(ZIPF_A, size=half)
            pairs = np.concatenate(
                [hot[(ranks - 1) % len(hot)], crng.integers(0, N, size=(half, 2))]
            )
            records.append((pairs, await door.query(pairs)))

    async def drive(more) -> None:
        await asyncio.gather(*(client(c, more) for c in range(CLIENTS)))

    async with door:
        await drive(lambda: len(records) < WARMUP_REQUESTS)
        records.clear()
        wall0, main0, all0 = time.perf_counter(), time.thread_time(), time.process_time()
        stop = wall0 + seconds
        await drive(lambda: time.perf_counter() < stop)
        wall = time.perf_counter() - wall0
        main_s, all_s = time.thread_time() - main0, time.process_time() - all0

    pairs = np.concatenate([p for p, _ in records])
    got = np.concatenate([np.asarray(v, dtype=bool) for _, v in records])
    mismatches = int(np.count_nonzero(got != (pairs[:, 0] <= pairs[:, 1])))
    print(
        f"front door over an instant pool: {CLIENTS} clients x "
        f"{REQUEST_PAIRS} pairs, n={N}, hot set {HOT_PAIRS}, "
        f"{len(records)} requests in {wall:.2f} s"
    )
    print(f"  pairs/s               {len(pairs) / wall:10.0f}")
    metrics = door.metrics()
    # The door's counters include the warm-up.
    mean = metrics["mean_batch_pairs"]
    print(f"  batches               {door.batches:10d}, {mean} pairs each")
    print(f"  cache hit rate        {metrics['cache']['hit_rate']:10.3f}")
    print(f"  main-thread CPU/pair  {main_s / len(pairs) * 1e6:10.2f} us")
    print(f"  all-thread CPU/pair   {all_s / len(pairs) * 1e6:10.2f} us")
    print(f"  mismatches            {mismatches:10d}")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0, help="timed load")
    return asyncio.run(run(parser.parse_args().seconds))


if __name__ == "__main__":
    sys.exit(main())
