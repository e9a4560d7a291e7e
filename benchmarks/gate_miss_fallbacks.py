"""CPU µs per Case-4 pair for each gate-miss fallback.

When the Case-4 link matrix misses its memory gate
(``bitset_matrix_bytes``; ``0`` always misses), the static index answers
Case 4 by :func:`~repro.core.batch.case4_chunked` (chunked cross
products with a scalar hub spill) and the dynamic index walks each pair
through its scalar ``query``.  This script times both, plus the bitset
join inside the gate, on uncovered random pairs of the citation
stand-ins and on the §1 celebrity crossfire, and checks that every path
returns the same verdicts.  Each cell is the median of ``REPEATS`` warm
runs with their range, ``median [min-max]``; the dynamic walk's cold
first run is printed on its own, since it is dominated by one-time setup.

Usage::

    PYTHONPATH=src python benchmarks/gate_miss_fallbacks.py
"""

import time

import numpy as np

from repro.core import KReachIndex
from repro.core.dynamic import DynamicKReachIndex
from repro.datasets.registry import load
from repro.graph.generators import celebrity_crossfire_digraph

# The settings behind the gate-miss table in README "Memory gate" and
# ROADMAP item 2.  The dynamic walk is the slowest path per pair on the
# citation stand-ins, so it is timed on the first WALK_PAIRS pairs only.
K = 6
PAIRS = 4000
WALK_PAIRS = 200
SEED = 1
REPEATS = 5


def case4_pairs(index: KReachIndex, count: int, seed: int) -> np.ndarray:
    """``count`` random Case-4 pairs (both endpoints uncovered, s != t)."""
    rng = np.random.default_rng(seed)
    found, total = [], 0
    while total < count:
        pairs = rng.integers(0, index.graph.n, size=(20_000, 2), dtype=np.int64)
        keep = (index.query_case_batch(pairs) == 4) & (pairs[:, 0] != pairs[:, 1])
        found.append(pairs[keep])
        total += int(keep.sum())
    return np.concatenate(found)[:count]


def cpu_us_per_pair(query_batch, pairs: np.ndarray) -> tuple[float, list[float], np.ndarray]:
    """CPU µs per pair of a cold first run, then of ``REPEATS`` warm runs.

    The cold run pays one-time lazy setup (the dynamic walk's first
    call materializes the base index's flat weight dict); the warm runs
    are the steady state.  Also returns the verdicts.
    """
    runs = []
    for _ in range(1 + REPEATS):
        start = time.process_time()
        verdicts = query_batch(pairs)
        runs.append(1e6 * (time.process_time() - start) / len(pairs))
    return runs[0], runs[1:], verdicts


def cell(runs: list[float]) -> str:
    return f"{np.median(runs):.1f} [{min(runs):.1f}-{max(runs):.1f}]"


def main() -> None:
    graphs = [
        (f"{name} x0.5", load(name, scale=0.5), None)
        for name in ("CiteSeer", "ArXiv", "PubMed")
    ]
    graphs.append(
        (
            "crossfire 600/60/300",
            celebrity_crossfire_digraph(600, 60, 300, seed=0),
            frozenset(range(600)),
        )
    )
    print(f"CPU µs per Case-4 pair, k={K}, warm: median [min-max] of {REPEATS} runs")
    print(f"{'graph':22s} {'chunked':>20s} {'walk':>20s} {'walk cold':>10s} {'bitset':>20s}")
    for label, g, cover in graphs:
        kwargs = {} if cover is None else {"cover": cover}
        gated = KReachIndex(g, K, bitset_matrix_bytes=0, **kwargs)
        gated.prepare_batch()
        pairs = case4_pairs(gated, PAIRS, SEED)
        _, chunked, expected = cpu_us_per_pair(gated.query_batch, pairs)
        dyn = DynamicKReachIndex.from_base(gated)
        dyn.prepare_batch()
        few = pairs[:WALK_PAIRS]
        cold, walk, walked = cpu_us_per_pair(dyn.query_batch, few)
        fits = KReachIndex(g, K, cover=gated.cover).prepare_batch()
        _, bitset, joined = cpu_us_per_pair(fits.query_batch, pairs)
        if not (np.array_equal(expected, joined) and np.array_equal(expected[: len(few)], walked)):
            raise SystemExit(f"{label}: fallbacks disagree")
        print(
            f"{label:22s} {cell(chunked):>20s} {cell(walk):>20s}"
            f" {cold:10.1f} {cell(bitset):>20s}"
        )


if __name__ == "__main__":
    main()
