"""Per-stage CPU seconds of the sharded set-up path.

Partitions one registry stand-in graph with
:func:`~repro.core.partition.partition_kreach` and saves it with
:func:`~repro.core.serialize.save_sharded`, with a process-time wrapper
around each partitioner stage, so a change to one stage shows where
the set-up time went.  A stage called inside another is counted only in
the outer one; ``partition (rest)`` is the partitioner time no wrapper
covers (global index build, cover and triple slicing).

Usage::

    PYTHONPATH=src python benchmarks/partition_stages.py
    PYTHONPATH=src python benchmarks/partition_stages.py --k 6
"""

import argparse
import tempfile
import time
from collections import Counter
from pathlib import Path

import repro.core.partition as partition
from repro.core.serialize import save_sharded
from repro.core.vertex_cover import cover_from_strategy
from repro.datasets.registry import load
from repro.graph.digraph import DiGraph

#: Printed stage name -> partitioner helper it times.
STAGES = {
    "condensation": "condensation",
    "assign components": "_assign_components",
    "boundary": "_boundary_mask",
    "portal BFS": "_reach",
    "portal tables": "_portal_table",
    "compose": "_compose",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="Human")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--k", default="none", help="hop budget; 'none' is k = ∞")
    parser.add_argument("--shards", type=int, default=2)
    args = parser.parse_args()
    k = None if args.k == "none" else int(args.k)
    seconds: Counter = Counter()
    active: list[str] = []

    def timed(stage, fn):
        def wrapper(*a, **kw):
            if active:  # nested inside another stage, which counts it
                return fn(*a, **kw)
            active.append(stage)
            start = time.process_time()
            try:
                return fn(*a, **kw)
            finally:
                seconds[stage] += time.process_time() - start
                active.pop()

        return wrapper

    for stage, name in STAGES.items():
        setattr(partition, name, timed(stage, getattr(partition, name)))
    DiGraph.subgraph = timed("subgraph", DiGraph.subgraph)

    graph = load(args.dataset, scale=args.scale)
    cover = cover_from_strategy(graph, "degree")
    start = time.process_time()
    sharded = partition.partition_kreach(graph, k, args.shards, cover=cover)
    seconds["partition (rest)"] = time.process_time() - start - sum(seconds.values())
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "shards"
        start = time.process_time()
        save_sharded(sharded, manifest)
        seconds["save"] = time.process_time() - start
        size = sum(f.stat().st_size for f in manifest.iterdir())
    print(
        f"{args.dataset} x{args.scale}: n={graph.n} m={graph.m} "
        f"k={'∞' if k is None else k} shards={args.shards} "
        f"|B|={len(sharded.boundary)}"
    )
    for stage in [*STAGES, "subgraph", "partition (rest)", "save"]:
        print(f"  {stage:<18} {seconds[stage]:7.3f} s")
    print(f"  {'total':<18} {sum(seconds.values()):7.3f} s")
    print(f"  manifest {size} B = {size / graph.m:.1f} B per edge")


if __name__ == "__main__":
    main()
