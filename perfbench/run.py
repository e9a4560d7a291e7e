"""The repository benchmark: one seeded workload per run, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-k6 --seed 1 --seconds 10 --trace 0

The run writes the workload's stand-in graph as an edge-list file, then
sets up from that file ``setup_reps`` times, each time in a fresh
process (``setup_s`` and ``peak_rss_mb`` are the medians), opens the
last build for serving and runs a timed load phase.  Answers are
checked after the clock stops; any mismatch, or a degraded pool, makes
the run exit 1.  ``setup_s`` is CPU seconds of the set-up's processes
and ``cpu_us_per_pair`` the load's CPU seconds per pair answered, in
microseconds: CPU stolen by a virtual machine's host swung wall-clock
figures by 3x between runs, and CPU time leaves it out (see
``perfbench/cputime.py``).  Wall-clock set-up time, pairs/s, p50/p99
latency and failures are printed beside them, ungated.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
load once untraced and once with spans around every layer call, and
prints the per-layer metrics, the load time no span covers
(``trace.unexplained_s``) and the tracing overhead (traced minus
untraced).  Human-readable lines come first; the last line of standard
output is one JSON object.  A report with provenance, sizes and (when
traced) every span goes to ``.perfbench-out/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bulk-k6", "frontdoor-n", "churn-k6")

# Spans recorded during the load phase; each gets a self-time and a
# call-count metric in the traced run.
LOAD_SPANS = (
    "serve.query_batch",
    "serve.submit",
    "serve.collect",
    "frontdoor.request",
    "sharded.query_batch",
    "sharded.route",
    "sharded.stitch",
    "dynamic.read",
    "dynamic.write",
    "dynamic.settle",
    "serialize.oplog_append",
)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    from repro import native

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_tier": native.active(),
    }


def setup_layer(builds, main_spans, name: str) -> float:
    """Median over setups of the time one setup spent in span ``name``.

    Falls back to the main process's own open (spans tagged ``open``) for the
    layers a workload pays only there.
    """
    per_build = [
        sum(s[3] - s[2] for s in b["spans"] if s[1] == name)
        for b in builds
        if any(s[1] == name for s in b["spans"])
    ]
    if per_build:
        return median(per_build)
    return sum(s[3] - s[2] for s in main_spans if s[1] == name and s[5] == "open")


def wall_figures(phase) -> dict:
    """Wall-clock pairs/s, p50 and tail latency of one load phase."""
    from perfbench.cputime import tail_ms

    if not phase.latencies:
        return {"pairs_per_s": 0.0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_q": 0.0}
    tail, q = tail_ms(phase.latencies)
    return {
        "pairs_per_s": phase.pairs / phase.wall_s,
        "p50_ms": float(np.median(phase.latencies)) * 1e3,
        "tail_ms": tail,
        "tail_q": q,
    }


def end_to_end(builds) -> dict:
    return {
        "setup_s": (median(b["setup_cpu_s"] for b in builds), "s"),
        "peak_rss_mb": (median(b["peak_rss_mb"] for b in builds), "MB"),
        "bytes_per_edge": (
            builds[-1]["sizes"]["index_bytes"] / builds[-1]["sizes"]["m"],
            "B",
        ),
    }


def wall_clock(builds, phase) -> dict:
    """The figures a user waits on, printed but not gated (see ``cputime``)."""
    wall = wall_figures(phase)
    out = {
        "setup_wall_s": (median(b["setup_s"] for b in builds), "s"),
        "pairs_per_s": (wall["pairs_per_s"], "pairs/s"),
        "latency_p50_ms": (wall["p50_ms"], "ms"),
        "latency_p99_ms": (wall["tail_ms"], "ms"),
        "failed_frac": (phase.failed / max(1, phase.attempted), "ratio"),
    }
    if phase.write_latencies:
        from perfbench.cputime import tail_ms

        out["write_p50_ms"] = (float(np.median(phase.write_latencies)) * 1e3, "ms")
        out["write_p99_ms"] = (tail_ms(phase.write_latencies)[0], "ms")
    return out


def per_layer(builds, main_spans, plain, traced) -> dict:
    from perfbench.cputime import tail_ms
    from perfbench.tracer import covered_seconds, layer_table
    from perfbench.workloads import span_total

    sizes = builds[-1]["sizes"]
    lo, hi = traced.window
    spans = [s for s in main_spans if lo <= s[3] <= hi]
    layers = traced.layers

    def total(name):
        return span_total(spans, name, lo, hi)

    m = {
        "ingest.s": (setup_layer(builds, main_spans, "ingest"), "s"),
        "ingest.spill_runs": (sizes["spill_runs"], "count"),
        "vertex_cover.s": (setup_layer(builds, main_spans, "vertex_cover"), "s"),
        "vertex_cover.size": (sizes["cover"], "count"),
        "kreach.build_s": (setup_layer(builds, main_spans, "kreach.build"), "s"),
        "kreach.prepare_s": (setup_layer(builds, main_spans, "kreach.prepare"), "s"),
        "kreach.index_edges": (sizes["index_edges"], "count"),
        "serialize.save_s": (setup_layer(builds, main_spans, "serialize.save"), "s"),
        "serialize.open_s": (setup_layer(builds, main_spans, "serialize.open"), "s"),
        "serialize.file_bytes": (sizes["index_bytes"], "B"),
        "serialize.oplog_append_s": (total("serialize.oplog_append"), "s"),
        "partition.s": (setup_layer(builds, main_spans, "partition"), "s"),
        "partition.boundary": (sizes.get("boundary", 0), "count"),
        "partition.cross_frac": (layers.get("partition.cross_frac", 0.0), "ratio"),
    }
    for case in (1, 2, 3, 4):
        m[f"kreach.case{case}_frac"] = (layers.get(f"kreach.case{case}_frac", 0.0), "ratio")
        m[f"kreach.case{case}_us"] = (layers.get(f"kreach.case{case}_us", 0.0), "us")
    write_p50 = float(np.median(plain.write_latencies)) * 1e3 if plain.write_latencies else 0.0
    write_p99 = tail_ms(plain.write_latencies)[0] if plain.write_latencies else 0.0
    m.update(
        {
            "batch.distinct_frac": (layers.get("batch.distinct_frac", 0.0), "ratio"),
            "serve.busy_s": (
                covered_seconds([s for s in spans if s[1].startswith("serve.")], lo, hi),
                "s",
            ),
            "serve.ipc_overhead_frac": (layers.get("serve.ipc_overhead_frac", 0.0), "ratio"),
            "serve.restarts": (traced.restarts, "count"),
            "sharded.busy_s": (total("sharded.query_batch"), "s"),
            "sharded.route_s": (total("sharded.route"), "s"),
            "sharded.stitch_s": (total("sharded.stitch"), "s"),
            "frontdoor.cache_hit_rate": (layers.get("frontdoor.cache_hit_rate", 0.0), "ratio"),
            "frontdoor.mean_batch_pairs": (layers.get("frontdoor.mean_batch_pairs", 0.0), "pairs"),
            "frontdoor.pool_busy_frac": (layers.get("frontdoor.pool_busy_frac", 0.0), "ratio"),
            "frontdoor.wait_ms": (layers.get("frontdoor.wait_ms", 0.0), "ms"),
            "frontdoor.admission_rejects": (layers.get("frontdoor.admission_rejects", 0), "count"),
            "dynamic.write_s": (total("dynamic.write"), "s"),
            "dynamic.settle_s": (total("dynamic.settle"), "s"),
            "dynamic.read_s": (total("dynamic.read"), "s"),
            "dynamic.compactions": (layers.get("dynamic.compactions", 0), "count"),
            "dynamic.peak_overlay_rows": (layers.get("dynamic.peak_overlay_rows", 0), "count"),
            "dynamic.write_p50_ms": (write_p50, "ms"),
            "dynamic.write_p99_ms": (write_p99, "ms"),
            "trace.unexplained_s": (traced.wall_s - covered_seconds(spans, lo, hi), "s"),
            "trace.overhead_cpu_us_per_pair": (
                traced.cpu_us_per_pair() - plain.cpu_us_per_pair(),
                "us",
            ),
            "trace.overhead_p50_ms": (
                wall_figures(traced)["p50_ms"] - wall_figures(plain)["p50_ms"],
                "ms",
            ),
        }
    )
    table = layer_table(spans, lo, hi)
    for name in LOAD_SPANS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        m[f"self_s.{name}"] = (row["self_s"], "s")
        m[f"calls.{name}"] = (row["calls"], "count")
    return m


def run(args) -> int:
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, run_setup

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    out_dir = ROOT / ".perfbench-out"
    work_root = ROOT / ".perfbench-work"
    out_dir.mkdir(exist_ok=True)
    work_root.mkdir(exist_ok=True)
    info = provenance()
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workdir = Path(tmp)
        inputs = workload.inputs(args.seed, workdir, args.seconds)
        child_inputs = {key: inputs[key] for key in ("seed", "edges", "n")}
        builds = []
        spawn = multiprocessing.get_context("spawn")
        for rep in range(workload.setup_reps):
            rep_dir = workdir / f"setup{rep}"
            rep_dir.mkdir()
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                builds.append(
                    pool.submit(run_setup, workload.name, child_inputs, str(rep_dir), traced).result()
                )
        tracer = Tracer(traced)
        for b in builds:
            tracer.extend(b["spans"])
        state = workload.open(inputs, builds[-1], tracer)
        try:
            phases = []
            for number, phase_tracer in enumerate([Tracer(False)] + ([tracer] if traced else [])):
                phase_dir = workdir / f"phase{number}"
                phase_dir.mkdir()
                phases.append(
                    workload.load(state, inputs, args.seconds, phase_tracer, phase_dir)
                )
        finally:
            workload.close(state)

    plain = phases[0]
    correct = all(
        p.checked > 0 and p.mismatches == 0 and p.health == "ok" for p in phases
    )
    if traced:
        metrics = per_layer(builds, tracer.spans, plain, phases[1])
    else:
        metrics = end_to_end(builds)
        metrics["cpu_us_per_pair"] = (plain.cpu_us_per_pair(), "us")
    sizes = dict(builds[-1]["sizes"])
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("sizes: " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    for number, p in enumerate(phases):
        line = (
            f"load{'(traced)' if number else ''}: requests={p.attempted} failed={p.failed}"
            f" failed_frac={p.failed / max(1, p.attempted):.6f} ratio wall={p.wall_s:.3f} s"
            f" answered={len(p.latencies)}"
            f" (latency_p99_ms is p{wall_figures(p)['tail_q']:g} of those)"
        )
        line += (
            f" cpu={p.cpu_s:.3f} s steal={p.steal_frac:.2%} of busy vCPU time"
            f" checked={p.checked} mismatches={p.mismatches} health={p.health}"
            f" restarts={p.restarts}"
        )
        if p.failures:
            line += " failures=" + ",".join(f"{k}:{v}" for k, v in p.failures.items())
        print(line)
        for name, (value, unit) in wall_clock(builds, p).items():
            print(f"    {name} = {value:.6g} {unit} (wall clock, not gated)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": info,
        "sizes": sizes,
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_clock": [
            {k: {"value": v, "unit": u} for k, (v, u) in wall_clock(builds, p).items()}
            for p in phases
        ],
        "spans": tracer.spans if traced else [],
    }
    report_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, default=str))
    print(f"report: {report_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": plain.attempted,
                "failed": plain.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        if args.workload != "all":
            return run(args)
        codes = [run(argparse.Namespace(**{**vars(args), "workload": w})) for w in WORKLOAD_NAMES]
        return max(codes)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The first ``spawn`` start launches that helper process, and it would
    otherwise outlive the run until it noticed the exit.  Every process
    the run started itself has been joined by the time this is called.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
