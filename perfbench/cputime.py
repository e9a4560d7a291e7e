"""CPU time of the benchmark's processes, which host CPU steal does not count.

On a virtual machine the host can take a vCPU away from the guest
("steal" time in ``/proc/stat``).  The program neither sees nor causes
it, but every wall-clock figure grows with it: on a 2-vCPU guest whose
steal swung between 0.1 % and 64 % of busy time from one run to the
next, bulk throughput moved by 3x and tail latency by 4x.  A task's
run time in ``/proc/<pid>/schedstat`` leaves the stolen time out (the
kernel's paravirt steal accounting), so the benchmark's gated timings
are CPU seconds summed over this process and its live descendants.
They still rise with the host's load, by about 20 % at 40-50 % steal
(the vCPU shares its core's caches with whatever the host runs), but
far less than wall-clock figures do.  Wall-clock throughput and
latency are printed beside them.
"""

from __future__ import annotations

import os

import numpy as np


def _children(pid: int) -> list[int]:
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def tree_cpu_seconds() -> float:
    """CPU seconds run so far by this process and every live descendant."""
    total_ns = 0
    todo = [os.getpid()]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
        except OSError:  # ended meanwhile: its run time can no longer be read
            continue
        todo.extend(_children(pid))
    return total_ns / 1e9


def read_cpu_ticks() -> tuple[int, int]:
    """``(steal, busy)`` jiffies of every CPU of this guest since boot.

    ``busy`` is all time but idle and I/O wait, steal included.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields) - fields[3] - fields[4]


def tail_ms(samples, q: float = 99.0) -> tuple[float, float]:
    """The ``q``-th percentile in ms, or the highest one with 10 samples beyond.

    Returns ``(value_ms, percentile_used)``.
    """
    n = len(samples)
    if n * (100.0 - q) / 100.0 < 10:
        q = max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0
    return float(np.percentile(samples, q)) * 1e3, q
