"""Synthetic graph generators.

General-purpose generators used by tests, examples and the dataset
stand-ins in :mod:`repro.datasets.synthetic`.  Everything is deterministic
given the ``rng`` / ``seed`` arguments.

:func:`paper_example_graph` reconstructs the worked example of the paper
(Figure 1 / Figure 3): the 10-vertex graph whose vertex cover is
``{b, d, g, i}`` and whose 2-hop vertex cover is ``{d, e, g}``.  Every claim
in the paper's Examples 1–4 is asserted against this graph in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_digraph",
    "star_graph",
    "random_tree",
    "balanced_tree",
    "gnp_digraph",
    "random_dag",
    "layered_dag",
    "power_law_digraph",
    "celebrity_crossfire_digraph",
    "paper_example_graph",
    "PAPER_EXAMPLE_LABELS",
]


def path_graph(n: int) -> DiGraph:
    """The directed path ``0 -> 1 -> ... -> n-1``."""
    return DiGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> DiGraph:
    """The directed cycle on ``n >= 2`` vertices."""
    if n < 2:
        raise ValueError(f"a directed cycle needs n >= 2, got {n}")
    return DiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_digraph(n: int) -> DiGraph:
    """All ``n * (n - 1)`` ordered pairs as edges."""
    return DiGraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def star_graph(n: int, *, inward: bool = False) -> DiGraph:
    """Hub vertex 0 with ``n - 1`` spokes.

    Edges point hub->spoke by default; ``inward=True`` flips them.
    """
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    edges = [(0, i) if not inward else (i, 0) for i in range(1, n)]
    return DiGraph(n, edges)


def random_tree(n: int, *, seed: int = 0) -> DiGraph:
    """A random arborescence: each vertex i >= 1 gets a parent < i."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return DiGraph(n, edges)


def balanced_tree(branching: int, height: int) -> DiGraph:
    """Complete ``branching``-ary tree of the given height, edges parent->child."""
    if branching < 1 or height < 0:
        raise ValueError("branching >= 1 and height >= 0 required")
    builder = GraphBuilder(1)
    frontier = [0]
    for _ in range(height):
        nxt = []
        for parent in frontier:
            for _ in range(branching):
                child = builder.add_vertex()
                builder.add_edge(parent, child)
                nxt.append(child)
        frontier = nxt
    return builder.build()


def gnp_digraph(n: int, p: float, *, seed: int = 0) -> DiGraph:
    """Directed Erdős–Rényi G(n, p): each ordered pair is an edge w.p. ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    if n == 0:
        return DiGraph(0)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    heads, tails = np.nonzero(mask)
    return DiGraph(n, np.stack([heads, tails], axis=1))  # type: ignore[arg-type]


def random_dag(n: int, m: int, *, seed: int = 0) -> DiGraph:
    """A uniform-ish random DAG with ``n`` vertices and about ``m`` edges.

    Edges always point from a smaller to a larger vertex id, so acyclicity
    is guaranteed by construction.
    """
    if n < 2:
        return DiGraph(n)
    rng = np.random.default_rng(seed)
    max_edges = n * (n - 1) // 2
    m = min(m, max_edges)
    edges: set[tuple[int, int]] = set()
    # Rejection sampling is fine while m is far below max_edges; fall back
    # to explicit enumeration when the request is dense.
    if m > max_edges // 2:
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = rng.choice(len(all_pairs), size=m, replace=False)
        edges = {all_pairs[i] for i in picks}
    else:
        while len(edges) < m:
            u = int(rng.integers(0, n - 1))
            v = int(rng.integers(u + 1, n))
            edges.add((u, v))
    return DiGraph(n, sorted(edges))


def layered_dag(
    layers: int, width: int, *, p: float = 0.3, seed: int = 0
) -> DiGraph:
    """A DAG of ``layers`` layers of ``width`` vertices; edges only between
    consecutive layers, each present with probability ``p``.

    Useful for exercising indexes on graphs with long shortest paths
    (diameter ≈ layers - 1), mimicking the XML datasets' deep structure.
    """
    if layers < 1 or width < 1:
        raise ValueError("layers >= 1 and width >= 1 required")
    rng = np.random.default_rng(seed)
    n = layers * width
    edges = []
    for layer in range(layers - 1):
        base, nxt = layer * width, (layer + 1) * width
        mask = rng.random((width, width)) < p
        for i, j in zip(*np.nonzero(mask)):
            edges.append((base + int(i), nxt + int(j)))
        # Guarantee connectivity layer-to-layer so the diameter is realized.
        for i in range(width):
            if not mask[i].any():
                edges.append((base + i, nxt + int(rng.integers(0, width))))
    return DiGraph(n, edges)


def power_law_digraph(
    n: int, m: int, *, exponent: float = 2.5, seed: int = 0
) -> DiGraph:
    """A directed configuration-model graph with power-law degrees.

    Degree propensities are drawn from a Pareto-like distribution with the
    given exponent; ``m`` edge slots are then matched head-to-tail.  The
    result has the heavy-tailed degree skew (§4.3's "curse of high-degree
    vertices") without further structure.
    """
    if n < 2:
        return DiGraph(n)
    rng = np.random.default_rng(seed)
    weights = (1.0 + rng.pareto(exponent - 1.0, size=n)) ** 1.0
    probs = weights / weights.sum()
    heads = rng.choice(n, size=m, p=probs)
    tails = rng.choice(n, size=m, p=probs)
    keep = heads != tails
    return DiGraph(n, np.stack([heads[keep], tails[keep]], axis=1))  # type: ignore[arg-type]


def celebrity_crossfire_digraph(
    brokers: int,
    celebrities: int,
    degree: int,
    *,
    p_broker: float = 0.02,
    seed: int = 0,
) -> DiGraph:
    """The Case-4 "celebrity × celebrity" stress graph (§1's hub story).

    Vertices ``0 .. brokers-1`` are *brokers* wired among themselves by a
    sparse random digraph (edge probability ``p_broker``); the remaining
    ``celebrities`` vertices each fire ``degree`` random out-edges into
    the brokers and receive ``degree`` random in-edges from them.  The
    brokers therefore form a vertex cover, every celebrity stays
    uncovered, and a celebrity-to-celebrity query is always Algorithm 2's
    Case 4 with a ``degree × degree`` neighbor cross product — the
    hub×hub workload that forces the chunked gate-miss fallback to
    materialize (or spill on) enormous products while the bitset join
    pays only O(degree) word operations per endpoint.
    """
    if brokers < 1 or celebrities < 0 or degree < 1:
        raise ValueError("need brokers >= 1, celebrities >= 0, degree >= 1")
    rng = np.random.default_rng(seed)
    degree = min(degree, brokers)
    n = brokers + celebrities
    m_broker = int(p_broker * brokers * brokers)
    backbone = rng.integers(0, brokers, size=(m_broker, 2))
    celebs = brokers + np.repeat(np.arange(celebrities, dtype=np.int64), degree)
    spokes_out = np.stack(
        [celebs, rng.integers(0, brokers, size=len(celebs))], axis=1
    )
    spokes_in = np.stack(
        [rng.integers(0, brokers, size=len(celebs)), celebs], axis=1
    )
    edges = np.concatenate([backbone, spokes_out, spokes_in], axis=0)
    return DiGraph(n, edges)  # type: ignore[arg-type]


#: Vertex labels of the paper's Figure 1 / Figure 3 example graph, in id order.
PAPER_EXAMPLE_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")


def paper_example_graph() -> DiGraph:
    """The worked-example graph G of the paper (Figures 1 and 3).

    The figures are not machine-readable in the paper text, but the edge
    set is fully determined by the constraints of Examples 1–4:

    * ``{b, d, g, i}`` is a vertex cover obtained by picking edges
      ``(b, d)`` and ``(g, i)`` — so both are edges;
    * the 3-reach graph has ω(b,d)=1, ω(d,g)=2, ω(b,g)=3, ω(d,i)=3;
    * ``a`` has no in-neighbors, ``b`` is an out-neighbor of both ``a`` and
      ``c``, ``f`` has in-neighbor ``d``, ``h`` has only in-neighbor ``g``,
      ``j`` has only in-neighbor ``i``;
    * ``⟨d, e, g⟩`` is a 2-hop path and ``{d, e, g}`` a 2-hop vertex cover.

    The unique minimal graph satisfying all of them::

        a -> b    c -> b    b -> d    d -> e    d -> f
        e -> g    g -> h    g -> i    i -> j

    Returned as a labeled graph with ids assigned a=0 … j=9.
    """
    edges = [
        ("a", "b"),
        ("c", "b"),
        ("b", "d"),
        ("d", "e"),
        ("d", "f"),
        ("e", "g"),
        ("g", "h"),
        ("g", "i"),
        ("i", "j"),
    ]
    builder_order = [(PAPER_EXAMPLE_LABELS.index(u), PAPER_EXAMPLE_LABELS.index(v)) for u, v in edges]
    g = DiGraph(10, builder_order)
    g._labels = list(PAPER_EXAMPLE_LABELS)
    g._label_to_id = {lab: i for i, lab in enumerate(PAPER_EXAMPLE_LABELS)}
    return g
