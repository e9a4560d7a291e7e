"""Compressed sparse row (CSR) directed graph.

This module provides :class:`DiGraph`, the graph substrate every index in
this package is built on.  The representation keeps **both** adjacency
directions in CSR form:

* ``out_indptr`` / ``out_indices`` — out-neighbors, sorted per vertex;
* ``in_indptr`` / ``in_indices``  — in-neighbors, sorted per vertex.

Vertices are dense integers ``0 .. n-1``.  Arbitrary vertex labels are
supported through an optional label table (see :meth:`DiGraph.from_labeled`);
internally everything runs on the dense ids, which is what makes pure-Python
query processing tolerable and lets traversals use vectorized numpy kernels.

The structure is immutable after construction: every index in
:mod:`repro.core` and :mod:`repro.baselines` assumes the graph does not
change underneath it.  Use :class:`repro.graph.builder.GraphBuilder` for
incremental edge accumulation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["DiGraph", "validate_csr"]

# Dtype used for all vertex ids and offsets.  int32 is enough for graphs of
# up to ~2.1 billion vertices/edges, far beyond the paper's datasets, while
# halving memory versus int64.
_ID_DTYPE = np.int32


def _build_csr(
    n: int, heads: np.ndarray, tails: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR (indptr, indices) pair from parallel edge arrays.

    ``heads[i] -> tails[i]`` is edge ``i``.  The returned ``indices`` are
    sorted within each vertex's slice so that membership tests can use
    binary search.
    """
    counts = np.bincount(heads, minlength=n).astype(_ID_DTYPE)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.lexsort((tails, heads))
    indices = tails[order].astype(_ID_DTYPE, copy=True)
    return indptr, indices


def validate_csr(name: str, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
    """Structural CSR invariants: monotone offsets, in-range sorted rows.

    ``n`` is the *index universe* (valid ``indices`` values are
    ``[0, n)``); the row count is whatever ``len(indptr) - 1`` implies,
    so the same check serves both adjacency CSRs and the index graph's
    cover-row CSR.  Raises :class:`ValueError` naming ``name`` on the
    first broken invariant.
    """
    if indptr[0] != 0 or indptr[-1] != len(indices):
        raise ValueError(
            f"{name}_indptr must start at 0 and end at {len(indices)}"
        )
    if np.any(np.diff(indptr) < 0):
        raise ValueError(f"{name}_indptr must be non-decreasing")
    if len(indices):
        if int(indices.min()) < 0 or int(indices.max()) >= n:
            raise ValueError(f"{name}_indices out of range [0, {n})")
        # Strictly ascending within each row: a decrease is only legal at
        # a row boundary (and duplicates are never legal).
        decreasing = indices[1:] <= indices[:-1]
        if np.any(decreasing):
            boundary = np.zeros(len(indices) - 1, dtype=bool)
            starts = indptr[1:-1]
            starts = starts[(starts > 0) & (starts < len(indices))]
            boundary[starts - 1] = True
            if np.any(decreasing & ~boundary):
                raise ValueError(
                    f"{name}_indices must be strictly ascending within each row"
                )


class DiGraph:
    """An immutable directed graph in dual-CSR form.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicate edges are collapsed;
        self-loops are kept only when ``allow_self_loops`` is true (the
        paper's graphs are simple, so the default drops them).
    allow_self_loops:
        Keep ``(u, u)`` edges when true.

    Examples
    --------
    >>> g = DiGraph(3, [(0, 1), (1, 2), (0, 1)])
    >>> g.n, g.m
    (3, 2)
    >>> [int(v) for v in g.out_neighbors(0)]
    [1]
    >>> g.has_edge(0, 1), g.has_edge(1, 0)
    (True, False)
    """

    __slots__ = (
        "n",
        "m",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "_labels",
        "_label_to_id",
        "_out_lists",
        "_in_lists",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        *,
        allow_self_loops: bool = False,
    ) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("edges must be (u, v) pairs")
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError(
                    f"edge endpoint out of range [0, {n}): "
                    f"min={arr.min()}, max={arr.max()}"
                )
            if not allow_self_loops:
                arr = arr[arr[:, 0] != arr[:, 1]]
            # Deduplicate.
            if len(arr):
                arr = np.unique(arr, axis=0)
        else:
            arr = np.empty((0, 2), dtype=np.int64)

        self.n: int = n
        self.m: int = int(len(arr))
        self.out_indptr, self.out_indices = _build_csr(n, arr[:, 0], arr[:, 1])
        self.in_indptr, self.in_indices = _build_csr(n, arr[:, 1], arr[:, 0])
        self._labels: list | None = None
        self._label_to_id: dict | None = None
        self._out_lists: list[list[int]] | None = None
        self._in_lists: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_labeled(
        cls, edges: Iterable[tuple[object, object]], *, allow_self_loops: bool = False
    ) -> "DiGraph":
        """Build a graph from edges over arbitrary hashable labels.

        Labels are assigned dense ids in first-seen order; use
        :meth:`vertex_id` / :meth:`vertex_label` to translate.

        >>> g = DiGraph.from_labeled([("a", "b"), ("b", "c")])
        >>> g.vertex_id("b")
        1
        >>> g.vertex_label(2)
        'c'
        """
        label_to_id: dict = {}
        labels: list = []
        dense: list[tuple[int, int]] = []
        for u, v in edges:
            for x in (u, v):
                if x not in label_to_id:
                    label_to_id[x] = len(labels)
                    labels.append(x)
            dense.append((label_to_id[u], label_to_id[v]))
        g = cls(len(labels), dense, allow_self_loops=allow_self_loops)
        g._labels = labels
        g._label_to_id = label_to_id
        return g

    @classmethod
    def from_csr(
        cls,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        *,
        in_indptr: np.ndarray | None = None,
        in_indices: np.ndarray | None = None,
        validate: bool = True,
    ) -> "DiGraph":
        """Build from existing CSR arrays, validating the invariants.

        With only the out-direction given, indices need not be sorted or
        deduplicated — the graph is rebuilt through the normal edge path
        and the in-direction derived.  When **both** directions are given
        (the deserialization fast path), each is validated structurally —
        offsets start at 0, are monotone, and end at the index count;
        indices lie in ``[0, n)`` and are strictly ascending within every
        row; the edge counts agree; and each direction's in/out degree
        histogram matches the other's offsets — then installed directly
        with no per-edge work.  The degree cross-check catches arrays
        from two different graphs; only a permutation *within* matching
        degree histograms could still slip through (a full transpose
        cross-check would cost a rebuild).

        ``validate=False`` (dual-CSR path only) installs the arrays after
        O(1) shape checks, skipping the O(m) scans — the memory-mapped
        loader's open-in-O(header) path, for arrays produced by this
        package and protected by a format header.  Arrays from anywhere
        else must keep ``validate=True``: a single unsorted row silently
        corrupts every binary-search probe.
        """
        out_indptr = np.asarray(out_indptr, dtype=np.int64)
        n = len(out_indptr) - 1
        if n < 0:
            raise ValueError("indptr must have at least one entry")
        if in_indptr is None or in_indices is None:
            if in_indptr is not None or in_indices is not None:
                raise ValueError("pass both in_indptr and in_indices, or neither")
            heads = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(out_indptr)
            )
            tails = np.asarray(out_indices, dtype=np.int64)
            return cls(n, np.stack([heads, tails], axis=1))  # type: ignore[arg-type]

        in_indptr = np.asarray(in_indptr, dtype=np.int64)
        out_indices = np.asarray(out_indices, dtype=_ID_DTYPE)
        in_indices = np.asarray(in_indices, dtype=_ID_DTYPE)
        if len(in_indptr) != n + 1:
            raise ValueError("in_indptr and out_indptr disagree on vertex count")
        if len(out_indices) != len(in_indices):
            raise ValueError("out- and in-direction edge counts disagree")
        if validate:
            for name, indptr, indices in (
                ("out", out_indptr, out_indices),
                ("in", in_indptr, in_indices),
            ):
                validate_csr(name, n, indptr, indices)
            if not np.array_equal(
                np.bincount(out_indices, minlength=n), np.diff(in_indptr)
            ) or not np.array_equal(
                np.bincount(in_indices, minlength=n), np.diff(out_indptr)
            ):
                raise ValueError(
                    "in- and out-direction CSRs are not transposes of each other"
                )
        else:  # trusted install: O(1) span checks only
            for name, indptr, indices in (
                ("out", out_indptr, out_indices),
                ("in", in_indptr, in_indices),
            ):
                if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
                    raise ValueError(
                        f"{name}_indptr must start at 0 and end at {len(indices)}"
                    )
        g = object.__new__(cls)
        g.n = n
        g.m = int(len(out_indices))
        g.out_indptr, g.out_indices = out_indptr, out_indices
        g.in_indptr, g.in_indices = in_indptr, in_indices
        g._labels = None
        g._label_to_id = None
        g._out_lists = None
        g._in_lists = None
        return g

    # ------------------------------------------------------------------
    # Label translation
    # ------------------------------------------------------------------
    @property
    def has_labels(self) -> bool:
        """Whether this graph was built with :meth:`from_labeled`."""
        return self._labels is not None

    def vertex_id(self, label: object) -> int:
        """Dense id for ``label`` (requires a labeled graph)."""
        if self._label_to_id is None:
            raise ValueError("graph has no vertex labels")
        return self._label_to_id[label]

    def vertex_label(self, v: int) -> object:
        """Label for dense id ``v`` (requires a labeled graph)."""
        if self._labels is None:
            raise ValueError("graph has no vertex labels")
        return self._labels[v]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbors of ``v`` as a numpy view."""
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbors of ``v`` as a numpy view."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        """Number of out-neighbors of ``v``."""
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def in_degree(self, v: int) -> int:
        """Number of in-neighbors of ``v``."""
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    def degree(self, v: int) -> int:
        """Total degree: ``|inNei(v) ∪ outNei(v)|`` (paper's ``Deg``).

        The paper defines ``Deg(v, G) = |Nei(v, G)|`` with
        ``Nei = inNei ∪ outNei``, i.e. a vertex with the same neighbor on
        both sides counts it once.
        """
        merged = np.union1d(self.out_neighbors(v), self.in_neighbors(v))
        return int(len(merged))

    def degrees(self) -> np.ndarray:
        """Vector of ``in_degree + out_degree`` for every vertex.

        This is the cheap degree used for *ordering* heuristics (cover
        construction, landmark ordering); use :meth:`degree` for the
        paper-exact union semantics of a single vertex.
        """
        return (np.diff(self.out_indptr) + np.diff(self.in_indptr)).astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees."""
        return np.diff(self.out_indptr).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees."""
        return np.diff(self.in_indptr).astype(np.int64)

    def out_lists(self) -> list[list[int]]:
        """Out-adjacency as plain Python lists of ints, built once and cached.

        Query-time code iterates tiny neighbor lists millions of times;
        plain lists avoid the per-element numpy scalar boxing cost that
        dominates at that granularity.
        """
        if self._out_lists is None:
            flat = self.out_indices.tolist()
            ptr = self.out_indptr.tolist()
            self._out_lists = [flat[ptr[v] : ptr[v + 1]] for v in range(self.n)]
        return self._out_lists

    def in_lists(self) -> list[list[int]]:
        """In-adjacency as plain Python lists of ints (see :meth:`out_lists`)."""
        if self._in_lists is None:
            flat = self.in_indices.tolist()
            ptr = self.in_indptr.tolist()
            self._in_lists = [flat[ptr[v] : ptr[v + 1]] for v in range(self.n)]
        return self._in_lists

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists (binary search)."""
        row = self.out_neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all edges as ``(u, v)`` pairs in sorted order."""
        for u in range(self.n):
            for v in self.out_neighbors(u):
                yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` numpy array (sorted by head, then tail)."""
        heads = np.repeat(
            np.arange(self.n, dtype=_ID_DTYPE),
            np.diff(self.out_indptr).astype(np.int64),
        )
        return np.stack([heads, self.out_indices.astype(_ID_DTYPE)], axis=1)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """The transpose graph (every edge flipped)."""
        g = DiGraph(self.n)
        g.m = self.m
        g.out_indptr, g.out_indices = self.in_indptr, self.in_indices
        g.in_indptr, g.in_indices = self.out_indptr, self.out_indices
        g._labels, g._label_to_id = self._labels, self._label_to_id
        return g

    def subgraph(self, vertices: Sequence[int]) -> tuple["DiGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, mapping)`` where ``mapping[i]`` is the original id
        of the subgraph's vertex ``i`` (``vertices`` deduplicated and
        sorted).  Self-loops are dropped, as :class:`DiGraph` does by
        default.  Raises :class:`ValueError` for an id outside
        ``[0, n)``.
        """
        keep = np.unique(np.asarray(vertices, dtype=np.int64))
        if len(keep) and (keep[0] < 0 or keep[-1] >= self.n):
            raise ValueError("subgraph vertex out of range")
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        heads = new_id[np.repeat(np.arange(self.n), np.diff(self.out_indptr))]
        tails = new_id[self.out_indices]
        inside = (heads >= 0) & (tails >= 0) & (heads != tails)
        heads, tails = heads[inside], tails[inside]
        sub = DiGraph(len(keep))
        sub.m = len(heads)
        sub.out_indptr, sub.out_indices = _build_csr(sub.n, heads, tails)
        sub.in_indptr, sub.in_indices = _build_csr(sub.n, tails, heads)
        return sub, keep

    def undirected_edges(self) -> set[frozenset[int]]:
        """The edge set with direction erased (used by vertex-cover code)."""
        return {frozenset((u, v)) for u, v in self.edges() if u != v}

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Bytes of the CSR arrays (both directions), the disk-size model."""
        return int(
            self.out_indptr.nbytes
            + self.out_indices.nbytes
            + self.in_indptr.nbytes
            + self.in_indices.nbytes
        )

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
        )

    def __hash__(self) -> int:  # graphs are immutable, allow dict keys
        return hash((self.n, self.m, self.out_indices.tobytes()))

    def to_dict(self) -> Mapping[int, list[int]]:
        """Adjacency-dict view ``{u: [out-neighbors]}`` (for debugging/tests)."""
        return {u: [int(v) for v in self.out_neighbors(u)] for u in range(self.n)}
