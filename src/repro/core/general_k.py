"""Support for k-hop queries with arbitrary k (§4.4 of the paper).

A single k-reach index answers queries only for the ``k`` it was built for.
The paper sketches three ways to serve a *general* k, all implemented here:

* :class:`CoverDistanceOracle` — keep the **exact** distance between every
  pair of cover vertices (full BFS instead of k-hop BFS in Algorithm 1,
  ``⌈log2 d⌉`` bits per entry).  Answers ``s →k t`` exactly for every k and
  doubles as a shortest-path-distance oracle.  The paper notes the index
  graph becomes dense; this is the price of generality.
* :class:`GeometricKReachFamily` — ``log2 d`` k-reach indexes for
  ``k = 2, 4, 8, …, 2^⌈lg d⌉``.  A query with hop budget k probes the
  ``2^⌈lg k⌉`` index: *yes within* ``2^⌈lg k⌉`` and *no* are exact, and in
  between the family answers "reachable within some ``k' ≤ 2^⌈lg k⌉``" —
  the paper's approximation band, surfaced here as a structured
  :class:`KHopAnswer` instead of a bare bool.
* :class:`ExactKFamily` — one k-reach index per ``k = 2 … d`` (plus the
  n-reach index for ``k > d``), exact for every k at ``(d-1)×`` the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.bitsets.ops import DEFAULT_MATRIX_BYTES
from repro.core.batch import (
    MISSING_WEIGHT,
    KeyedRowStore,
    as_pair_arrays,
    case4_chunked,
    csr_gather,
    edge_keys,
    four_case_batch,
    has_edge_batch,
    plan_cross_products,
)
from repro.core.index_graph import IndexGraph, cover_triples_blocked
from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import cover_from_strategy, is_vertex_cover
from repro.graph.digraph import DiGraph

__all__ = [
    "INFINITE_DISTANCE",
    "CoverDistanceOracle",
    "KHopAnswer",
    "GeometricKReachFamily",
    "ExactKFamily",
]

#: Sentinel distance for unreachable pairs.
INFINITE_DISTANCE = float("inf")


class CoverDistanceOracle:
    """Exact cover-pair distances → exact k-hop answers for every k.

    Construction is Algorithm 1 with the k-hop BFS replaced by a full BFS
    (§4.4, first approach).  Queries follow the same four cases, but
    instead of comparing a quantized weight against a budget they combine
    exact distances:

    * Case 1: ``d(s, t)``;
    * Case 2: ``min_v d(s, v) + 1`` over in-neighbors ``v`` of ``t``;
    * Case 3: ``min_u d(u, t) + 1`` over out-neighbors ``u`` of ``s``;
    * Case 4: ``min_{u,v} d(u, v) + 2``.

    The same minimization yields :meth:`distance`, making this a full
    shortest-path-distance oracle — the paper's observation that a
    general-k index "is essentially an index for shortest-path distance
    queries".
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        cover: frozenset[int] | None = None,
        cover_strategy: str = "degree",
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.graph = graph
        self.bitset_matrix_bytes = int(bitset_matrix_bytes)
        if cover is None:
            cover = cover_from_strategy(graph, cover_strategy, rng=rng)
        else:
            cover = frozenset(int(v) for v in cover)
            if not is_vertex_cover(graph, cover):
                raise ValueError("provided vertex set is not a vertex cover")
        self.cover = cover
        self._in_cover = np.zeros(graph.n, dtype=bool)
        if cover:
            self._in_cover[list(cover)] = True
        # Exact cover-pair distances in the canonical CSR storage, fed by
        # the blocked multi-source BFS (full sweeps: k=None, no floor).
        triples = cover_triples_blocked(graph, cover, None)
        self._ig = IndexGraph.from_triples(graph.n, cover, *triples)
        weights = self._ig.weights64()
        self._max_distance = int(weights.max()) if len(weights) else 0
        self._flat: dict[int, int] | None = None
        self._keyed_rows: KeyedRowStore | None = None

    @property
    def index_graph(self) -> IndexGraph:
        """The canonical CSR storage (§4.3 physical layout)."""
        return self._ig

    def _keyed(self) -> KeyedRowStore:
        """Sorted-key view of the distances (zero-copy from the CSR)."""
        if self._keyed_rows is None:
            self._keyed_rows = KeyedRowStore(
                self._ig.keys(), self._ig.weights64(), self.graph.n
            )
        return self._keyed_rows

    def prepare_batch(self) -> "CoverDistanceOracle":
        """Build the batch engine's lookup structures now (see
        :meth:`KReachIndex.prepare_batch
        <repro.core.kreach.KReachIndex.prepare_batch>`)."""
        self._keyed()
        return self

    def _pair_distance(self, u: int, v: int) -> float:
        if u == v:
            return 0
        flat = self._flat
        if flat is None:
            flat = self._flat = self._ig.flat()
        w = flat.get(u * self.graph.n + v)
        return INFINITE_DISTANCE if w is None else w

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``INFINITE_DISTANCE`` if unreachable)."""
        g = self.graph
        if not 0 <= s < g.n or not 0 <= t < g.n:
            raise ValueError(f"query vertex out of range [0, {g.n})")
        if s == t:
            return 0
        s_in = bool(self._in_cover[s])
        t_in = bool(self._in_cover[t])
        if s_in and t_in:
            return self._pair_distance(s, t)
        if s_in:
            best = INFINITE_DISTANCE
            for v in self.graph.in_neighbors(t):
                best = min(best, self._pair_distance(s, int(v)) + 1)
            return best
        if t_in:
            best = INFINITE_DISTANCE
            for u in self.graph.out_neighbors(s):
                best = min(best, self._pair_distance(int(u), t) + 1)
            return best
        best = INFINITE_DISTANCE
        preds = [int(v) for v in self.graph.in_neighbors(t)]
        for u in self.graph.out_neighbors(s):
            u = int(u)
            for v in preds:
                best = min(best, self._pair_distance(u, v) + 2)
        return best

    def distance_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`distance`: an ``(m,)`` float64 array.

        Entries are exact shortest-path distances, with
        :data:`INFINITE_DISTANCE` for unreachable pairs.  Same case split
        as the scalar path, but the per-case minimizations run as bulk
        sorted-key gathers plus segmented ``minimum`` reductions; only
        hub×hub Case-4 pairs whose neighbor cross product would dominate
        memory fall back to the scalar loop.
        """
        g = self.graph
        s, t = as_pair_arrays(pairs, g.n)
        m = len(s)
        if m == 0:
            return np.empty(0, dtype=np.float64)
        dist = np.full(m, MISSING_WEIGHT, dtype=np.int64)
        dist[s == t] = 0
        store = self._keyed()
        s_in = self._in_cover[s]
        t_in = self._in_cover[t]
        undecided = s != t

        # Case 1: direct cover-pair distance.
        sel = np.flatnonzero(undecided & s_in & t_in)
        if len(sel):
            dist[sel] = store.lookup(s[sel], t[sel])

        # Case 2: min over in-neighbors v of t of d(s, v) + 1 (d(s, s) = 0);
        # Case 3 mirrors it over out-neighbors u of s: min d(u, t) + 1.
        for direction, covered, walked, case in (
            ("in", s, t, s_in & ~t_in),
            ("out", t, s, ~s_in & t_in),
        ):
            sel = np.flatnonzero(undecided & case)
            if len(sel):
                nbrs, owner = csr_gather(g, walked[sel], direction)
                ends = covered[sel][owner]
                uv = (ends, nbrs) if direction == "in" else (nbrs, ends)
                cand = np.where(nbrs == ends, 0, store.lookup(*uv)) + 1
                best = np.full(len(sel), MISSING_WEIGHT, dtype=np.int64)
                np.minimum.at(best, owner, cand)
                dist[sel] = best

        # Case 4: min over outNei(s) × inNei(t) of d(u, v) + 2.
        sel = np.flatnonzero(undecided & ~s_in & ~t_in)
        if len(sel):
            s4, t4 = s[sel], t[sel]
            best = np.full(len(sel), MISSING_WEIGHT, dtype=np.int64)
            big, chunks = plan_cross_products(g, s4, t4)
            for sub, u, v, owner in chunks:
                cand = np.where(u == v, 0, store.lookup(u, v)) + 2
                cur = np.full(len(sub), MISSING_WEIGHT, dtype=np.int64)
                np.minimum.at(cur, owner, cand)
                best[sub] = np.minimum(best[sub], cur)
            for j in big.tolist():
                d = self.distance(int(s4[j]), int(t4[j]))
                if d != INFINITE_DISTANCE:
                    best[j] = int(d)
            dist[sel] = best

        out = dist.astype(np.float64)
        out[dist >= MISSING_WEIGHT] = INFINITE_DISTANCE
        return out

    def reaches_within(self, s: int, t: int, k: int) -> bool:
        """Exact ``s →k t`` for any non-negative k."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self.distance(s, t) <= k

    def reaches_within_batch(self, pairs, k: int) -> np.ndarray:
        """Vectorized :meth:`reaches_within`: an ``(m,)`` bool array.

        Boolean verdicts do not need the per-pair minimum distance
        :meth:`distance_batch` computes, so this runs the cheaper
        threshold path: per-case bulk gathers against ``d <= budget``,
        with Case 4 resolved by the bitset join against the exact-weight
        :meth:`~repro.core.index_graph.IndexGraph.link_matrix` at budget
        ``k - 2`` — the same :func:`~repro.core.batch.four_case_batch`
        driver the k-reach index runs, with the same
        :func:`~repro.core.batch.case4_chunked` fallback when the matrix
        would exceed :attr:`bitset_matrix_bytes`.  Answers equal
        ``distance_batch(pairs) <= k`` exactly.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self._bool_batch(pairs, k)

    def reaches(self, s: int, t: int) -> bool:
        """Classic reachability."""
        return self.distance(s, t) < INFINITE_DISTANCE

    def reaches_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`reaches`: an ``(m,)`` bool array (the
        unbounded-budget threshold path; see :meth:`reaches_within_batch`)."""
        return self._bool_batch(pairs, None)

    def _bool_batch(self, pairs, k: int | None) -> np.ndarray:
        """``d(s, t) <= k`` over a batch (``k=None`` = finite distance)."""
        g = self.graph
        s, t = as_pair_arrays(pairs, g.n)
        ig = self._ig
        lookup = self._keyed().lookup

        def spill(a: int, b: int) -> bool:
            d = self.distance(a, b)
            return d < INFINITE_DISTANCE if k is None else d <= k

        return four_case_batch(
            s,
            t,
            k,
            flags=self._in_cover,
            lookup=lookup,
            gather=partial(csr_gather, g),
            link_matrix=lambda: (
                ig.link_matrix(None if k is None else k - 2, diagonal=True)
                if ig.link_matrix_bytes() <= self.bitset_matrix_bytes
                else None
            ),
            row_pos=ig.row_pos,
            fallback=lambda s4, t4, budget: case4_chunked(
                g, s4, t4, lookup, budget, spill
            ),
        )

    @property
    def cover_size(self) -> int:
        """``|V_I|``."""
        return len(self.cover)

    @property
    def edge_count(self) -> int:
        """Number of stored finite cover-pair distances."""
        return self._ig.edge_count

    def weight_bits(self) -> int:
        """Bits per stored distance: ``⌈log2 d⌉`` (§4.4)."""
        return max(1, int(self._max_distance).bit_length())

    def storage_bytes(self) -> int:
        """Same CSR storage model as k-reach, with ``⌈lg d⌉``-bit weights."""
        n_i, m_i = self.cover_size, self.edge_count
        return (
            4 * n_i
            + 4 * (n_i + 1)
            + 4 * m_i
            + (m_i * self.weight_bits() + 7) // 8
            + (self.graph.n + 7) // 8
        )


@dataclass(frozen=True)
class KHopAnswer:
    """A possibly-approximate answer from :class:`GeometricKReachFamily`.

    Attributes
    ----------
    reachable:
        The index's verdict (for approximate answers: reachable within
        ``upper_bound`` hops, but possibly not within the asked ``k``).
    exact:
        Whether the verdict is exact for the asked ``k``.
    upper_bound:
        When ``reachable`` and not ``exact``: the certified hop bound
        ``k'`` with ``k < k' ≤ 2^⌈lg k⌉``.
    """

    reachable: bool
    exact: bool
    upper_bound: int | None = None

    def __bool__(self) -> bool:
        return self.reachable


class GeometricKReachFamily:
    """The paper's ``lg d`` family of ``2^i``-reach indexes (§4.4).

    Parameters
    ----------
    graph:
        Input digraph.
    max_k:
        Largest hop budget to cover.  The paper sets this to the graph
        diameter ``d`` (known for its datasets); the safe default here is
        ``n - 1``, which no simple path can exceed.  Indexes are built for
        ``k = 2, 4, …, 2^⌈lg max_k⌉``.
    max_k_covers_diameter:
        Whether ``max_k`` is ≥ the true diameter, making "not reachable
        within the top level" equivalent to "not reachable at all" (and
        hence queries with ``k`` beyond the top level exact).  Defaults to
        an automatic check (``True`` when the rounded ``max_k ≥ n - 1``);
        pass ``True`` explicitly when supplying a measured diameter.
    share_cover:
        Build every member on the same vertex cover (default) so the family
        differs only in BFS depth — this is what makes the total size
        "approximately lg d times the space of a single k-reach".
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        max_k: int | None = None,
        max_k_covers_diameter: bool | None = None,
        cover_strategy: str = "degree",
        share_cover: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.graph = graph
        if max_k is None:
            max_k = max(2, graph.n - 1)
        if max_k < 2:
            max_k = 2
        self.max_k = 1 << (max_k - 1).bit_length()  # 2^ceil(lg max_k)
        if max_k_covers_diameter is None:
            max_k_covers_diameter = self.max_k >= graph.n - 1
        self._covers_diameter = bool(max_k_covers_diameter)
        cover = (
            cover_from_strategy(graph, cover_strategy, rng=rng)
            if share_cover
            else None
        )
        self.indexes: dict[int, KReachIndex] = {}
        k = 2
        while k <= self.max_k:
            self.indexes[k] = KReachIndex(
                graph, k, cover=cover, cover_strategy=cover_strategy, rng=rng
            )
            k *= 2
        self.levels = sorted(self.indexes)
        self._edge_keys: np.ndarray | None = None

    def _edges(self) -> np.ndarray:
        """Sorted edge keys for the batch k=1 path, built once."""
        if self._edge_keys is None:
            self._edge_keys = edge_keys(self.graph)
        return self._edge_keys

    def query(self, s: int, t: int, k: int, *, refine: bool = False) -> KHopAnswer:
        """Answer ``s →k t`` with the paper's approximation semantics.

        With ``refine=False`` (the paper's behavior) only the ``2^⌈lg k⌉``
        index is probed.  ``refine=True`` additionally walks down the
        family to tighten the certified bound — answers become exact
        whenever some smaller index already certifies the pair.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if s == t:
            return KHopAnswer(True, True)
        if k == 0:
            return KHopAnswer(False, True)
        if k == 1:
            return KHopAnswer(self.graph.has_edge(s, t), True)
        level = min(1 << (k - 1).bit_length(), self.max_k)
        idx = self.indexes[level]
        hit = idx.query(s, t)
        if not hit:
            # Not within `level >= min(k, max_k)` hops.  Exact "no" when
            # level >= k, or when the top level provably bounds the diameter
            # (then "not within max_k" means "not reachable at all").
            return KHopAnswer(False, k <= level or self._covers_diameter)
        if level <= k:
            return KHopAnswer(True, True)
        if refine:
            # Find the smallest family member that certifies the pair.
            tightest = level
            for smaller in self.levels:
                if smaller >= level:
                    break
                if self.indexes[smaller].query(s, t):
                    tightest = smaller
                    break
            if tightest <= k:
                return KHopAnswer(True, True)
            return KHopAnswer(True, False, upper_bound=tightest)
        return KHopAnswer(True, False, upper_bound=level)

    def reaches_within(self, s: int, t: int, k: int) -> bool:
        """Boolean view of :meth:`query` (approximate answers count as True)."""
        return self.query(s, t, k).reachable

    def reaches_within_batch(self, pairs, k: int) -> np.ndarray:
        """Vectorized :meth:`reaches_within`: an ``(m,)`` bool array.

        Same verdicts as the scalar path (``refine=False`` semantics):
        ``k >= 2`` delegates to the ``2^⌈lg k⌉`` member's
        :meth:`~repro.core.kreach.KReachIndex.query_batch`; ``k <= 1``
        resolves with a vectorized identity/edge test.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        s, t = as_pair_arrays(pairs, self.graph.n)
        if len(s) == 0:
            return np.zeros(0, dtype=bool)
        if k == 0:
            return s == t
        if k == 1:
            return (s == t) | has_edge_batch(self.graph, s, t, keys=self._edges())
        level = min(1 << (k - 1).bit_length(), self.max_k)
        return self.indexes[level].query_batch(np.stack([s, t], axis=1))

    def storage_bytes(self) -> int:
        """Total modeled size across the family."""
        return sum(ix.storage_bytes() for ix in self.indexes.values())

    @property
    def num_levels(self) -> int:
        """How many indexes the family holds (≈ lg d)."""
        return len(self.indexes)


class ExactKFamily:
    """One k-reach index per ``k = 2 … d`` → exact answers for every k (§4.4).

    ``d`` defaults to the exact diameter (max finite shortest-path length).
    Queries with ``k ≥ d`` are served by the n-reach member, since within-d
    reachability coincides with reachability.
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        diameter: int | None = None,
        cover_strategy: str = "degree",
        rng: np.random.Generator | None = None,
    ) -> None:
        self.graph = graph
        if diameter is None:
            from repro.graph.stats import shortest_path_stats

            diameter, _ = shortest_path_stats(graph)
        self.diameter = max(2, diameter)
        cover = cover_from_strategy(graph, cover_strategy, rng=rng)
        self.indexes: dict[int, KReachIndex] = {
            k: KReachIndex(graph, k, cover=cover) for k in range(2, self.diameter + 1)
        }
        self.reachability = KReachIndex(graph, None, cover=cover)
        self._edge_keys: np.ndarray | None = None

    def _edges(self) -> np.ndarray:
        """Sorted edge keys for the batch k=1 path, built once."""
        if self._edge_keys is None:
            self._edge_keys = edge_keys(self.graph)
        return self._edge_keys

    def reaches_within(self, s: int, t: int, k: int) -> bool:
        """Exact ``s →k t`` for any non-negative k."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if s == t:
            return True
        if k == 0:
            return False
        if k == 1:
            return self.graph.has_edge(s, t)
        if k >= self.diameter:
            return self.reachability.query(s, t)
        return self.indexes[k].query(s, t)

    def reaches_within_batch(self, pairs, k: int) -> np.ndarray:
        """Vectorized :meth:`reaches_within`: an ``(m,)`` bool array."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        s, t = as_pair_arrays(pairs, self.graph.n)
        if len(s) == 0:
            return np.zeros(0, dtype=bool)
        if k == 0:
            return s == t
        if k == 1:
            return (s == t) | has_edge_batch(self.graph, s, t, keys=self._edges())
        member = self.reachability if k >= self.diameter else self.indexes[k]
        return member.query_batch(np.stack([s, t], axis=1))

    def storage_bytes(self) -> int:
        """Total modeled size across all members."""
        return self.reachability.storage_bytes() + sum(
            ix.storage_bytes() for ix in self.indexes.values()
        )
