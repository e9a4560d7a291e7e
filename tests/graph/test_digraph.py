"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.n == 0 and g.m == 0

    def test_vertices_without_edges(self):
        g = DiGraph(5)
        assert g.n == 5 and g.m == 0
        assert list(g.out_neighbors(3)) == []

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiGraph(-1)

    def test_basic_edges(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)
        assert not g.has_edge(1, 0)

    def test_duplicate_edges_collapsed(self):
        g = DiGraph(3, [(0, 1), (0, 1), (0, 1)])
        assert g.m == 1

    def test_self_loops_dropped_by_default(self):
        g = DiGraph(2, [(0, 0), (0, 1)])
        assert g.m == 1
        assert not g.has_edge(0, 0)

    def test_self_loops_kept_when_allowed(self):
        g = DiGraph(2, [(0, 0), (0, 1)], allow_self_loops=True)
        assert g.m == 2
        assert g.has_edge(0, 0)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(0, 5)])
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(-1, 0)])

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(3, [(0, 1, 2)])  # type: ignore[list-item]

    def test_neighbors_sorted(self):
        g = DiGraph(4, [(0, 3), (0, 1), (0, 2)])
        assert list(g.out_neighbors(0)) == [1, 2, 3]

    def test_from_csr_round_trip(self):
        g = DiGraph(4, [(0, 1), (0, 2), (2, 3)])
        h = DiGraph.from_csr(g.out_indptr, g.out_indices)
        assert g == h


class TestLabels:
    def test_from_labeled(self):
        g = DiGraph.from_labeled([("x", "y"), ("y", "z")])
        assert g.n == 3 and g.m == 2
        assert g.vertex_id("x") == 0
        assert g.vertex_label(2) == "z"
        assert g.has_labels

    def test_unlabeled_graph_rejects_label_lookup(self):
        g = DiGraph(2, [(0, 1)])
        assert not g.has_labels
        with pytest.raises(ValueError, match="labels"):
            g.vertex_id("x")
        with pytest.raises(ValueError, match="labels"):
            g.vertex_label(0)


class TestDegrees:
    def test_in_out_degrees(self):
        g = DiGraph(4, [(0, 1), (0, 2), (1, 2), (3, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 3
        assert g.in_degree(0) == 0

    def test_degree_union_semantics(self):
        # reciprocal edge: neighbor counted once in Deg (paper Table 1)
        g = DiGraph(2, [(0, 1), (1, 0)])
        assert g.degree(0) == 1
        assert g.degrees()[0] == 2  # cheap in+out version counts both

    def test_degree_vectors(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert list(g.out_degrees()) == [2, 1, 0]
        assert list(g.in_degrees()) == [0, 1, 2]
        assert list(g.degrees()) == [2, 2, 2]


class TestViews:
    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = DiGraph(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_edge_array_matches_edges(self):
        g = DiGraph(5, [(0, 4), (2, 1), (3, 3), (4, 0)])
        arr = g.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(g.edges())

    def test_reverse(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        r = g.reverse()
        assert r.has_edge(1, 0) and r.has_edge(2, 1)
        assert not r.has_edge(0, 1)
        assert r.m == g.m

    def test_reverse_of_reverse_is_original(self):
        g = DiGraph(4, [(0, 1), (2, 3), (1, 3)])
        assert g.reverse().reverse() == g

    def test_subgraph(self):
        g = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = g.subgraph([1, 2, 3])
        assert sub.n == 2 + 1
        assert sub.m == 2  # 1->2 and 2->3 survive
        assert list(mapping) == [1, 2, 3]

    def test_subgraph_out_of_range(self):
        g = DiGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph([5])

    @pytest.mark.parametrize("bad", [[3], [-1], [0, -2, 1]])
    def test_subgraph_rejects_negative_and_edge_ids(self, bad):
        g = DiGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            g.subgraph(bad)

    @staticmethod
    def _induced(g, vertices):
        """Loop reference: keep the edges with both ends in ``vertices``."""
        keep = sorted(set(vertices))
        new_id = {v: i for i, v in enumerate(keep)}
        edges = [(new_id[u], new_id[v]) for u, v in g.edges()
                 if u in new_id and v in new_id]
        return DiGraph(len(keep), edges), keep

    @pytest.mark.parametrize(
        "vertices",
        [[7, 2, 2, 9, 0, 7], [11, 10, 9, 3], list(range(12)), [4], []],
    )
    def test_subgraph_matches_loop_reference(self, vertices):
        rng = np.random.default_rng(5)
        edges = rng.integers(0, 12, size=(60, 2))  # includes self-loops
        g = DiGraph(12, edges, allow_self_loops=True)
        assert any(u == v for u, v in g.edges())
        sub, mapping = g.subgraph(vertices)
        expected, keep = self._induced(g, vertices)
        assert mapping.tolist() == keep
        assert sub == expected
        assert np.array_equal(sub.in_indptr, expected.in_indptr)
        assert np.array_equal(sub.in_indices, expected.in_indices)
        assert not any(u == v for u, v in sub.edges())

    def test_undirected_edges(self):
        g = DiGraph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.undirected_edges() == {frozenset((0, 1)), frozenset((1, 2))}

    def test_to_dict(self):
        g = DiGraph(3, [(0, 1), (0, 2)])
        assert g.to_dict() == {0: [1, 2], 1: [], 2: []}

    def test_adjacency_lists_cached_and_correct(self):
        g = DiGraph(4, [(0, 1), (0, 3), (2, 1)])
        out = g.out_lists()
        assert out == [[1, 3], [], [1], []]
        assert g.out_lists() is out  # cached
        assert g.in_lists() == [[], [0, 2], [], [0]]
        assert all(isinstance(v, int) for row in out for v in row)


class TestDunder:
    def test_len(self):
        assert len(DiGraph(7)) == 7

    def test_equality_and_hash(self):
        a = DiGraph(3, [(0, 1), (1, 2)])
        b = DiGraph(3, [(1, 2), (0, 1)])
        c = DiGraph(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_storage_bytes_positive(self):
        g = DiGraph(10, [(i, i + 1) for i in range(9)])
        assert g.storage_bytes() > 0


class TestFromCsrValidated:
    """from_csr with both directions: install-fast, but validate invariants."""

    def test_dual_direction_round_trip(self):
        g = DiGraph(5, [(0, 1), (0, 4), (2, 1), (3, 2)])
        h = DiGraph.from_csr(
            g.out_indptr,
            g.out_indices,
            in_indptr=g.in_indptr,
            in_indices=g.in_indices,
        )
        assert g == h
        assert h.m == g.m
        assert [int(v) for v in h.in_neighbors(1)] == [0, 2]

    def test_partial_direction_pair_rejected(self):
        g = DiGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="both"):
            DiGraph.from_csr(g.out_indptr, g.out_indices, in_indptr=g.in_indptr)

    def test_bad_indptr_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="indptr"):
            DiGraph.from_csr(
                np.array([0, 2, 1]),  # non-monotone
                np.array([1, 0], dtype=np.int32),
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0], dtype=np.int32),
            )
        with pytest.raises(ValueError, match="indptr"):
            DiGraph.from_csr(
                np.array([0, 1, 3]),  # ends past the index array
                np.array([1, 0], dtype=np.int32),
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0], dtype=np.int32),
            )

    def test_out_of_range_indices_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="range"):
            DiGraph.from_csr(
                np.array([0, 1, 2]),
                np.array([5, 0], dtype=np.int32),
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0], dtype=np.int32),
            )

    def test_unsorted_row_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="ascending"):
            DiGraph.from_csr(
                np.array([0, 2, 2, 2]),
                np.array([2, 1], dtype=np.int32),  # descending within row 0
                in_indptr=np.array([0, 0, 1, 2]),
                in_indices=np.array([0, 0], dtype=np.int32),
            )

    def test_mismatched_edge_counts_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="edge counts"):
            DiGraph.from_csr(
                np.array([0, 1, 1]),
                np.array([1], dtype=np.int32),
                in_indptr=np.array([0, 0, 0]),
                in_indices=np.array([], dtype=np.int32),
            )

    def test_non_transpose_directions_rejected(self):
        import numpy as np

        a = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        b = DiGraph(4, [(3, 0), (3, 1), (3, 2)])  # same n and m
        with pytest.raises(ValueError, match="transpose"):
            DiGraph.from_csr(
                a.out_indptr,
                a.out_indices,
                in_indptr=b.in_indptr,
                in_indices=b.in_indices,
            )
