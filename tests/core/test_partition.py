"""Hub-aware partitioner differential suite.

Pins the sharding tier's core claim: a :class:`ShardedKReach` built by
:func:`partition_kreach` answers **bit-identically** to the single
global index (and to the BFS oracle) for every shard count, hop budget,
and engine — including hub-stress graphs where the interesting pairs
all cross shards — plus the structural invariants that make the claim
hold (boundary separation, boundary ⊆ cover) and the manifest
round-trip.
"""

import numpy as np
import pytest

from repro.baselines import BfsIndex
from repro.core.kreach import KReachIndex
from repro.bitsets import ops
from repro.core.partition import (
    ShardedKReach,
    _compose,
    _portal_table,
    default_hub_count,
    partition_kreach,
)
from repro.core.serialize import (
    IndexCorruptionError,
    load_sharded,
    save_sharded,
    verify_file,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph, random_dag
from repro.workloads import random_pairs


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(90, 0.05, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 4000, rng=np.random.default_rng(3))


def two_block_hub_graph(block=40, hubs=4, seed=9):
    """Two dense communities bridged *only* through hub vertices.

    SCC condensation keeps each community's components apart, so a
    2-shard partition puts the blocks on different shards and every
    block-to-block pair exercises the cross-shard portal stitch.
    """
    rng = np.random.default_rng(seed)
    edges = []
    n = 2 * block + hubs
    for b in range(2):
        lo = b * block
        dense = rng.random((block, block)) < 0.08
        np.fill_diagonal(dense, False)
        u, v = np.nonzero(dense)
        edges.append(np.stack([u + lo, v + lo], 1))
    for h in range(2 * block, n):
        fans = rng.choice(2 * block, size=12, replace=False)
        edges.append(np.stack([np.full(6, h), fans[:6]], 1))
        edges.append(np.stack([fans[6:], np.full(6, h)], 1))
    return DiGraph(n, np.concatenate(edges))


class TestDifferential:
    @pytest.mark.parametrize("k", [2, 6, None])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_vs_global_vs_bfs(self, graph, pairs, k, num_shards):
        reference = KReachIndex(graph, k).query_batch(pairs)
        bfs = BfsIndex(graph)
        sub = pairs[:300]
        oracle = np.array(
            [
                bfs.reaches(int(s), int(t))
                if k is None
                else bfs.reaches_within(int(s), int(t), k)
                for s, t in sub.tolist()
            ]
        )
        assert np.array_equal(reference[:300], oracle)
        sharded = partition_kreach(graph, k, num_shards)
        for engine in ("auto", "scalar"):
            assert np.array_equal(
                sharded.query_batch(pairs, engine=engine), reference
            )

    @pytest.mark.parametrize("k", [2, 6, None])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_hub_stress_all_cross(self, k, num_shards):
        """Block-to-block pairs must traverse the boundary stitch."""
        g = two_block_hub_graph()
        rng = np.random.default_rng(11)
        s = rng.integers(0, 40, size=1500)
        t = rng.integers(40, 80, size=1500)
        pairs = np.stack(
            [np.concatenate([s, t]), np.concatenate([t, s])], axis=1
        )
        reference = KReachIndex(g, k).query_batch(pairs)
        sharded = partition_kreach(g, k, num_shards, hub_count=4)
        owner = sharded.route(
            pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
        )
        assert (owner < 0).sum() > 0, "stress graph must produce cross pairs"
        assert np.array_equal(sharded.query_batch(pairs), reference)

    def test_self_pairs_and_duplicates(self, graph):
        vertices = np.arange(graph.n, dtype=np.int64)
        self_pairs = np.stack([vertices, vertices], axis=1)
        sharded = partition_kreach(graph, 6, 3)
        assert bool(sharded.query_batch(self_pairs).all())
        dup = np.tile(self_pairs[:5], (40, 1))
        reference = KReachIndex(graph, 6).query_batch(dup)
        assert np.array_equal(sharded.query_batch(dup), reference)


class TestInvariants:
    def test_boundary_separates_interiors(self, graph):
        sharded = partition_kreach(graph, 6, 3)
        shard_of = sharded.shard_of
        for u, v in graph.edges():
            if shard_of[u] >= 0 and shard_of[v] >= 0:
                assert shard_of[u] == shard_of[v], (
                    f"edge ({u},{v}) joins two different shard interiors"
                )

    def test_boundary_inside_every_shard_cover(self, graph):
        sharded = partition_kreach(graph, 6, 3)
        for shard in sharded.shards:
            local_boundary = shard.to_local(sharded.boundary)
            assert set(local_boundary.tolist()) <= set(shard.index.cover)

    def test_top_hub_is_boundary(self, graph):
        sharded = partition_kreach(graph, 6, 2)
        top = int(np.argmax(graph.degrees()))
        assert top in set(sharded.boundary.tolist())

    def test_shards_cover_all_vertices(self, graph):
        sharded = partition_kreach(graph, 6, 4)
        seen = np.zeros(graph.n, dtype=bool)
        for shard in sharded.shards:
            seen[shard.vertex_map] = True
        assert bool(seen.all())

    def test_num_shards_validation(self, graph):
        with pytest.raises(ValueError, match="num_shards"):
            partition_kreach(graph, 6, 0)

    def test_default_hub_count_scales(self):
        assert default_hub_count(0) >= 1
        assert default_hub_count(100) >= 10
        assert default_hub_count(10_000) >= 100

    def test_summary_shape(self, graph):
        summary = partition_kreach(graph, 6, 2).summary()
        assert summary["num_shards"] == 2
        assert len(summary["shard_sizes"]) == 2
        assert summary["boundary_size"] >= default_hub_count(graph.n)


class TestCompose:
    """The row-wise ``exit ∘ closure`` composition vs a triple-loop min-plus."""

    @staticmethod
    def _case(n_local, num_b, cap, seed):
        rng = np.random.default_rng(seed)
        exit_ = np.full((n_local, num_b), cap, dtype=np.int64)
        reach = rng.random((n_local, num_b)) < 0.3
        reach[: n_local // 3] = False  # rows that reach no boundary vertex
        exit_[reach] = rng.integers(0, cap, size=int(reach.sum()))
        closure = rng.integers(0, cap + 1, size=(num_b, num_b))
        closure[rng.random((num_b, num_b)) < 0.5] = cap
        np.fill_diagonal(closure, 0)
        rows, b_of = np.nonzero(exit_ < cap)
        return exit_, closure, (b_of, rows, exit_[rows, b_of])

    @staticmethod
    def _brute(exit_, closure, cap):
        n_local, num_b = exit_.shape
        out = np.full((n_local, num_b), cap, dtype=np.int64)
        for v in range(n_local):
            for b in range(num_b):
                for c in range(num_b):
                    out[v, c] = min(out[v, c], exit_[v, b] + closure[b, c])
        return out

    SHAPES = [(0, 0), (0, 5), (7, 0), (1, 1), (13, 5), (9, 70)]

    @pytest.mark.parametrize("cap", [1, 2, 7])
    @pytest.mark.parametrize("n_local,num_b", SHAPES)
    def test_budgets_match_brute_force(self, cap, n_local, num_b):
        exit_, closure, triples = self._case(n_local, num_b, cap, seed=cap)
        out = _compose(*triples, closure.astype(np.uint8), n_local, cap - 1)
        assert out.shape == (n_local, num_b)
        assert out.dtype == np.uint8
        assert np.array_equal(out, self._brute(exit_, closure, cap))
        if n_local:
            assert (out[: n_local // 3] == cap).all()

    @pytest.mark.parametrize("n_local,num_b", SHAPES)
    def test_reach_rows_match_brute_force(self, n_local, num_b):
        exit_, closure, (b_of, rows, _) = self._case(n_local, num_b, 1, seed=4)
        closure_bits = _portal_table(
            *np.nonzero(closure == 0), None, (num_b, num_b), None
        )
        out = _compose(b_of, rows, np.zeros(len(rows), np.int64),
                       closure_bits, n_local, None)
        expected = self._brute(exit_, closure, 1) == 0
        assert out.dtype == np.uint64
        assert out.shape == (n_local, ops.words_for(num_b))
        assert np.array_equal(
            out, ops.bit_matrix(*np.nonzero(expected), n_local, num_b)
        )


def _shard_string(shard_of):
    return "".join("B" if s < 0 else str(s) for s in shard_of.tolist())


class TestShardAssignment:
    """``shard_of`` pinned to what the partitioner produced before the
    assignment loop was rewritten ("B" marks a boundary vertex)."""

    PINNED = {
        ("gnp", 2): "BB00000B0000000000B0000100B0000B00000B0BB00B00B01000B0B000"
                    "B00000000000000001000BB0000B0000",
        ("gnp", 4): "BB00000B0000000000B0000100B0000B00000B0BB00B00B03000B0B000"
                    "B00000000000000001000BB0000B0000",
        ("hub", 2): "0000000000B000100001B0B01000B0000BB00000000000B00001BB0000"
                    "B000BB00000000000000000BBB",
        ("hub", 4): "0000000000B000100001B0B02000B0000BB00000000000B00003BB0000"
                    "B000BB00000000000000000BBB",
        ("dag", 2): "00B011001B0B1110011BB011101B111010101BBBB0BBBBBBBB01BB0BBBBB",
        ("dag", 3): "00B011B222BB1212211BB011222B21B11B221BBBBBBBBBBBBB01BB0BBBBB",
        ("dag", 4): "02B022322BBB313B133BB03121331BB12B2123BB21BBBBBBBB03BB0BBBBB",
    }

    @pytest.mark.parametrize("name,num_shards", sorted(PINNED))
    def test_shard_of_pinned(self, graph, name, num_shards):
        g, kwargs = {
            "gnp": (graph, {}),
            "hub": (two_block_hub_graph(), {"hub_count": 4}),
            "dag": (random_dag(60, 150, seed=5), {}),
        }[name]
        sharded = partition_kreach(g, 6, num_shards, **kwargs)
        assert _shard_string(sharded.shard_of) == self.PINNED[name, num_shards]


class TestManifest:
    @pytest.mark.parametrize("k", [6, None])
    def test_roundtrip_bit_identical(self, tmp_path, graph, pairs, k):
        sharded = partition_kreach(graph, k, 2)
        directory = tmp_path / f"m{k}"
        save_sharded(sharded, directory)
        loaded = ShardedKReach.from_manifest(
            load_sharded(directory, verify=True)
        )
        assert np.array_equal(
            loaded.query_batch(pairs), sharded.query_batch(pairs)
        )
        assert loaded.k == sharded.k
        assert np.array_equal(loaded.boundary, sharded.boundary)
        width = ops.words_for(len(sharded.boundary)) if k is None else len(
            sharded.boundary
        )
        for mine, theirs in zip(sharded.shards, loaded.shards):
            for table, disk in ((mine.entry, theirs.entry),
                                (mine.exit_closure, theirs.exit_closure)):
                assert table.shape == (mine.n, width)
                assert table.dtype == (np.uint64 if k is None else np.uint8)
                assert np.array_equal(table, disk) and disk.dtype == table.dtype

    def test_verify_file_clean_and_corrupt(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        report = verify_file(directory)
        assert report["ok"], report
        assert any(r["name"] == "manifest.json" for r in report["sections"])
        # Also accepts the manifest path itself.
        assert verify_file(directory / "manifest.json")["ok"]
        # Flip one byte mid-shard-file: the audit must name the file.
        victim = directory / "shard-001.kr5"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        report = verify_file(directory)
        assert not report["ok"]
        assert any(
            r["status"] == "mismatch" and r["name"] == "shard-001.kr5"
            for r in report["sections"]
        )

    def test_load_rejects_missing_and_resized(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        victim = directory / "portal-entry-000.npy"
        original = victim.read_bytes()
        victim.unlink()
        with pytest.raises(IndexCorruptionError, match="missing"):
            load_sharded(directory)
        victim.write_bytes(original + b"\x00")
        with pytest.raises(IndexCorruptionError, match="size mismatch"):
            load_sharded(directory)

    def test_load_rejects_v1_manifest(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, None, 2), directory)
        manifest = directory / "manifest.json"
        text = manifest.read_text()
        assert '"format_version": 2' in text
        manifest.write_text(text.replace('"format_version": 2', '"format_version": 1'))
        with pytest.raises(IndexCorruptionError, match="unsupported manifest version"):
            load_sharded(directory)

    def test_load_rejects_manifest_tamper(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        manifest = directory / "manifest.json"
        text = manifest.read_text().replace('"n": 90', '"n": 91')
        manifest.write_text(text)
        with pytest.raises(IndexCorruptionError, match="CRC32"):
            load_sharded(directory)
