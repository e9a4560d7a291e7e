"""v4 memory-mapped format: roundtrip, diagnostics, read-only serving.

The contract under test (see ``repro/core/serialize.py``):

* a ``save_mmap`` → ``load_mmap`` roundtrip answers bit-identically to
  the in-memory index and to the v2 eager load, for every engine;
* cross-version loads (v2/v3/v4 in any wrong pairing) raise
  :class:`ValueError` naming the right loader;
* truncated files, corrupt headers, and bad section offsets raise
  :class:`ValueError` naming what is broken;
* the whole query path runs off ``mode='r'`` read-only pages without a
  single write fault — every lazily built structure is copy-on-build.
"""

import json
import zlib

import numpy as np
import pytest

from repro.core.dynamic import DynamicKReachIndex
from repro.core.kreach import KReachIndex
from repro.core.serialize import (
    _MMAP_MAGIC,
    _MMAP_PROLOGUE,
    load_dynamic,
    load_kreach,
    load_mmap,
    save_dynamic,
    save_kreach,
    save_mmap,
)
from repro.graph.generators import gnp_digraph, paper_example_graph


def saved(tmp_path, index, name="index.kr4"):
    path = tmp_path / name
    save_mmap(index, path)
    return path


def all_pairs(n):
    return np.array(
        [(s, t) for s in range(n) for t in range(n)], dtype=np.int64
    )


class TestRoundTrip:
    @pytest.mark.parametrize("k", [0, 2, 6, None])
    def test_answers_identical(self, tmp_path, k):
        g = gnp_digraph(40, 0.1, seed=2)
        index = KReachIndex(g, k)
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.k == index.k
        assert loaded.cover == index.cover
        assert loaded.weighted_edges() == index.weighted_edges()
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))
        for s, t in pairs[:200].tolist():
            assert loaded.query(s, t) == index.query(s, t)

    @pytest.mark.parametrize("k", [2, None])
    def test_v4_equals_v2_load(self, tmp_path, k):
        g = gnp_digraph(35, 0.12, seed=5)
        index = KReachIndex(g, k)
        v2 = tmp_path / "index.npz"
        save_kreach(index, v2)
        from_v2 = load_kreach(v2)
        from_v4 = load_mmap(saved(tmp_path, index))
        assert from_v2.cover == from_v4.cover
        assert from_v2.weighted_edges() == from_v4.weighted_edges()
        assert from_v2.graph == from_v4.graph
        pairs = all_pairs(g.n)
        assert np.array_equal(
            from_v2.query_batch(pairs), from_v4.query_batch(pairs)
        )

    def test_paper_example(self, tmp_path):
        g = paper_example_graph()
        ids = {lab: g.vertex_id(lab) for lab in "abcdefghij"}
        index = KReachIndex(g, 3, cover=frozenset(ids[x] for x in "bdgi"))
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.query(ids["c"], ids["f"]) is True
        assert loaded.query(ids["c"], ids["h"]) is False

    def test_validate_mode_accepts_good_dump(self, tmp_path):
        g = gnp_digraph(30, 0.15, seed=7)
        index = KReachIndex(g, 4)
        loaded = load_mmap(saved(tmp_path, index), validate=True)
        assert loaded.weighted_edges() == index.weighted_edges()

    def test_compress_rows_at_applies(self, tmp_path):
        g = gnp_digraph(30, 0.25, seed=4)
        index = KReachIndex(g, 2)
        loaded = load_mmap(saved(tmp_path, index), compress_rows_at=2)
        assert loaded._wah  # WAH views rebuilt on load
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))

    def test_empty_cover_roundtrip(self, tmp_path):
        g = gnp_digraph(6, 0.0, seed=1)  # edgeless graph, empty cover
        index = KReachIndex(g, 3)
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.edge_count == 0
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))


class TestCrossVersion:
    """Every wrong (file, loader) pairing names the right loader."""

    def test_v4_rejected_by_load_kreach(self, tmp_path):
        index = KReachIndex(gnp_digraph(20, 0.1, seed=3), 3)
        path = saved(tmp_path, index)
        with pytest.raises(ValueError, match="load_mmap"):
            load_kreach(path)

    def test_v4_rejected_by_load_dynamic(self, tmp_path):
        index = KReachIndex(gnp_digraph(20, 0.1, seed=3), 3)
        path = saved(tmp_path, index)
        with pytest.raises(ValueError, match="load_mmap"):
            load_dynamic(path)

    def test_v2_rejected_by_load_mmap(self, tmp_path):
        index = KReachIndex(gnp_digraph(20, 0.1, seed=3), 3)
        path = tmp_path / "static.npz"
        save_kreach(index, path)
        with pytest.raises(ValueError, match="load_kreach"):
            load_mmap(path)

    def test_v3_rejected_by_load_mmap(self, tmp_path):
        g = gnp_digraph(20, 0.1, seed=3)
        dyn = DynamicKReachIndex(g, 3)
        dyn.insert_edge(0, 19)
        path = tmp_path / "dyn.npz"
        save_dynamic(dyn, path)
        with pytest.raises(ValueError, match="load_dynamic"):
            load_mmap(path)


def tampered_header(path, out_path, mutate):
    """Rewrite a v5 file with its JSON header transformed by ``mutate``.

    Section offsets are relative to the aligned payload base, so the
    payload bytes are copied verbatim behind the (possibly resized)
    header and remain addressable.  The prologue's header CRC is
    recomputed — these tests target the *structural* checks, not the
    checksum, which gets its own tests.
    """
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
    mutate(header)
    blob = json.dumps(header, separators=(",", ":")).encode()
    old_base = (_MMAP_PROLOGUE + hlen + 63) // 64 * 64
    new_base = (_MMAP_PROLOGUE + len(blob) + 63) // 64 * 64
    out_path.write_bytes(
        raw[:8]
        + len(blob).to_bytes(8, "little")
        + zlib.crc32(blob).to_bytes(4, "little")
        + blob
        + b"\x00" * (new_base - _MMAP_PROLOGUE - len(blob))
        + raw[old_base:]
    )
    return out_path


class TestCorruption:
    @pytest.fixture()
    def path(self, tmp_path):
        return saved(tmp_path, KReachIndex(gnp_digraph(25, 0.12, seed=6), 3))

    def test_truncated_prologue(self, tmp_path, path):
        stub = tmp_path / "stub.kr4"
        stub.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="prologue"):
            load_mmap(stub)

    def test_bad_magic(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTKREAC"
        bad = tmp_path / "bad.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_mmap(bad)

    def test_corrupt_header_length(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[8:16] = (1 << 40).to_bytes(8, "little")
        bad = tmp_path / "len.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="header length"):
            load_mmap(bad)

    def test_corrupt_header_json(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        hlen = int.from_bytes(raw[8:16], "little")
        raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen] = b"{" * hlen
        bad = tmp_path / "json.kr4"
        bad.write_bytes(bytes(raw))
        # Garbled header bytes are caught by the always-on header CRC
        # before the JSON parser ever sees them.
        with pytest.raises(ValueError, match="header checksum"):
            load_mmap(bad)

    def test_unsupported_version(self, tmp_path, path):
        bad = tampered_header(
            path, tmp_path / "v9.kr4",
            lambda h: h.update(format_version=9),
        )
        with pytest.raises(ValueError, match="version 9"):
            load_mmap(bad)

    def test_missing_section(self, tmp_path, path):
        bad = tampered_header(
            path, tmp_path / "missing.kr4",
            lambda h: h["sections"].pop("row_keys"),
        )
        with pytest.raises(ValueError, match="missing section 'row_keys'"):
            load_mmap(bad)

    def test_bad_offset_runs_past_eof(self, tmp_path, path):
        def mutate(h):
            h["sections"]["index_targets"]["offset"] += 1 << 24

        bad = tampered_header(path, tmp_path / "offset.kr4", mutate)
        with pytest.raises(ValueError, match="truncated.*'index_targets'"):
            load_mmap(bad)

    def test_misaligned_offset(self, tmp_path, path):
        def mutate(h):
            h["sections"]["cover_ids"]["offset"] += 8

        bad = tampered_header(path, tmp_path / "align.kr4", mutate)
        with pytest.raises(ValueError, match="misaligned.*'cover_ids'"):
            load_mmap(bad)

    def test_wrong_dtype(self, tmp_path, path):
        def mutate(h):
            h["sections"]["row_keys"]["dtype"] = "<i4"

        bad = tampered_header(path, tmp_path / "dtype.kr4", mutate)
        with pytest.raises(ValueError, match="'row_keys' declares dtype"):
            load_mmap(bad)

    def test_truncated_payload(self, tmp_path, path):
        raw = path.read_bytes()
        bad = tmp_path / "trunc.kr4"
        bad.write_bytes(raw[: len(raw) - (len(raw) // 4)])
        with pytest.raises(ValueError, match="truncated"):
            load_mmap(bad)

    def test_inconsistent_indptr(self, tmp_path, path):
        def mutate(h):
            h["sections"]["index_indptr"]["count"] -= 1

        bad = tampered_header(path, tmp_path / "indptr.kr4", mutate)
        with pytest.raises(ValueError, match="'index_indptr'"):
            load_mmap(bad)

    def test_corrupt_cover_id_rejected_at_open(self, tmp_path, path):
        """A flipped sign bit in cover_ids must fail loudly at open, not
        silently corrupt the cover-flag scatter."""
        raw = bytearray(path.read_bytes())
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
        sec = header["sections"]["cover_ids"]
        base = (_MMAP_PROLOGUE + hlen + 63) // 64 * 64
        start = base + sec["offset"]
        arr = np.frombuffer(
            bytes(raw[start : start + sec["count"] * 8]), dtype=np.int64
        ).copy()
        arr[0] = -arr[-1] - 1  # negative id; count/dtype/alignment still fine
        raw[start : start + sec["count"] * 8] = arr.tobytes()
        bad = tmp_path / "cover.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="'cover_ids'"):
            load_mmap(bad)

    def test_validate_catches_tampered_rows(self, tmp_path, path):
        # Reverse the target array's bytes: structurally plausible (every
        # O(1) header check passes) but the rows are no longer sorted.
        raw = bytearray(path.read_bytes())
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
        sec = header["sections"]["index_targets"]
        base = (_MMAP_PROLOGUE + hlen + 63) // 64 * 64
        start = base + sec["offset"]
        stop = start + sec["count"] * 8
        arr = np.frombuffer(bytes(raw[start:stop]), dtype=np.int64)[::-1]
        raw[start:stop] = arr.tobytes()
        bad = tmp_path / "rows.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_mmap(bad, validate=True)

    def test_bad_mode_rejected(self, path):
        with pytest.raises(ValueError, match="mode"):
            load_mmap(path, mode="r+")


class TestReadOnlyServing:
    """The full engine matrix runs off mode='r' pages with no write fault."""

    @pytest.mark.parametrize("k", [2, 6, None])
    @pytest.mark.parametrize("engine", ["scalar", "bitset", "chunked"])
    def test_engine_matrix(self, tmp_path, k, engine):
        g = gnp_digraph(45, 0.09, seed=9)
        index = KReachIndex(g, k)
        # 'chunked' is the gate-miss fallback: auto with the gate shut.
        gate = {"bitset_matrix_bytes": 0} if engine == "chunked" else {}
        if engine == "chunked":
            engine = "auto"
        loaded = load_mmap(saved(tmp_path, index), mode="r", **gate)
        # The mapped arrays really are read-only...
        ig = loaded.index_graph
        for arr in (ig.cover_ids, ig.indptr, ig.targets, ig.packed.words,
                    ig.keys(), ig.weights64(), loaded.graph.out_indices):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            ig.targets[0] = 0
        # ...and the whole engine matrix runs without a write fault.
        loaded.prepare_batch()
        pairs = all_pairs(g.n)
        expected = index.query_batch(pairs)
        assert np.array_equal(loaded.query_batch(pairs, engine=engine), expected)
        for s, t in pairs[: 3 * g.n].tolist():
            assert loaded.query(s, t) == index.query(s, t)

    def test_read_only_wah_rows(self, tmp_path):
        g = gnp_digraph(30, 0.25, seed=8)
        index = KReachIndex(g, 2)
        loaded = load_mmap(saved(tmp_path, index), mode="r", compress_rows_at=2)
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))

    def test_read_only_in_memory_structures(self):
        """HKReach and the distance oracle also tolerate frozen arrays."""
        from repro.core.general_k import CoverDistanceOracle
        from repro.core.hkreach import HKReachIndex

        g = gnp_digraph(40, 0.1, seed=11)
        pairs = all_pairs(g.n)
        hk = HKReachIndex(g, 2, 6)
        oracle = CoverDistanceOracle(g)
        reference_hk = hk.query_batch(pairs).copy()
        reference_d = oracle.distance_batch(pairs).copy()
        for ig in (hk.index_graph, oracle.index_graph):
            for arr in (ig.cover_ids, ig.indptr, ig.targets, ig.packed.words):
                arr.setflags(write=False)
        for g_arr in (g.out_indptr, g.out_indices, g.in_indptr, g.in_indices):
            g_arr.setflags(write=False)
        hk2 = HKReachIndex(g, 2, 6, cover=hk.cover)
        # run against the frozen arrays of the original structures
        assert np.array_equal(hk.query_batch(pairs, engine="bitset"), reference_hk)
        assert np.array_equal(hk.query_batch(pairs, engine="scalar"), reference_hk)
        assert np.array_equal(oracle.distance_batch(pairs), reference_d)
        assert np.array_equal(
            oracle.reaches_within_batch(pairs, 4), reference_d <= 4
        )
        assert np.array_equal(hk2.query_batch(pairs), reference_hk)


class TestOpenCost:
    def test_open_does_not_materialize_adjacency(self, tmp_path):
        """The O(header) open must not build the O(n) adjacency lists."""
        g = gnp_digraph(60, 0.08, seed=12)
        loaded = load_mmap(saved(tmp_path, KReachIndex(g, 3)))
        assert loaded._out_lists is None and loaded._in_lists is None
        assert loaded._scalar is None and loaded._keyed_rows is None
        assert loaded.query(0, 1) in (True, False)  # lazily built on use

    def test_case1_query_skips_adjacency_build(self, tmp_path):
        """A covered-pair scalar query needs no O(n + m) adjacency lists."""
        g = gnp_digraph(60, 0.08, seed=12)
        loaded = load_mmap(saved(tmp_path, KReachIndex(g, 3)))
        u, v = sorted(loaded.cover)[:2]
        assert loaded.query(u, v) in (True, False)  # Case 1
        assert loaded._out_lists is None and loaded._in_lists is None
        uncovered = next(x for x in range(g.n) if x not in loaded.cover)
        loaded.query(u, uncovered)  # Case 2 builds only the in-direction
        assert loaded._in_lists is not None and loaded._out_lists is None

    def test_zero_copy_views(self, tmp_path):
        """Loaded arrays are views into one shared mapping, not copies."""
        import mmap

        g = gnp_digraph(30, 0.1, seed=13)
        loaded = load_mmap(saved(tmp_path, KReachIndex(g, 3)))
        ig = loaded.index_graph
        bases = {
            id(arr.base)
            for arr in (ig.cover_ids, ig.targets, ig.keys(), ig.weights64())
        }
        assert len(bases) == 1  # one buffer backs them all...
        raw = ig.cover_ids.base.base  # ...and that buffer is the mapping
        assert isinstance(raw, memoryview) and isinstance(raw.obj, mmap.mmap)
