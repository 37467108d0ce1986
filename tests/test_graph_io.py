"""Edge-list and binary CSR IO round trips."""

import numpy as np
import pytest

from repro.graph import (
    from_edges,
    load_graph,
    read_csr_binary,
    read_edge_list,
    write_csr_binary,
    write_edge_list,
)
from repro.graph.generators import erdos_renyi


@pytest.fixture
def sample():
    return erdos_renyi(50, 180, seed=3)


class TestEdgeList:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        loaded = read_edge_list(path)
        assert np.array_equal(loaded.offsets, sample.offsets)
        assert np.array_equal(loaded.dst, sample.dst)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n# mid\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edge_list(path)

    def test_extra_columns_tolerated(self, tmp_path):
        # SNAP files sometimes carry weights/timestamps in extra columns.
        path = tmp_path / "g.txt"
        path.write_text("0 1 17\n1 2 42\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_compact_ids(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("1000000 2000000\n2000000 3000000\n")
        g = read_edge_list(path, compact_ids=True)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_compact_ids_preserves_order(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("50 10\n10 99\n")
        g = read_edge_list(path, compact_ids=True)
        # ascending original ids: 10 -> 0, 50 -> 1, 99 -> 2
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_gzip_edge_list(self, sample, tmp_path):
        import gzip

        plain = tmp_path / "g.txt"
        write_edge_list(sample, plain)
        gz = tmp_path / "g.txt.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        loaded = read_edge_list(gz)
        assert np.array_equal(loaded.dst, sample.dst)
        assert load_graph(gz).num_edges == sample.num_edges


class TestBinary:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.bin"
        write_csr_binary(sample, path)
        loaded = read_csr_binary(path)
        assert np.array_equal(loaded.offsets, sample.offsets)
        assert np.array_equal(loaded.dst, sample.dst)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_csr_binary(path)

    def test_empty_graph_roundtrip(self, tmp_path):
        g = from_edges([], num_vertices=3)
        path = tmp_path / "e.bin"
        write_csr_binary(g, path)
        loaded = read_csr_binary(path)
        assert loaded.num_vertices == 3 and loaded.num_edges == 0


class TestMatrixMarket:
    def test_roundtrip(self, sample, tmp_path):
        from repro.graph import read_matrix_market, write_matrix_market

        path = tmp_path / "g.mtx"
        write_matrix_market(sample, path)
        loaded = read_matrix_market(path)
        assert np.array_equal(loaded.offsets, sample.offsets)
        assert np.array_equal(loaded.dst, sample.dst)

    def test_one_based_indices(self, tmp_path):
        from repro.graph import read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1\n3 2\n"
        )
        g = read_matrix_market(path)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_values_ignored(self, tmp_path):
        from repro.graph import read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "2 2 2\n1 2 0.5\n2 1 0.5\n"
        )
        g = read_matrix_market(path)
        assert g.num_edges == 1

    def test_bad_header_rejected(self, tmp_path):
        from repro.graph import read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_text("not a matrix market file\n1 1\n")
        with pytest.raises(ValueError, match="header"):
            read_matrix_market(path)

    def test_dense_format_rejected(self, tmp_path):
        from repro.graph import read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(ValueError, match="coordinate"):
            read_matrix_market(path)

    @pytest.mark.parametrize(
        "body, line, match",
        [
            ("3 3 1\n0 1\n", 3, "outside"),
            ("3 3 1\n4 1\n", 3, "outside"),
            ("-3 3 1\n2 1\n", 2, "negative size"),
        ],
        ids=["index-zero", "index-past-size", "negative-size"],
    )
    def test_bad_indices_name_the_line(self, tmp_path, body, line, match):
        from repro.graph import GraphFormatError, read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n" + body
        )
        with pytest.raises(GraphFormatError, match=match) as excinfo:
            read_matrix_market(path)
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"{path}:{line}: ")


class TestLoadDispatch:
    def test_load_text(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        assert load_graph(path).num_edges == sample.num_edges

    def test_load_binary(self, sample, tmp_path):
        path = tmp_path / "g.bin"
        write_csr_binary(sample, path)
        assert load_graph(path).num_edges == sample.num_edges

    def test_load_matrix_market(self, sample, tmp_path):
        from repro.graph import write_matrix_market

        path = tmp_path / "g.mtx"
        write_matrix_market(sample, path)
        assert load_graph(path).num_edges == sample.num_edges


class TestFormatErrors:
    """Malformed input raises GraphFormatError with path:line context."""

    def test_negative_id_located(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 -3\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        assert excinfo.value.line == 3
        assert excinfo.value.path == str(path)
        assert f"{path}:3:" in str(excinfo.value)

    def test_non_integer_id_located(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_text("0 1\nfoo bar\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(path)

    def test_non_utf8_byte_located(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n1 2\n\xff\xfe 3\n")
        with pytest.raises(GraphFormatError, match="UTF-8") as excinfo:
            read_edge_list(path)
        assert excinfo.value.line == 3
        assert f"{path}:3:" in str(excinfo.value)

    def test_non_utf8_byte_located_past_decode_chunk(self, tmp_path):
        # The text decoder reads ahead in chunks; the error must still
        # name the line holding the bad byte, not the chunk's first line.
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n" * 5000 + b"7 \xc3\x28\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        assert excinfo.value.line == 5001

    def test_id_past_int64_located(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 99999999999999999999\n")
        with pytest.raises(GraphFormatError, match="int64") as excinfo:
            read_edge_list(path)
        assert excinfo.value.line == 2

    def test_matrix_market_non_utf8_located(self, tmp_path):
        from repro.graph import GraphFormatError, read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate pattern symmetric\n"
            b"3 3 2\n1 2\n\xff 3\n"
        )
        with pytest.raises(GraphFormatError, match="UTF-8") as excinfo:
            read_matrix_market(path)
        assert excinfo.value.line == 4

    def test_matrix_market_bad_entry_located(self, tmp_path):
        from repro.graph import GraphFormatError, read_matrix_market

        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment\n3 3 2\n1 2\nx 3\n"
        )
        with pytest.raises(GraphFormatError) as excinfo:
            read_matrix_market(path)
        assert excinfo.value.line == 5

    def test_is_a_value_error(self, tmp_path):
        # Historical call sites catch ValueError; the subclass keeps them.
        path = tmp_path / "g.txt"
        path.write_text("oops\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_strict_rejects_self_loop(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 1\n")
        with pytest.raises(GraphFormatError, match="self-loop"):
            read_edge_list(path, strict=True)
        # Non-strict silently normalizes it away.
        assert read_edge_list(path).num_edges == 1

    def test_strict_rejects_duplicate_edge(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            read_edge_list(path, strict=True)
        assert read_edge_list(path).num_edges == 1

    def test_truncated_binary_header(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.bin"
        path.write_bytes(b"PPSCANG1" + b"\x01")
        with pytest.raises(GraphFormatError, match="truncated header"):
            read_csr_binary(path)

    def test_truncated_binary_arrays(self, sample, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.bin"
        write_csr_binary(sample, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(GraphFormatError, match="truncated destination"):
            read_csr_binary(path)

    def test_corrupt_binary_offsets(self, sample, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.bin"
        write_csr_binary(sample, path)
        raw = bytearray(path.read_bytes())
        # Offsets start right after the 8-byte magic + 16-byte header;
        # scribble a huge value into offsets[1].
        offset_base = 8 + 16
        raw[offset_base + 8 : offset_base + 16] = np.int64(1 << 40).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError):
            read_csr_binary(path)

    def test_strict_load_graph_dispatch(self, tmp_path):
        from repro.graph import GraphFormatError

        path = tmp_path / "g.txt"
        path.write_text("0 0\n")
        with pytest.raises(GraphFormatError):
            load_graph(path, strict=True)


def _write_raw_binary(path, offsets, dst, *, num_vertices=None, tail=b""):
    """A binary CSR file with the given arrays, written without any of
    :func:`write_csr_binary`'s normalization."""
    offsets = np.asarray(offsets, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n = offsets.size - 1 if num_vertices is None else num_vertices
    header = np.array([n, dst.size], dtype=np.int64)
    path.write_bytes(
        b"PPSCANG1" + header.tobytes() + offsets.tobytes() + dst.tobytes() + tail
    )
    return path


class TestBinaryValidation:
    """Binary CSR is fully validated on read: a file that breaks a CSR
    invariant is refused with :class:`GraphFormatError`, never loaded."""

    @pytest.mark.parametrize(
        "offsets, dst, match",
        [
            ([0, 1, 1], [1], "symmetric"),
            ([0, 1, 2], [0, 1], "self-loop"),
            ([0, 2, 4], [1, 1, 0, 0], "sorted"),
            ([0, 2, 3, 4], [2, 1, 0, 0], "sorted"),
        ],
        ids=["asymmetric", "self-loop", "duplicate", "unsorted"],
    )
    def test_malformed_adjacency(self, tmp_path, offsets, dst, match):
        from repro.graph import GraphFormatError

        path = _write_raw_binary(tmp_path / "g.bin", offsets, dst)
        with pytest.raises(GraphFormatError, match=match) as excinfo:
            load_graph(path)
        assert excinfo.value.path == str(path)

    def test_huge_header_checked_against_file_size(self, tmp_path):
        from repro.graph import GraphFormatError

        path = _write_raw_binary(
            tmp_path / "g.bin", [0], [], num_vertices=1 << 61
        )
        with pytest.raises(GraphFormatError, match="truncated offsets"):
            read_csr_binary(path)

    def test_trailing_bytes(self, sample, tmp_path):
        from repro.graph import GraphFormatError

        path = _write_raw_binary(
            tmp_path / "g.bin", sample.offsets, sample.dst, tail=b"\0" * 8
        )
        with pytest.raises(GraphFormatError, match="trailing"):
            read_csr_binary(path)

    def test_offsets_whose_difference_wraps(self, tmp_path):
        # 2**62 + 1 -> -2**62 wraps to a positive int64 difference.
        from repro.graph import GraphFormatError

        path = _write_raw_binary(
            tmp_path / "g.bin", [0, (1 << 62) + 1, -(1 << 62), 2], [1, 0]
        )
        with pytest.raises(GraphFormatError, match="non-decreasing"):
            read_csr_binary(path)


class TestValidateGraph:
    def test_clean_graph_no_problems(self, sample):
        from repro.core import validate_graph

        assert validate_graph(sample) == []

    def test_asymmetric_arcs_detected(self):
        from repro.core import validate_graph
        from repro.graph import CSRGraph

        graph = CSRGraph(
            offsets=np.array([0, 1, 1], dtype=np.int64),
            dst=np.array([1], dtype=np.int64),
        )
        problems = validate_graph(graph)
        assert any("symmetric" in p for p in problems)

    def test_self_loop_detected(self):
        from repro.core import validate_graph
        from repro.graph import CSRGraph

        graph = CSRGraph(
            offsets=np.array([0, 1, 2], dtype=np.int64),
            dst=np.array([0, 1], dtype=np.int64),
        )
        problems = validate_graph(graph)
        assert any("self-loop" in p for p in problems)

    def test_unsorted_adjacency_detected(self):
        from repro.core import validate_graph
        from repro.graph import CSRGraph

        graph = CSRGraph(
            offsets=np.array([0, 2, 3, 4], dtype=np.int64),
            dst=np.array([2, 1, 0, 0], dtype=np.int64),
        )
        problems = validate_graph(graph)
        assert any("sorted" in p for p in problems)
