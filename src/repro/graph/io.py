"""Graph IO: SNAP-style text edge lists and a compact binary CSR format.

The binary format mirrors the ``b_degree.bin`` / ``b_adj.bin`` convention of
the original pSCAN/ppSCAN code bases closely enough to make the round trip
obvious: a small header (magic, vertex count, arc count) followed by the
offset and destination arrays.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import sys
from pathlib import Path

import numpy as np

from .csr import CSRGraph, VERTEX_DTYPE, validate_graph
from .builders import from_edge_array

__all__ = [
    "GraphFormatError",
    "read_edge_list",
    "write_edge_list",
    "read_csr_binary",
    "write_csr_binary",
    "csr_to_bytes",
    "read_matrix_market",
    "write_matrix_market",
    "load_graph",
]

_MAGIC = b"PPSCANG1"


class GraphFormatError(ValueError):
    """A malformed graph file.

    Subclasses ``ValueError`` so historical ``except ValueError`` call
    sites keep working; the message is prefixed with ``path:line:``
    context whenever it is known, so the offending input is one click
    away.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | os.PathLike | None = None,
        line: int | None = None,
    ) -> None:
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


#: Largest vertex id a graph file may name (ids are stored as int64).
_MAX_ID = int(np.iinfo(VERTEX_DTYPE).max)


def _undecodable(path, opener=open) -> GraphFormatError:
    """The ``path:line`` error for a file that is not valid UTF-8.

    Text-mode reads decode in chunks, so the line the decoder was on is
    not the offending one; the error path re-reads the file as bytes to
    name the first line that fails to decode.
    """
    if path == "<stdin>":
        return GraphFormatError("input is not valid UTF-8", path=path)
    with opener(path, "rb") as raw:
        for lineno, line in enumerate(raw, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = line[exc.start : exc.end]
                return GraphFormatError(
                    f"invalid UTF-8 byte {bad!r}", path=path, line=lineno
                )
    return GraphFormatError("input is not valid UTF-8", path=path)


def read_edge_list(
    path: str | os.PathLike,
    comment: str = "#",
    compact_ids: bool = False,
    strict: bool = False,
) -> CSRGraph:
    """Read a whitespace-separated edge list (SNAP format).

    Lines starting with ``comment`` are skipped.  Vertex ids must be
    non-negative integers; the graph is normalized (deduplicated,
    symmetric, sorted) on load.  Real SNAP dumps often use sparse,
    non-contiguous ids — pass ``compact_ids=True`` to remap them densely
    to ``0..n-1`` (ascending original-id order) instead of materializing
    ``max(id) + 1`` vertices.

    Malformed input — including a non-UTF-8 byte or a vertex id past
    int64 — raises :class:`GraphFormatError` with ``path:line:``
    context.  ``strict=True`` additionally rejects what normalization
    would otherwise silently repair: self-loops and duplicate edges.

    ``path="-"`` reads the edge list from standard input (pipes compose:
    ``repro-scan generate ... /dev/stdout | repro-scan stats -``).
    """
    rows: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] | None = set() if strict else None
    opener = open
    if str(path) == "-":
        source = contextlib.nullcontext(sys.stdin)
        path = "<stdin>"
    else:
        opener = gzip.open if Path(path).suffix == ".gz" else open
        source = opener(path, "rt", encoding="utf-8")
    try:
        with source as fh:
            _parse_edge_lines(fh, path, comment, rows, seen)
    except UnicodeDecodeError:
        raise _undecodable(path, opener) from None
    edges = np.array(rows, dtype=VERTEX_DTYPE).reshape(-1, 2)
    if compact_ids and edges.size:
        unique_ids, edges_flat = np.unique(edges, return_inverse=True)
        edges = edges_flat.reshape(-1, 2).astype(VERTEX_DTYPE)
    return from_edge_array(edges)


def _parse_edge_lines(fh, path, comment: str, rows: list, seen) -> None:
    max_id = _MAX_ID
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith(comment):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"malformed edge line: {line!r} (expected at least "
                "two whitespace-separated vertex ids)",
                path=path,
                line=lineno,
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"non-integer vertex id in line: {line!r}",
                path=path,
                line=lineno,
            ) from None
        if not (0 <= u <= max_id and 0 <= v <= max_id):
            what = "negative" if u < 0 or v < 0 else "past int64"
            raise GraphFormatError(
                f"vertex id {what} in line: {line!r}", path=path, line=lineno
            )
        if seen is not None:
            if u == v:
                raise GraphFormatError(
                    f"self-loop {u}-{v}", path=path, line=lineno
                )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(
                    f"duplicate edge {u}-{v}", path=path, line=lineno
                )
            seen.add(key)
        rows.append((u, v))


def write_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the undirected edge list (one ``u v`` per line, ``u < v``)."""
    edges = graph.edge_list()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ppSCAN reproduction edge list |V|={graph.num_vertices}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def csr_to_bytes(graph: CSRGraph) -> bytes:
    """The compact binary CSR serialization as one ``bytes`` payload.

    Byte-exact with what :func:`write_csr_binary` puts on disk, so the
    round trip through :func:`read_csr_binary` preserves the graph's
    content fingerprint — the property the service WAL's spilled
    payloads rely on.
    """
    header = np.array([graph.num_vertices, graph.num_arcs], dtype=np.int64)
    return b"".join(
        (
            _MAGIC,
            header.tobytes(),
            np.asarray(graph.offsets, dtype=np.int64).tobytes(),
            np.asarray(graph.dst, dtype=np.int64).tobytes(),
        )
    )


def write_csr_binary(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the graph in the compact binary CSR format."""
    with open(path, "wb") as fh:
        fh.write(csr_to_bytes(graph))


def read_csr_binary(path: str | os.PathLike) -> CSRGraph:
    """Read a graph written by :func:`write_csr_binary`.

    The file is fully validated: a truncated or oversized file, a header
    whose sizes disagree with the file size, a bad offset array and a
    graph that breaks any CSR invariant (:func:`~repro.graph.csr.validate_graph`:
    out-of-range, self-loop, duplicate or unsorted neighbors, asymmetric
    arcs) all raise :class:`GraphFormatError` naming the file, instead
    of silently constructing a wrong graph.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if len(magic) < len(_MAGIC):
            raise GraphFormatError("truncated header", path=path)
        if magic != _MAGIC:
            raise GraphFormatError(f"bad magic {magic!r}", path=path)
        header_bytes = fh.read(16)
        if len(header_bytes) < 16:
            raise GraphFormatError("truncated header", path=path)
        header = np.frombuffer(header_bytes, dtype=np.int64)
        n, arcs = int(header[0]), int(header[1])
        if n < 0 or arcs < 0:
            raise GraphFormatError(
                f"corrupt header: num_vertices={n}, num_arcs={arcs}",
                path=path,
            )
        # The header's sizes must account for the file to the byte
        # before anything is allocated from them.
        body = size - len(_MAGIC) - 16
        if body < 8 * (n + 1):
            raise GraphFormatError(
                f"truncated offsets array (expected {n + 1} entries, "
                f"got {body // 8})",
                path=path,
            )
        if body - 8 * (n + 1) < 8 * arcs:
            raise GraphFormatError(
                f"truncated destination array (expected {arcs} entries, "
                f"got {(body - 8 * (n + 1)) // 8})",
                path=path,
            )
        if body != 8 * (n + 1 + arcs):
            raise GraphFormatError(
                f"{body - 8 * (n + 1 + arcs)} trailing bytes after the "
                "destination array",
                path=path,
            )
        offsets = np.frombuffer(fh.read(8 * (n + 1)), dtype=np.int64).copy()
        dst = np.frombuffer(fh.read(8 * arcs), dtype=np.int64).copy()
    try:
        graph = CSRGraph(offsets=offsets, dst=dst)
    except ValueError as exc:  # a bad offset array
        raise GraphFormatError(str(exc), path=path) from None
    problems = validate_graph(graph)
    if problems:
        raise GraphFormatError(problems[0], path=path)
    return graph


def read_matrix_market(path: str | os.PathLike) -> CSRGraph:
    """Read a MatrixMarket coordinate file as an undirected graph.

    Supports ``pattern``/``real``/``integer`` symmetric or general
    coordinate matrices (1-based indices per the format); entry values are
    ignored, self loops dropped, and the result normalized like every
    other loader.  Malformed input (a bad header, a negative size, a
    non-integer index or one outside ``[1, size]``, a non-UTF-8 byte)
    raises :class:`GraphFormatError` with ``path:line:`` context.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            n, pairs = _parse_matrix_market(fh, path)
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    edges = np.array(pairs, dtype=VERTEX_DTYPE).reshape(-1, 2)
    return from_edge_array(edges, num_vertices=n)


def _parse_matrix_market(fh, path) -> tuple[int, list[tuple[int, int]]]:
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        raise GraphFormatError("missing MatrixMarket header", path=path, line=1)
    parts = header.split()
    if len(parts) < 4 or parts[2] != "coordinate":
        raise GraphFormatError(
            "only coordinate format is supported", path=path, line=1
        )
    lineno = 2
    line = fh.readline()
    while line.startswith("%"):
        lineno += 1
        line = fh.readline()
    try:
        rows, cols, _nnz = (int(x) for x in line.split()[:3])
        if rows < 0 or cols < 0:
            raise GraphFormatError(
                f"negative size in line: {line.strip()!r}",
                path=path,
                line=lineno,
            )
        n = max(rows, cols)
        pairs: list[tuple[int, int]] = []
        for lineno, line in enumerate(fh, start=lineno + 1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            fields = line.split()
            i, j = int(fields[0]), int(fields[1])
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphFormatError(
                    f"entry index outside [1, {n}] in line: {line!r}",
                    path=path,
                    line=lineno,
                )
            pairs.append((i - 1, j - 1))
    except GraphFormatError:
        raise
    except (ValueError, IndexError):
        raise GraphFormatError(
            f"malformed line: {line.strip()!r}", path=path, line=lineno
        ) from None
    return n, pairs


def write_matrix_market(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the graph as a symmetric pattern MatrixMarket file."""
    edges = graph.edge_list()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"% ppSCAN reproduction export\n")
        n = graph.num_vertices
        fh.write(f"{n} {n} {len(edges)}\n")
        for u, v in edges:
            # Symmetric format stores the lower triangle: row >= col.
            fh.write(f"{v + 1} {u + 1}\n")


def load_graph(path: str | os.PathLike, *, strict: bool = False) -> CSRGraph:
    """Load a graph, dispatching on extension: ``.bin`` binary CSR,
    ``.mtx`` MatrixMarket, else a whitespace edge list (optionally
    gzip-compressed, the format SNAP distributes).  ``path="-"`` reads
    an edge list from standard input.

    ``strict=True`` rejects input that normalization would silently
    repair (self-loops, duplicate edges in text formats); binary CSR is
    always fully validated on read.
    """
    if str(path) == "-":
        return read_edge_list(path, strict=strict)
    suffix = Path(path).suffix
    if suffix == ".bin":
        return read_csr_binary(path)
    if suffix == ".mtx":
        return read_matrix_market(path)
    return read_edge_list(path, strict=strict)
