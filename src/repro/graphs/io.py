"""Graph persistence: NumPy archives, memory-mapped CSR, edge-list text.

Three formats:

* ``.npz`` (:func:`save_graph` / :func:`load_graph`) — lossless CSR
  arrays plus the provenance name; the fast path for experiment
  artefacts.
* memory-mapped CSR directories (:func:`save_graph_memmap` /
  :func:`load_graph_memmap`) — raw ``.npy`` arrays opened with
  ``mmap_mode="r"`` so million-vertex graphs load in O(1) and worker
  processes share one copy of the adjacency through the OS page cache.
* edge-list text (:func:`to_edge_list_text` /
  :func:`from_edge_list_text`) — one ``u v`` pair per line with a
  ``# name:`` header; interoperable with standard graph tooling.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import GraphConstructionError
from repro.graphs.base import Graph
from repro.graphs.build import from_edges

_FORMAT_VERSION = 1
_MEMMAP_HEADER = "header.json"
_MEMMAP_INDPTR = "indptr.npy"
_MEMMAP_INDICES = "indices.npy"


def save_graph(graph: Graph, path: str | Path) -> Path:
    """Write a graph as a compressed ``.npz`` archive; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        name=np.array(graph.name),
        format_version=np.array(_FORMAT_VERSION),
    )
    # np.savez appends .npz only when missing; normalise the return.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_graph(path: str | Path) -> Graph:
    """Read a graph written by :func:`save_graph` (revalidates)."""
    with np.load(Path(path), allow_pickle=False) as archive:
        try:
            indptr = archive["indptr"]
            indices = archive["indices"]
            name = str(archive["name"])
            version = int(archive["format_version"])
        except KeyError as missing:
            raise GraphConstructionError(
                f"{path} is not a repro graph archive (missing {missing})"
            ) from None
    if version != _FORMAT_VERSION:
        raise GraphConstructionError(
            f"unsupported graph archive version {version} (expected {_FORMAT_VERSION})"
        )
    return Graph(indptr, indices, name=name)


class MemmapGraph(Graph):
    """A validated graph whose CSR arrays are memory-mapped from disk.

    Behaves exactly like :class:`~repro.graphs.base.Graph` — same
    sampling streams, same dtype contract at the API surface — but the
    ``indptr``/``indices`` buffers are read-only ``np.memmap`` views, so
    construction is O(1) regardless of graph size and resident memory
    is only the pages actually touched.  The exception is
    :meth:`~repro.graphs.base.Graph.walk` on a graph of power-of-two
    degree: its first call reads all of ``indices`` and keeps a private
    ``n·r`` int64 row table in the walking process.  Pickling ships the
    directory path instead of the arrays: the workers of a pooled call
    re-map the same files and share one physical copy of the adjacency
    through the OS page cache, under every start method.  The backing
    directory must therefore outlive the graph and be reachable from
    worker processes.
    """

    __slots__ = ("_directory",)

    def __reduce__(self):
        return (load_graph_memmap, (str(self._directory),))


def _memmap_index_dtype(n_vertices: int) -> np.dtype:
    """``int32`` when every vertex id fits in it, else ``int64``."""
    fits = n_vertices - 1 <= np.iinfo(np.int32).max
    return np.dtype(np.int32 if fits else np.int64)


def save_graph_memmap(graph: Graph, directory: str | Path) -> Path:
    """Write ``graph`` as a memory-mappable CSR directory; returns it.

    The directory gets ``indptr.npy``, ``indices.npy``, and a
    ``header.json`` carrying the name and format version.  The
    neighbour indices are stored as ``int32`` whenever every vertex id
    fits — half the bytes on disk and half the pages faulted in at run
    time — and as ``int64`` otherwise.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    storage = _memmap_index_dtype(graph.n_vertices)
    np.save(directory / _MEMMAP_INDPTR, np.asarray(graph.indptr, dtype=np.int64))
    np.save(directory / _MEMMAP_INDICES, np.asarray(graph.indices, dtype=storage))
    header = {
        "format_version": _FORMAT_VERSION,
        "name": graph.name,
        "n_vertices": int(graph.n_vertices),
        "n_edges": int(graph.n_edges),
        "indices_dtype": np.dtype(storage).str,
    }
    (directory / _MEMMAP_HEADER).write_text(json.dumps(header, indent=2) + "\n")
    return directory


def load_graph_memmap(directory: str | Path) -> MemmapGraph:
    """Open a :func:`save_graph_memmap` directory without reading it in.

    The CSR arrays are ``np.load(..., mmap_mode="r")`` views adopted
    zero-copy, so this returns in constant time even for multi-gigabyte
    graphs.  The arrays were validated when the graph was saved and are
    not re-checked here (doing so would fault in every page and defeat
    the mapping).
    """
    directory = Path(directory)
    header_path = directory / _MEMMAP_HEADER
    if not header_path.is_file():
        raise GraphConstructionError(
            f"{directory} is not a memmap graph directory (missing {_MEMMAP_HEADER})"
        )
    try:
        header = json.loads(header_path.read_text())
        name = str(header["name"])
        version = int(header["format_version"])
    except (ValueError, KeyError) as problem:
        raise GraphConstructionError(
            f"{header_path} is not a valid memmap graph header ({problem})"
        ) from None
    if version != _FORMAT_VERSION:
        raise GraphConstructionError(
            f"unsupported graph archive version {version} (expected {_FORMAT_VERSION})"
        )
    indptr = np.load(directory / _MEMMAP_INDPTR, mmap_mode="r")
    indices = np.load(directory / _MEMMAP_INDICES, mmap_mode="r")
    graph = MemmapGraph.adopt_validated_csr(indptr, indices, name=name)
    graph._directory = directory
    return graph


def to_edge_list_text(graph: Graph) -> str:
    """Render as text: a header comment, then one ``u v`` edge per line."""
    lines = [
        f"# name: {graph.name}",
        f"# vertices: {graph.n_vertices}",
    ]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str, *, name: str | None = None) -> Graph:
    """Parse :func:`to_edge_list_text` output (or any ``u v`` line format).

    The vertex count is taken from a ``# vertices:`` header when
    present, else inferred as ``max index + 1``.
    """
    n_vertices: int | None = None
    parsed_name = name
    edges: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("vertices:"):
                n_vertices = int(body.split(":", 1)[1])
            elif body.startswith("name:") and parsed_name is None:
                parsed_name = body.split(":", 1)[1].strip()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphConstructionError(
                f"line {line_number}: expected 'u v', got {raw!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphConstructionError(
                f"line {line_number}: non-integer vertex in {raw!r}"
            ) from None
        edges.append((u, v))
    if n_vertices is None:
        if not edges:
            raise GraphConstructionError("edge-list text has no edges and no vertex count")
        n_vertices = max(max(u, v) for u, v in edges) + 1
    return from_edges(n_vertices, edges, name=parsed_name or "edge_list")


def save_edge_list(graph: Graph, path: str | Path) -> Path:
    """Write the edge-list text format to a file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_edge_list_text(graph))
    return path


def load_edge_list(path: str | Path, *, name: str | None = None) -> Graph:
    """Read a graph from an edge-list text file."""
    return from_edge_list_text(Path(path).read_text(), name=name)
