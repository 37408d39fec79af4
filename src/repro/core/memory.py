"""Fail-fast memory budgeting for the dense batch/trace engines.

The dense kernels allocate several ``(shard_rows, n)``-shaped buffers
per *concurrently running* shard.  At million-vertex scale a mis-sized
call no longer fails with a Python exception — the worker pool gets
OOM-killed mid-campaign, which surfaces as an opaque
``BrokenProcessPool`` (or a dead machine) long after the mistake.  The
guard here estimates the dense allocation up front from the same
quantities the kernels use, compares it against the available physical
memory, and raises a clear :class:`~repro.errors.ExperimentError`
naming the required bytes and the sparse-engine escape hatch *before*
any shard is seeded.

Deliberately approximate and permissive: the estimate counts only the
dominant ``(rows, n)``-proportional buffers (not frontier arrays, trace
recorders, or interpreter overhead) and only trips when even that
underestimate exceeds what the machine can offer.  Set
``REPRO_DENSE_STATE_LIMIT_BYTES`` to override the detected limit (CI
and tests pin it; ``0`` disables the guard).
"""

from __future__ import annotations

import os

from repro.errors import ExperimentError
from repro.graphs.base import Graph
from repro.parallel import resolve_jobs, shard_bounds, will_pool

#: Environment override for the byte budget; ``0`` disables the guard.
LIMIT_ENV = "REPRO_DENSE_STATE_LIMIT_BYTES"


def dense_state_limit_bytes() -> int | None:
    """The byte budget the dense engines may plan against, or ``None``.

    The :data:`LIMIT_ENV` variable wins when set (``0`` disables the
    guard); otherwise the available *physical* memory reported by
    ``sysconf`` is used.  Platforms exposing neither return ``None``
    and the guard stays silent.
    """
    override = os.environ.get(LIMIT_ENV)
    if override is not None:
        limit = int(override)
        return limit if limit > 0 else None
    try:
        pages = os.sysconf("SC_AVPHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    if pages <= 0 or page_size <= 0:
        return None
    return pages * page_size


def estimate_dense_shard_bytes(
    process: str, n_vertices: int, shard_rows: int, record: bool
) -> int:
    """Dominant dense-state bytes of one running shard.

    Mirrors the allocations in :mod:`repro.core.batch`: COBRA keeps
    three (four when tracing) ``(rows, stride)`` bool matrices at a
    power-of-two column pitch; BIPS keeps six (eight when tracing)
    one-byte ``(rows, n)`` matrices — state, gather scratch, counts,
    their replica-major copy, the armed mask and the next state — and,
    when every vertex is armed, three 8-byte vectors of ``rows·n``
    entries: the armed positions, their uniforms and their thresholds.
    """
    if process == "cobra":
        stride = 1 << (n_vertices - 1).bit_length() if n_vertices > 1 else 1
        matrices = 4 if record else 3
        return matrices * shard_rows * stride
    if process == "bips":
        byte_matrices = 8 if record else 6
        return shard_rows * (byte_matrices + 3 * 8) * n_vertices
    raise ValueError(f"unknown process {process!r}")


def check_dense_state_budget(
    graph: Graph,
    *,
    process: str,
    n_replicas: int,
    record: bool,
    shard_size: int | None,
    jobs: int | None,
) -> None:
    """Raise :class:`ExperimentError` if the dense state cannot fit.

    Estimates the per-shard allocation times the number of shards that
    will actually run at once (1 inline, ``min(jobs, shards)`` under a
    pool) and compares it to :func:`dense_state_limit_bytes`.
    """
    limit = dense_state_limit_bytes()
    if limit is None:
        return
    bounds = shard_bounds(n_replicas, shard_size)
    widest = max(stop - start for start, stop in bounds)
    per_shard = estimate_dense_shard_bytes(
        process, graph.n_vertices, widest, record
    )
    concurrent = (
        min(resolve_jobs(jobs), len(bounds)) if will_pool(jobs, len(bounds)) else 1
    )
    required = per_shard * concurrent
    if required <= limit:
        return
    raise ExperimentError(
        f"dense {process.upper()} state needs ~{required:,} bytes "
        f"({concurrent} concurrent shard(s) × {per_shard:,} bytes for "
        f"{widest} replicas × {graph.n_vertices} vertices) but only "
        f"{limit:,} bytes are available; use engine='sparse' (frontier-"
        f"proportional state), shrink shard_size/jobs, or raise "
        f"{LIMIT_ENV}"
    )
