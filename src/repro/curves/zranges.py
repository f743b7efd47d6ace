"""Decomposition of query windows into covering Z-value ranges.

A rectangular query window rarely maps to a single contiguous Z range; it is
covered by a set of ranges obtained by walking the implicit quad-tree (2D)
or oct-tree (3D) of curve cells.  Cells fully inside the window contribute
their whole Z interval; boundary cells are split until a range budget is
reached, at which point the remaining cells contribute covering
(over-approximating) intervals.  Over-approximation is safe: the scan layer
post-filters records against the exact predicate.

The budget mirrors GeoMesa's ``maxRangesPerExtendedRange`` behaviour and is
the knob ablated in ``benchmarks/bench_ablation.py``.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from repro.curves.zorder import interleave2, interleave3

DEFAULT_MAX_RANGES = 256

#: Recursion limits below the query's common-prefix cell, mirroring
#: GeoMesa's bounded range decomposition.  The 3D limit is the reason
#: interleaved space-time curves cannot isolate a thin time slab (or a
#: small spatial window) inside a long period — the paper's Section IV-B
#: motivation for Z2T.  Octree refinement costs 8x per level, so the 3D
#: planner stops much earlier than the 2D one.
DEFAULT_MAX_RECURSE_2D = 16
DEFAULT_MAX_RECURSE_3D = 7


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and coalesce overlapping or adjacent inclusive ranges."""
    if not ranges:
        return []
    ranges.sort()
    merged = [ranges[0]]
    for lo, hi in ranges[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _common_prefix_level(bits: int, q_lo: tuple[int, ...],
                         q_hi: tuple[int, ...]) -> int:
    """Deepest level at which one cell still contains the whole query."""
    level = 0
    while level < bits:
        shift = bits - level - 1
        if any((lo >> shift) != (hi >> shift)
               for lo, hi in zip(q_lo, q_hi)):
            return level
        level += 1
    return bits


def _decompose(bits: int, q_lo: tuple[int, ...], q_hi: tuple[int, ...],
               max_ranges: int, max_recurse: int) -> list[tuple[int, int]]:
    """Generic n-dimensional Z-range decomposition.

    ``q_lo``/``q_hi`` are inclusive integer cell bounds per dimension.
    Returns inclusive ``(z_lo, z_hi)`` ranges whose union covers every cell
    in the query box.  Refinement stops ``max_recurse`` levels below the
    query's common-prefix cell (GeoMesa's planner bound); boundary cells
    at the stop level are emitted as covering ranges.
    """
    dims = len(q_lo)
    depth_limit = min(bits,
                      _common_prefix_level(bits, q_lo, q_hi) + max_recurse)
    interleave = {2: lambda c: interleave2(c[0], c[1]),
                  3: lambda c: interleave3(c[0], c[1], c[2])}[dims]
    child_offsets = list(product((0, 1), repeat=dims))

    ranges: list[tuple[int, int]] = []
    # Breadth-first over (level, coords); coarse cells are decided first so
    # that exhausting the budget degrades precision, not correctness.
    queue: deque[tuple[int, tuple[int, ...]]] = deque()
    queue.append((0, tuple(0 for _ in range(dims))))

    def cell_range(level: int, coords: tuple[int, ...]) -> tuple[int, int]:
        shift = dims * (bits - level)
        z_lo = interleave(coords) << shift
        return z_lo, z_lo + (1 << shift) - 1

    while queue:
        level, coords = queue.popleft()
        shift = bits - level
        lo = tuple(c << shift for c in coords)
        hi = tuple(((c + 1) << shift) - 1 for c in coords)
        disjoint = any(lo[d] > q_hi[d] or hi[d] < q_lo[d]
                       for d in range(dims))
        if disjoint:
            continue
        contained = all(lo[d] >= q_lo[d] and hi[d] <= q_hi[d]
                        for d in range(dims))
        budget_left = max_ranges - len(ranges) - len(queue)
        if contained or level >= depth_limit or budget_left <= 0:
            ranges.append(cell_range(level, coords))
            continue
        for offsets in child_offsets:
            child = tuple(c * 2 + o for c, o in zip(coords, offsets))
            queue.append((level + 1, child))

    return _merge_ranges(ranges)


def _decompose2(bits: int, x_lo: int, y_lo: int, x_hi: int, y_hi: int,
                max_ranges: int, max_recurse: int) -> list[tuple[int, int]]:
    """:func:`_decompose` for two dimensions, on plain ints.

    The quad-tree is walked one level at a time, which is the same
    breadth-first order: ``cells`` holds a level's cells as flat
    ``x, y, z`` triples, where ``z`` is the cell's Z prefix, so a
    child's prefix is ``z * 4 + offset`` and no cell is interleaved
    from scratch.  Children are queued in the generic walk's order —
    offsets ``(x, y)`` = (0, 0), (0, 1), (1, 0), (1, 1) — and
    ``queued`` counts what the generic queue would hold, so the range
    budget test, and therefore the output, is identical.
    """
    depth_limit = min(bits, _common_prefix_level(bits, (x_lo, y_lo),
                                                 (x_hi, y_hi))
                      + max_recurse)
    ranges: list[tuple[int, int]] = []
    cells = [0, 0, 0]
    level = 0
    while cells:
        shift = bits - level
        last = (1 << shift) - 1  # a cell spans [c << shift, + last]
        z_shift = 2 * shift
        z_last = (1 << z_shift) - 1
        split = level < depth_limit
        children: list[int] = []
        queued = len(cells) // 3
        for i in range(0, len(cells), 3):
            queued -= 1
            x0 = cells[i] << shift
            x1 = x0 + last
            if x0 > x_hi or x1 < x_lo:
                continue
            y0 = cells[i + 1] << shift
            y1 = y0 + last
            if y0 > y_hi or y1 < y_lo:
                continue
            if split and max_ranges - len(ranges) - queued > 0 and not (
                    x0 >= x_lo and x1 <= x_hi
                    and y0 >= y_lo and y1 <= y_hi):
                x = cells[i] * 2
                y = cells[i + 1] * 2
                z = cells[i + 2] * 4
                children += (x, y, z, x, y + 1, z + 2,
                             x + 1, y, z + 1, x + 1, y + 1, z + 3)
                queued += 4
            else:
                z = cells[i + 2] << z_shift
                ranges.append((z, z + z_last))
        cells = children
        level += 1
    return _merge_ranges(ranges)


def z2_ranges(x_lo: int, y_lo: int, x_hi: int, y_hi: int,
              bits: int = 31,
              max_ranges: int = DEFAULT_MAX_RANGES,
              max_recurse: int = DEFAULT_MAX_RECURSE_2D
              ) -> list[tuple[int, int]]:
    """Covering Z2 ranges for an integer cell box (inclusive bounds)."""
    return _decompose2(bits, x_lo, y_lo, x_hi, y_hi, max_ranges,
                       max_recurse)


def z3_ranges(x_lo: int, y_lo: int, t_lo: int,
              x_hi: int, y_hi: int, t_hi: int,
              bits: int = 21,
              max_ranges: int = DEFAULT_MAX_RANGES,
              max_recurse: int = DEFAULT_MAX_RECURSE_3D
              ) -> list[tuple[int, int]]:
    """Covering Z3 ranges for an integer cell cube (inclusive bounds)."""
    return _decompose(bits, (x_lo, y_lo, t_lo), (x_hi, y_hi, t_hi),
                      max_ranges, max_recurse)
