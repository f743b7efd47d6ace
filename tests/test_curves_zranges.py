"""Query-range decomposition: coverage, precision, budget behaviour."""

from hypothesis import given, settings, strategies as st

from repro.curves.zorder import interleave2, interleave3
from repro.curves.zranges import _merge_ranges, z2_ranges, z3_ranges

BITS2 = 8   # small bit widths keep exhaustive checks cheap
cell8 = st.integers(0, (1 << BITS2) - 1)


def covered(ranges, z):
    return any(lo <= z <= hi for lo, hi in ranges)


class TestMerge:
    def test_merge_adjacent(self):
        assert _merge_ranges([(0, 3), (4, 9)]) == [(0, 9)]

    def test_merge_overlapping(self):
        assert _merge_ranges([(0, 5), (3, 9), (20, 30)]) == \
            [(0, 9), (20, 30)]

    def test_merge_empty(self):
        assert _merge_ranges([]) == []

    def test_merge_unsorted_input(self):
        assert _merge_ranges([(10, 12), (0, 2)]) == [(0, 2), (10, 12)]


class TestZ2Ranges:
    @given(x1=cell8, y1=cell8, x2=cell8, y2=cell8)
    @settings(max_examples=50)
    def test_every_cell_in_box_is_covered(self, x1, y1, x2, y2):
        x_lo, x_hi = sorted((x1, x2))
        y_lo, y_hi = sorted((y1, y2))
        ranges = z2_ranges(x_lo, y_lo, x_hi, y_hi, bits=BITS2)
        # Exhaustively verify a sample of inner cells.
        xs = {x_lo, x_hi, (x_lo + x_hi) // 2}
        ys = {y_lo, y_hi, (y_lo + y_hi) // 2}
        for x in xs:
            for y in ys:
                assert covered(ranges, interleave2(x, y))

    @given(x1=cell8, y1=cell8, x2=cell8, y2=cell8)
    @settings(max_examples=30)
    def test_outside_corner_cells_not_covered_when_tight(self, x1, y1,
                                                         x2, y2):
        x_lo, x_hi = sorted((x1, x2))
        y_lo, y_hi = sorted((y1, y2))
        ranges = z2_ranges(x_lo, y_lo, x_hi, y_hi, bits=BITS2,
                           max_ranges=100_000)
        # With an unconstrained budget the decomposition is exact:
        # cells just outside the box must not be covered.
        if x_lo > 0:
            assert not covered(ranges, interleave2(x_lo - 1, y_lo))
        if y_hi < (1 << BITS2) - 1:
            assert not covered(ranges, interleave2(x_lo, y_hi + 1))

    def test_full_domain_is_single_range(self):
        top = (1 << BITS2) - 1
        ranges = z2_ranges(0, 0, top, top, bits=BITS2)
        assert ranges == [(0, (1 << (2 * BITS2)) - 1)]

    def test_single_cell(self):
        ranges = z2_ranges(5, 9, 5, 9, bits=BITS2)
        z = interleave2(5, 9)
        assert ranges == [(z, z)]

    def test_budget_caps_range_count(self):
        top = (1 << 16) - 1
        ranges = z2_ranges(1, 1, top - 1, top - 1, bits=16, max_ranges=16)
        assert len(ranges) <= 16

    def test_budget_still_covers(self):
        # Tight budget must over-approximate, never under-approximate.
        ranges = z2_ranges(10, 20, 200, 220, bits=BITS2, max_ranges=4)
        for x in (10, 100, 200):
            for y in (20, 120, 220):
                assert covered(ranges, interleave2(x, y))

    def test_more_budget_less_coverage(self):
        span = sum(hi - lo + 1 for lo, hi in
                   z2_ranges(3, 3, 200, 200, bits=BITS2, max_ranges=4))
        tight = sum(hi - lo + 1 for lo, hi in
                    z2_ranges(3, 3, 200, 200, bits=BITS2, max_ranges=256))
        assert tight <= span


class TestZ3Ranges:
    def test_cube_coverage(self):
        ranges = z3_ranges(1, 2, 3, 6, 7, 8, bits=6)
        for x in (1, 4, 6):
            for y in (2, 5, 7):
                for t in (3, 5, 8):
                    assert covered(ranges, interleave3(x, y, t))

    def test_exact_when_unbudgeted(self):
        ranges = z3_ranges(2, 2, 2, 3, 3, 3, bits=4, max_ranges=100_000)
        assert not covered(ranges, interleave3(1, 2, 2))
        assert not covered(ranges, interleave3(2, 4, 2))
        assert covered(ranges, interleave3(3, 3, 3))

    def test_time_slab_produces_many_ranges(self):
        # A thin spatial box over a wide time slab fragments into many
        # ranges in Z3 — the phenomenon motivating Z2T (Section IV-B).
        top = (1 << 6) - 1
        ranges = z3_ranges(10, 10, 0, 11, 11, top, bits=6,
                           max_ranges=10_000)
        assert len(ranges) > 8


# -- the integer 2-D walk against the generic decomposition ------------------

def generic_decompose(bits, q_lo, q_hi, max_ranges, max_recurse):
    """The generic n-dimensional walk the integer 2-D walk replaced,
    kept verbatim as its oracle (tuples, per-cell interleaving)."""
    from collections import deque
    from itertools import product

    from repro.curves.zranges import _common_prefix_level

    dims = len(q_lo)
    depth_limit = min(bits,
                      _common_prefix_level(bits, q_lo, q_hi) + max_recurse)
    interleave = {2: lambda c: interleave2(c[0], c[1]),
                  3: lambda c: interleave3(c[0], c[1], c[2])}[dims]
    child_offsets = list(product((0, 1), repeat=dims))
    ranges = []
    queue = deque()
    queue.append((0, tuple(0 for _ in range(dims))))

    def cell_range(level, coords):
        shift = dims * (bits - level)
        z_lo = interleave(coords) << shift
        return z_lo, z_lo + (1 << shift) - 1

    while queue:
        level, coords = queue.popleft()
        shift = bits - level
        lo = tuple(c << shift for c in coords)
        hi = tuple(((c + 1) << shift) - 1 for c in coords)
        if any(lo[d] > q_hi[d] or hi[d] < q_lo[d] for d in range(dims)):
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


def random_box(rng, bits, dims):
    """A box of random size and place; half of them small."""
    top = (1 << bits) - 1
    lo, hi = [], []
    width = rng.randint(0, 1 << rng.randint(0, bits)) \
        if rng.random() < 0.5 else None
    for _ in range(dims):
        a, b = sorted(rng.randint(0, top) for _ in range(2))
        if width is not None:
            b = min(top, a + width)
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


class TestDecompositionOracle:
    def test_2d_equals_generic_walk(self):
        import random
        rng = random.Random(20201)
        for _ in range(600):
            bits = rng.choice((3, 8, 16, 31))
            (x_lo, y_lo), (x_hi, y_hi) = random_box(rng, bits, 2)
            max_ranges = rng.randint(1, 1024)
            max_recurse = rng.randint(0, 16)
            assert z2_ranges(x_lo, y_lo, x_hi, y_hi, bits=bits,
                             max_ranges=max_ranges,
                             max_recurse=max_recurse) == \
                generic_decompose(bits, (x_lo, y_lo), (x_hi, y_hi),
                                  max_ranges, max_recurse)

    def test_3d_equals_generic_walk(self):
        import random
        rng = random.Random(7)
        for _ in range(150):
            bits = rng.choice((3, 6, 21))
            lo, hi = random_box(rng, bits, 3)
            max_ranges = rng.randint(1, 1024)
            max_recurse = rng.randint(0, 16)
            assert z3_ranges(*lo, *hi, bits=bits, max_ranges=max_ranges,
                             max_recurse=max_recurse) == \
                generic_decompose(bits, lo, hi, max_ranges, max_recurse)
