"""Layer-level adjacent exchange, the test oracle for exchange canonicalization.

It works on full layers with their whisker paths, independently of the
compact (generator id, offset) words the library searches.
"""

from typing import Optional

from strandcheck.calculus import Layer, slice_cells


def swap_adjacent(l1: Layer, l2: Layer) -> Optional[tuple[Layer, Layer]]:
    """Swap two adjacent layers if their strand intervals are disjoint.

    ``l1`` sits above ``l2``; the returned pair is (new upper, new lower)
    after sliding ``l2`` above ``l1``. ``None`` if the generators interact.
    """
    a, (s1, t1) = l1.offset, l1.gen_widths()
    c, (s2, t2) = l2.offset, l2.gen_widths()
    pre = l1.boundary()[0]
    if c + s2 <= a:
        new_upper_off, new_lower_off = c, a - s2 + t2
    elif c >= a + t1:
        new_upper_off, new_lower_off = c - t1 + s1, a
    else:
        return None
    up = Layer(
        slice_cells(pre, 0, new_upper_off),
        l2.gen,
        slice_cells(pre, new_upper_off + s2),
    )
    mid = up.boundary()[1]
    low = Layer(
        slice_cells(mid, 0, new_lower_off),
        l1.gen,
        slice_cells(mid, new_lower_off + s1),
    )
    return up, low


def region_fits(d, lo: int, hi: int, strand: int, width: int) -> bool:
    """Whether layers ``lo..hi`` of ``d`` stay inside a strand interval.

    Read from full layers: the interval starts ``strand`` strands from the
    left of the boundary above layer ``lo`` and spans ``width`` strands, so
    the strands to its right keep their count while the block's own
    generators change its width. A layer fits when its left whisker covers
    the strands left of the block and its right whisker those right of it.
    """
    if not 0 <= lo <= hi <= len(d.layers):
        return False
    top = d.layers[lo].boundary()[0] if lo < len(d.layers) else d.target
    right = len(top) - strand - width
    if strand < 0 or right < 0:
        return False
    return all(len(layer.left) >= strand and len(layer.right) >= right
               for layer in d.layers[lo:hi])
