"""Layer-level adjacent exchange, the test oracle for exchange and isotopy.

It works on full layers with their whisker paths, independently of the
compact (generator id, offset) words the library searches. ``tuple_walk``
is the exception: the library's exchange walk as it ran on tuples of
letters before it searched on byte strings, kept as the reference for
the order in which a walk yields words.
"""

from collections import deque
from typing import Optional

from strandcheck.calculus import Layer, _swap_branches, slice_cells


def swap_branches(l1: Layer, l2: Layer) -> list[tuple[Layer, Layer]]:
    """Every way to swap two adjacent layers with disjoint strand intervals.

    ``l1`` sits above ``l2``; each pair returned is (new upper, new lower)
    after sliding ``l2`` above ``l1``, past its left or its right side.
    Both sides are open only to a cell with no inputs under a cell with no
    outputs at the same offset. Empty if the generators interact.
    """
    a, (s1, t1) = l1.offset, l1.gen_widths()
    c, (s2, t2) = l2.offset, l2.gen_widths()
    pre = l1.boundary()[0]
    offsets = []
    if c + s2 <= a:
        offsets.append((c, a - s2 + t2))
    if c >= a + t1:
        offsets.append((c - t1 + s1, a))
    out = []
    for new_upper_off, new_lower_off in offsets:
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
        if (up, low) not in out:
            out.append((up, low))
    return out


def swap_adjacent(l1: Layer, l2: Layer) -> Optional[tuple[Layer, Layer]]:
    """The first branch of ``swap_branches``, or ``None`` if the
    generators interact."""
    branches = swap_branches(l1, l2)
    return branches[0] if branches else None


def symmetric_closure(d) -> set:
    """The layer sequences of every presentation of ``d`` reachable by
    swaps under both branches."""
    seen = {d.layers}
    frontier = [d.layers]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            for sw in swap_branches(cur[i], cur[i + 1]):
                nxt = cur[:i] + sw + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


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


def tuple_exchanges(word: tuple):
    """Every word one exchange move from ``word`` under both branches,
    pair by pair from the left of the word."""
    for i in range(len(word) - 1):
        for sw in _swap_branches(word[i], word[i + 1]):
            yield word[:i] + sw + word[i + 2 :]


def tuple_walk(word: tuple):
    """Every word of ``word``'s exchange class, lazily, in breadth-first
    discovery order over ``tuple_exchanges`` from ``word`` itself."""
    seen = {word}
    frontier = deque([word])
    while frontier:
        cur = frontier.popleft()
        yield cur
        for nxt in tuple_exchanges(cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
