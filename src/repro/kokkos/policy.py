"""Execution policies: 1-D ranges and multi-dimensional tiled ranges.

These mirror Kokkos' ``RangePolicy`` and ``MDRangePolicy``.  The tile
arithmetic implements the paper's CPE work-distribution equations:

.. math::

    total\\_tile = \\prod_{n=1}^{num\\_dim}
        \\lceil len\\_range_n / len\\_tile_n \\rceil
    \\qquad (1)

.. math::

    num\\_tile\\_per\\_cpe = \\lceil total\\_tile / num\\_cpe \\rceil
    \\qquad (2)

so the Athread backend can distribute tiles evenly over the 64 CPEs of a
core group exactly as §V-B *Parallel Execution* describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class RangePolicy:
    """A 1-D iteration range ``[begin, end)``."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.begin:
            raise ValueError(f"RangePolicy end {self.end} < begin {self.begin}")

    @property
    def ndim(self) -> int:
        return 1

    @property
    def size(self) -> int:
        return self.end - self.begin

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.begin, self.end),)


class MDRangePolicy:
    """A multi-dimensional iteration range with optional tile lengths.

    Parameters
    ----------
    ranges:
        Sequence of ``(begin, end)`` pairs, one per dimension.  A bare
        integer ``n`` is shorthand for ``(0, n)``.
    tile:
        Tile lengths per dimension.  When omitted, backends choose their
        own default (the Athread backend picks tiles that fit in LDM).
    """

    def __init__(
        self,
        ranges: Sequence,
        tile: Optional[Sequence[int]] = None,
    ) -> None:
        norm: List[Tuple[int, int]] = []
        for r in ranges:
            if isinstance(r, (int,)):
                norm.append((0, int(r)))
            else:
                b, e = int(r[0]), int(r[1])
                if e < b:
                    raise ValueError(f"MDRangePolicy range end {e} < begin {b}")
                norm.append((b, e))
        if not norm:
            raise ValueError("MDRangePolicy needs at least one dimension")
        self._ranges: Tuple[Tuple[int, int], ...] = tuple(norm)
        if tile is not None:
            tile = tuple(int(t) for t in tile)
            if len(tile) != len(norm):
                raise ValueError(
                    f"tile rank {len(tile)} != range rank {len(norm)}"
                )
            if any(t <= 0 for t in tile):
                raise ValueError(f"tile lengths must be positive, got {tile}")
        self.tile: Optional[Tuple[int, ...]] = tile

    @property
    def ndim(self) -> int:
        return len(self._ranges)

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        return self._ranges

    @property
    def extents(self) -> Tuple[int, ...]:
        return tuple(e - b for b, e in self._ranges)

    @property
    def size(self) -> int:
        return math.prod(self.extents)


def as_md(policy) -> MDRangePolicy:
    """Normalise any policy-like object to an :class:`MDRangePolicy`.

    Accepts :class:`RangePolicy`, :class:`MDRangePolicy`, an int (1-D
    size), or a sequence of ranges/extents.
    """
    if isinstance(policy, MDRangePolicy):
        return policy
    if isinstance(policy, RangePolicy):
        return MDRangePolicy([(policy.begin, policy.end)])
    if isinstance(policy, (int,)):
        return MDRangePolicy([(0, int(policy))])
    return MDRangePolicy(policy)


def total_tiles(extents: Sequence[int], tile: Sequence[int]) -> int:
    """Equation (1): the total number of tiles over all dimensions."""
    return math.prod(
        -(-ext // t) for ext, t in zip(extents, tile)
    )


def tiles_per_cpe(total: int, num_cpe: int) -> int:
    """Equation (2): tiles per CPE for a balanced ergodic sweep."""
    return -(-total // num_cpe)


def iter_tiles(
    ranges: Sequence[Tuple[int, int]],
    tile: Sequence[int],
) -> Iterator[Tuple[slice, ...]]:
    """Yield slices covering ``ranges`` tile-by-tile in row-major order."""
    per_dim: List[List[slice]] = []
    for (b, e), t in zip(ranges, tile):
        dim_slices = [slice(lo, min(lo + t, e)) for lo in range(b, e, t)]
        if not dim_slices:  # empty range still needs one (empty) slice
            dim_slices = [slice(b, e)]
        per_dim.append(dim_slices)
    for combo in product(*per_dim):
        yield tuple(combo)


def tile_volume(slices: Sequence[slice]) -> int:
    """Number of iteration points inside a tile."""
    return math.prod(max(0, s.stop - s.start) for s in slices)
