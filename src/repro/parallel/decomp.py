"""2-D block domain decomposition with tripolar-fold topology.

LICOM "divides the Earth into horizontal two-dimensional grid blocks,
with each MPI rank handling one block" (§V-D).  The global horizontal
grid is ``(ny, nx)`` (j from south to north, i eastward, zonally
periodic).  Each block carries a halo of width 2: the outermost two
layers are the *ghost halo* (filled from neighbours) and the next two
layers of owned data are the *real halo* (sent to neighbours).

Topology:

* **East/west** — cyclic (the global ocean is zonally periodic).
* **South** — closed (Antarctica); ghost rows are land-filled.
* **North** — the tripolar fold: the grid's two northern poles sit on
  land, and row ``j`` beyond the top maps back onto the top rows with
  the zonal index mirrored (``i -> nx-1-i``).  Vector components flip
  sign across the fold.  Top-row blocks therefore exchange their
  northern halos with the *mirror* block in the same row (possibly
  themselves).

:meth:`BlockDecomposition.ghost_moves` turns that topology into the
halo exchange's schedule: each ghost cell's source is a cell in the
interior of the rank that owns it (or a fill), grouped into rectangles.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import DecompositionError

#: Paper halo width: two ghost layers + two real-halo layers.
DEFAULT_HALO = 2


@dataclass(frozen=True)
class Block:
    """One rank's owned region of the global grid (no halo)."""

    rank: int
    py: int
    px: int
    j0: int
    j1: int
    i0: int
    i1: int

    @property
    def nyl(self) -> int:
        return self.j1 - self.j0

    @property
    def nxl(self) -> int:
        return self.i1 - self.i0


class Move(NamedTuple):
    """One rectangle of a rank's ghost cells and where its values live.

    ``owner`` is the rank whose array holds the source (``None`` for a
    fill with the field's closed-boundary value); ``dst`` and ``src``
    are ``(rows, cols)`` slices into the local arrays of the rank and of
    the owner — a reversed slice walks the tripolar mirror; ``signed``
    marks fold-crossing data (times the field's sign).
    """

    owner: Optional[int]
    dst: Tuple[slice, slice]
    src: Optional[Tuple[slice, slice]]
    signed: bool


def _runs(keys: Sequence[Tuple[Optional[int], int, int]]) -> List[list]:
    """Maximal runs ``[start, stop, owner, first source, step]`` over
    ``keys[i] = (owner, source index, step)``: consecutive positions
    whose sources are one owner's indices walked by ``step`` (+1, or -1
    through the mirror; 0 marks a fill)."""
    runs: List[list] = []
    for i, (owner, src, step) in enumerate(keys):
        if runs:
            run = runs[-1]
            if (owner, step) == (run[2], run[4]) and \
                    src == run[3] + step * (i - run[0]):
                run[1] = i + 1
                continue
        runs.append([i, i + 1, owner, src, step])
    return runs


def _walk(start: int, n: int, step: int) -> slice:
    """``n`` indices from ``start`` on, walking ``step``."""
    if step > 0:
        return slice(start, start + n)
    return slice(start, start - n if start >= n else None, -1)


class BlockDecomposition:
    """Even 2-D split of an ``(ny, nx)`` global grid over ``npy x npx`` ranks.

    Parameters
    ----------
    ny, nx:
        Global grid extents (rows, columns).
    npy, npx:
        Process grid.  ``rank = py * npx + px``.
    halo:
        Halo width (ghost and real halo layers), default 2 as in LICOM.
    north_fold:
        Enable the tripolar fold at the northern boundary.
    """

    def __init__(
        self,
        ny: int,
        nx: int,
        npy: int,
        npx: int,
        halo: int = DEFAULT_HALO,
        north_fold: bool = True,
    ) -> None:
        if npy < 1 or npx < 1:
            raise DecompositionError("process grid must be at least 1x1")
        if ny < npy or nx < npx:
            raise DecompositionError(
                f"grid {ny}x{nx} too small for process grid {npy}x{npx}"
            )
        self.ny, self.nx = int(ny), int(nx)
        self.npy, self.npx = int(npy), int(npx)
        self.halo = int(halo)
        self.north_fold = north_fold
        self.size = self.npy * self.npx
        self._blocks: List[Block] = []
        #: first global row / column of each block row / column
        self._row_starts = [(self.ny * py) // self.npy
                            for py in range(self.npy)]
        self._col_starts = [(self.nx * px) // self.npx
                            for px in range(self.npx)]
        for py in range(self.npy):
            j0 = (self.ny * py) // self.npy
            j1 = (self.ny * (py + 1)) // self.npy
            for px in range(self.npx):
                i0 = (self.nx * px) // self.npx
                i1 = (self.nx * (px + 1)) // self.npx
                rank = py * self.npx + px
                self._blocks.append(Block(rank, py, px, j0, j1, i0, i1))
        min_extent = min(min(b.nyl, b.nxl) for b in self._blocks)
        if min_extent < self.halo:
            raise DecompositionError(
                f"smallest block extent {min_extent} is below the halo "
                f"width {self.halo}; use fewer ranks"
            )
        if north_fold:
            # The fold partner must own exactly the mirrored column range.
            for b in self.top_row_blocks():
                p = self._fold_partner(b)
                if p is None:
                    raise DecompositionError(
                        f"block {b.rank} has no exact tripolar-fold partner; "
                        "choose npx so the top-row split is mirror-symmetric"
                    )

    # -- lookup -------------------------------------------------------------

    def block(self, rank: int) -> Block:
        """The block owned by ``rank``."""
        return self._blocks[rank]

    def top_row_blocks(self) -> List[Block]:
        return [b for b in self._blocks if b.py == self.npy - 1]

    def rank_of(self, py: int, px: int) -> int:
        return py * self.npx + px

    def _fold_partner(self, b: Block) -> Optional[Block]:
        want = (self.nx - b.i1, self.nx - b.i0)
        for other in self.top_row_blocks():
            if (other.i0, other.i1) == want:
                return other
        return None

    def neighbors(self, rank: int) -> Dict[str, Optional[int]]:
        """Neighbour ranks of ``rank``: keys ``e w n s fold``.

        ``n`` is the regular northern neighbour (None on the top row);
        ``fold`` is the tripolar partner (None except on the top row
        when ``north_fold``); ``s`` is None on the bottom row (closed).
        """
        b = self.block(rank)
        east = self.rank_of(b.py, (b.px + 1) % self.npx)
        west = self.rank_of(b.py, (b.px - 1) % self.npx)
        north = self.rank_of(b.py + 1, b.px) if b.py + 1 < self.npy else None
        south = self.rank_of(b.py - 1, b.px) if b.py > 0 else None
        fold = None
        if self.north_fold and b.py == self.npy - 1:
            partner = self._fold_partner(b)
            fold = partner.rank if partner is not None else None
        return {"e": east, "w": west, "n": north, "s": south, "fold": fold}

    def ghost_moves(self, rank: int) -> List[Move]:
        """``rank``'s ghost cells as rectangular :class:`Move`\\ s.

        Each ghost cell's source — by zonal wrap, a fill beyond a closed
        edge, the tripolar mirror — is a cell of its owner's interior,
        corners included.  The order is the one to apply: fills, own
        moves, then other owners' moves grouped by owner.  On a
        one-column grid the west / east strips of every row whose middle
        is local are one own move each from the opposite real halo, last
        (they read only ghosts whose sources are local).
        """
        b = self.block(rank)
        h, ny, nx = self.halo, self.ny, self.nx
        ly, lx = self.local_shape(rank)

        def at(starts: List[int], g: int, step: int) -> Tuple[int, int, int]:
            p = bisect_right(starts, g) - 1
            return p, g - starts[p] + h, step

        rows = []
        for gj in range(b.j0 - h, b.j1 + h):
            if gj < 0 or (gj >= ny and not self.north_fold):
                rows.append((None, 0, 0))
            elif gj >= ny:      # row ny + m mirrors row ny - 1 - m
                rows.append(at(self._row_starts, 2 * ny - 1 - gj, -1))
            else:
                rows.append(at(self._row_starts, gj, 1))
        gis = [(b.i0 - h + li) % nx for li in range(lx)]
        cols = {1: _runs([at(self._col_starts, g, 1) for g in gis]),
                -1: _runs([at(self._col_starts, nx - 1 - g, -1)
                           for g in gis])}
        wrap = self.npx == 1
        fills: List[Move] = []
        own: List[Move] = []
        other: List[Move] = []
        local_rows: List[int] = []
        for r0, r1, py, sr, dr in _runs(rows):
            dst_rows = slice(r0, r1)
            if dr == 0:
                fills.append(Move(None, (dst_rows, slice(0, lx)), None,
                                  False))
                continue
            if wrap and py == b.py:
                local_rows += [r0, r1]
            for c0, c1, px, sc, dc in cols[dr]:
                owner = self.rank_of(py, px)
                if owner == rank and (r0, c0, dr) == (sr, sc, 1):
                    continue                    # the interior itself
                if owner == rank and wrap and not h <= c0 < lx - h:
                    continue                    # the zonal wrap, below
                move = Move(owner, (dst_rows, slice(c0, c1)),
                            (_walk(sr, r1 - r0, dr), _walk(sc, c1 - c0, dc)),
                            dr < 0)
                (own if owner == rank else other).append(move)
        if wrap:
            u = slice(min(local_rows), max(local_rows))
            own.append(Move(rank, (u, slice(0, h)),
                            (u, slice(lx - 2 * h, lx - h)), False))
            own.append(Move(rank, (u, slice(lx - h, lx)),
                            (u, slice(h, 2 * h)), False))
        other.sort(key=lambda m: m.owner)
        return fills + own + other

    # -- local array helpers --------------------------------------------------

    def local_shape(self, rank: int) -> Tuple[int, int]:
        """Local 2-D array shape including halos."""
        b = self.block(rank)
        return (b.nyl + 2 * self.halo, b.nxl + 2 * self.halo)

    def scatter_global(self, global_arr: np.ndarray, rank: int) -> np.ndarray:
        """Extract ``rank``'s local array (with zero-filled halos).

        Works for 2-D ``(ny, nx)`` and 3-D ``(nz, ny, nx)`` arrays.
        """
        b = self.block(rank)
        h = self.halo
        if global_arr.ndim == 2:
            out = np.zeros(self.local_shape(rank), dtype=global_arr.dtype)
            out[h:-h, h:-h] = global_arr[b.j0:b.j1, b.i0:b.i1]
            return out
        if global_arr.ndim == 3:
            nz = global_arr.shape[0]
            ly, lx = self.local_shape(rank)
            out = np.zeros((nz, ly, lx), dtype=global_arr.dtype)
            out[:, h:-h, h:-h] = global_arr[:, b.j0:b.j1, b.i0:b.i1]
            return out
        raise DecompositionError(
            f"scatter_global expects 2-D or 3-D arrays, got ndim={global_arr.ndim}"
        )

    def gather_global(
        self, locals_: List[np.ndarray], dtype=None
    ) -> np.ndarray:
        """Assemble rank-ordered local arrays back into the global array."""
        if len(locals_) != self.size:
            raise DecompositionError(
                f"need {self.size} local arrays, got {len(locals_)}"
            )
        h = self.halo
        first = locals_[0]
        dtype = dtype or first.dtype
        if first.ndim == 2:
            out = np.zeros((self.ny, self.nx), dtype=dtype)
            for b, loc in zip(self._blocks, locals_):
                out[b.j0:b.j1, b.i0:b.i1] = loc[h:-h, h:-h]
            return out
        nz = first.shape[0]
        out = np.zeros((nz, self.ny, self.nx), dtype=dtype)
        for b, loc in zip(self._blocks, locals_):
            out[:, b.j0:b.j1, b.i0:b.i1] = loc[:, h:-h, h:-h]
        return out

    # -- load (§V-C1) ---------------------------------------------------------

    def ocean_points_per_rank(self, ocean_mask: np.ndarray) -> np.ndarray:
        """Ocean-point count per rank (the §V-C1 load-imbalance metric)."""
        return np.array(
            [int(ocean_mask[b.j0:b.j1, b.i0:b.i1].sum()) for b in self._blocks]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockDecomposition({self.ny}x{self.nx} over {self.npy}x{self.npx}"
            f", halo={self.halo}, fold={self.north_fold})"
        )


def choose_process_grid(ny: int, nx: int, size: int) -> Tuple[int, int]:
    """Pick ``(npy, npx)`` for ``size`` ranks, preferring square-ish blocks
    with a mirror-symmetric top-row split (required by the tripolar fold).
    """
    best: Optional[Tuple[float, int, int]] = None
    for npy in range(1, size + 1):
        if size % npy:
            continue
        npx = size // npy
        if ny < npy or nx < npx:
            continue
        # aspect penalty: how far block shape is from square
        by, bx = ny / npy, nx / npx
        penalty = abs(np.log(by / bx))
        cand = (penalty, npy, npx)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise DecompositionError(f"cannot place {size} ranks on {ny}x{nx}")
    return best[1], best[2]
