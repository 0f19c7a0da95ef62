"""Observed footprints: one recorded sweep per bound launch part.

The verifiers do not guess what a kernel touches; they watch it.
:func:`observe_part` runs a bound part's body once over its launch
range, on copies of every array it binds, each copy swapped for a
recording ``ndarray`` subclass.  The :class:`PartObservation` it
returns is everything kernelcheck (:mod:`.rules`) and graphcheck
(:mod:`.graphcheck`) know about the part: per bound array, the boxes it
read and wrote, in sweep order; writes through an index array
(scatters); buffers reached through ``View.raw``; and which functor
methods ran.

What counts as a read
    A slice is read when it is *consumed*: handed to a ufunc or a numpy
    function, assigned from, copied, or indexed down to a scalar.  Slicing
    it again is not a read: ``mt = d.mask_t[0]`` followed by
    ``mt[sj, si]`` reads the tile, not the level.  A slice that is
    neither sliced again nor consumed where the recorder can see it (it
    is assigned into a plain scratch array, say) counts as read where
    it was taken.
Boxes
    Inclusive ``(lo, hi)`` bounds per array dimension, in array
    coordinates.  :meth:`PartObservation.offsets` maps a box onto the
    loop axes, relative to the launch range.  Array dimensions align
    with loop axes from the end (the ocean's ``(k, j, i)`` layout), and
    a 1-D array under a multi-dimensional loop is a metric row of the
    horizontal extent its length matches (``dx_t`` is a ``j`` row).
The sweep
    A part with an ``apply`` body runs once over the whole range, as a
    sealed plan sweeps it.  A part with only ``__call__`` runs point by
    point, and every access is tagged with its iteration point.

Observation is verification-only.  Nothing on the step path calls it,
and it never writes a live buffer or takes from a live arena.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..kokkos.view import View, kernel_context
from ..kokkos.workspace import Workspace

#: Inclusive ``(lo, hi)`` per array dimension.
Box = Tuple[Tuple[int, int], ...]


@dataclass
class Access:
    """One read or write of a bound array, in sweep order."""

    name: str
    write: bool
    box: Box
    scatter: bool = False           # a write through an index array
    point: Optional[Tuple[int, ...]] = None   # iteration point (__call__)
    dropped: bool = False           # a provisional read, since confirmed
    #                                 or superseded by a derived slice


@dataclass(frozen=True)
class Bound:
    """One array a part binds: its path on the functor and the live
    object behind it (a ``View`` or a plain ``ndarray``)."""

    name: str
    obj: object
    shape: Tuple[int, ...]
    dtype: np.dtype


class _Sweep:
    """The shared log of one observed sweep."""

    def __init__(self) -> None:
        self.log: List[Access] = []
        self.raw: Set[str] = set()
        self.point: Optional[Tuple[int, ...]] = None

    def record(self, src: "_Source", cells, write: bool = False,
               scatter: bool = False) -> Optional[Access]:
        flat = np.asarray(cells, dtype=np.intp).ravel()
        if flat.size == 0:
            return None
        coords = np.unravel_index(flat, src.shape)
        box = tuple((int(c.min()), int(c.max())) for c in coords)
        acc = Access(src.name, write, box, scatter, self.point)
        self.log.append(acc)
        return acc


class _Source:
    """The recorded copy of one bound buffer."""

    def __init__(self, name: str, buf: np.ndarray, sweep: _Sweep) -> None:
        self.name = name
        self.sweep = sweep
        arr = np.array(buf, order="K")
        self.shape = arr.shape
        self.itemsize = arr.itemsize
        self.ptr = _ptr(arr)
        self.nbytes = arr.nbytes
        # cells[p]: the C-order index of the cell stored at memory slot p
        cells = np.empty(arr.size, dtype=np.intp)
        np.ndarray(arr.shape, np.intp, cells, 0,
                   _slots(arr.strides, arr.itemsize))[...] = \
            np.arange(arr.size).reshape(arr.shape)
        self.cells = cells
        self.array = arr.view(_Recorded)
        self.array._src = self


def _ptr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _slots(strides: Sequence[int], itemsize: int) -> Tuple[int, ...]:
    """Byte strides of ``cells`` that walk the slots ``strides`` walks."""
    return tuple(s // itemsize * np.dtype(np.intp).itemsize for s in strides)


def _cells(a: "_Recorded") -> np.ndarray:
    """Cell indices aligned with ``a``, a view of its source buffer."""
    src = a._src
    start = (_ptr(a) - src.ptr) // src.itemsize
    return np.ndarray(a.shape, np.intp, src.cells,
                      start * np.dtype(np.intp).itemsize,
                      _slots(a.strides, src.itemsize))


def _consume(x) -> None:
    """``x`` (or any recorded array nested in it) is read in full."""
    if isinstance(x, _Recorded):
        if x._src is not None:
            if x._entry is not None:
                x._entry.dropped = True
            x._src.sweep.record(x._src, _cells(x))
    elif isinstance(x, (list, tuple)):
        for item in x:
            _consume(item)


def _overwrite(x) -> None:
    """``x`` is written in full."""
    if isinstance(x, _Recorded) and x._src is not None:
        if x._entry is not None:
            x._entry.dropped = True     # a write target, not a read
        x._src.sweep.record(x._src, _cells(x), write=True)


def _plain(x):
    if isinstance(x, _Recorded):
        return x.view(np.ndarray)
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(item) for item in x)
    return x


def _is_basic(key) -> bool:
    items = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))
               for k in items)


def _index_key(key):
    """``key`` with recorded index arrays read and unwrapped."""
    _consume(key)
    return _plain(key)


def _scatters(key) -> bool:
    """Integer index arrays can name one cell twice; slices and masks
    cannot."""
    items = key if isinstance(key, tuple) else (key,)
    return any(isinstance(k, (list, np.ndarray)) and not
               np.asarray(k).dtype == np.bool_ for k in items)


class _Recorded(np.ndarray):
    """A bound buffer, or a view of one, whose uses are logged."""

    _src: Optional[_Source] = None
    _entry: Optional[Access] = None

    def __array_finalize__(self, obj) -> None:
        src = getattr(obj, "_src", None)
        self._src = None
        self._entry = None
        if src is None:
            return
        if src.ptr <= _ptr(self) < src.ptr + src.nbytes:
            # a derived view (basic slice, reshape, transpose): it
            # supersedes its parent's provisional read
            self._src = src
            if obj._entry is not None:
                obj._entry.dropped = True
            self._entry = src.sweep.record(src, _cells(self))
        else:
            # a copy made below numpy's Python hooks (copy, astype, ...)
            _consume(obj)

    def __getitem__(self, key):
        if self._src is None:
            return super().__getitem__(key)
        key = _index_key(key)
        if _is_basic(key):
            out = super().__getitem__(key)
            if isinstance(out, _Recorded):
                return out              # a view: read when consumed
        else:
            out = self.view(np.ndarray)[key]
        # a scalar or a gathered copy: read now
        self._src.sweep.record(self._src, _cells(self)[key])
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out

    def __setitem__(self, key, value) -> None:
        _consume(value)
        key = _index_key(key)
        if self._src is not None:
            if self._entry is not None:
                self._entry.dropped = True
            self._src.sweep.record(self._src, _cells(self)[key], write=True,
                                   scatter=_scatters(key))
        self.view(np.ndarray)[key] = _plain(value)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        outs = out or ()
        _consume(inputs)
        _consume(tuple(kwargs.values()))
        for o in outs:
            _overwrite(o)
        kwargs = {k: _plain(v) for k, v in kwargs.items()}
        if outs:
            kwargs["out"] = _plain(tuple(outs))
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        if outs:
            return outs[0] if len(outs) == 1 else tuple(outs)
        return result

    def __array_function__(self, func, types, args, kwargs):
        written = [kwargs["out"]] if kwargs.get("out") is not None else []
        reads = list(args)
        if func is np.copyto:
            written.append(reads.pop(0))
        _consume(tuple(reads))
        _consume(tuple(v for k, v in kwargs.items() if k != "out"))
        for w in written:
            _overwrite(w)
        result = func(*_plain(tuple(args)),
                      **{k: _plain(v) for k, v in kwargs.items()})
        if "out" in kwargs and isinstance(kwargs["out"], _Recorded):
            return kwargs["out"]
        return result


class _ObservedView(View):
    """A copy of a bound ``View`` over a recorded buffer; ``.raw`` is
    logged (it bypasses the space policing ``.data`` does)."""

    __slots__ = ("_sweep", "_name")

    @property
    def raw(self) -> np.ndarray:
        self._sweep.raw.add(self._name)
        return self._array


# --------------------------------------------------------------------------
# the observation of one part
# --------------------------------------------------------------------------


@dataclass
class PartObservation:
    """What one sweep of one bound part did."""

    label: str
    functor_type: type
    ranges: Tuple[Tuple[int, int], ...]
    body: str                                   # "apply" | "__call__"
    bound: Dict[str, Bound] = field(default_factory=dict)
    accesses: List[Access] = field(default_factory=list)
    raw: Set[str] = field(default_factory=set)  # views reached via .raw
    ran: Set[str] = field(default_factory=set)  # functor methods run

    def __post_init__(self) -> None:
        self._reads: Dict[str, List[Access]] = {}
        self._writes: Dict[str, List[Access]] = {}
        for acc in self.accesses:
            (self._writes if acc.write else self._reads).setdefault(
                acc.name, []).append(acc)
        #: the bound arrays the sweep read or wrote
        self.touched = {n: b for n, b in self.bound.items()
                        if n in self._reads or n in self._writes}
        rows = next((b.shape[-2:] for b in self.bound.values()
                     if len(b.shape) >= 2), ())
        self._axes = {n: _axis_map(b.shape, self.ndim, rows)
                      for n, b in self.bound.items()}
        self._reach: Dict[str, int] = {}

    @property
    def ndim(self) -> int:
        return len(self.ranges)

    def reads(self, name: str) -> List[Access]:
        return self._reads.get(name, [])

    def writes(self, name: str) -> List[Access]:
        return self._writes.get(name, [])

    def offsets(self, acc: Access) -> Dict[int, Tuple[int, int]]:
        """Loop axis -> ``(lo, hi)`` of ``acc``'s box relative to the
        launch range (or to its iteration point)."""
        out = {}
        for dim, axis in self._axes[acc.name].items():
            if acc.point is not None:
                begin = end = acc.point[axis]
            else:
                begin, end = self.ranges[axis][0], self.ranges[axis][1] - 1
            lo, hi = acc.box[dim]
            out[axis] = (lo - begin, hi - end)
        return out

    def reach(self, name: str) -> int:
        """Widest horizontal excursion of the reads of ``name`` beyond
        the launch range (horizontal: the last two loop axes)."""
        got = self._reach.get(name)
        if got is None:
            h = range(max(self.ndim - 2, 0), self.ndim)
            got = self._reach[name] = max(
                (max(-lo, hi, 0) for acc in self.reads(name)
                 for axis, (lo, hi) in self.offsets(acc).items() if axis in h),
                default=0)
        return got


def _axis_map(shape: Tuple[int, ...], ndim: int,
              rows: Tuple[int, ...]) -> Dict[int, int]:
    if len(shape) == 1 and ndim >= 2:
        # a metric row: the horizontal extent its length matches
        for axis, extent in zip((ndim - 2, ndim - 1), rows):
            if shape[0] == extent:
                return {0: axis}
        return {}
    return {dim: dim - len(shape) + ndim for dim in range(len(shape))
            if dim - len(shape) + ndim >= 0}


def _bind_copies(functor, sweep: _Sweep):
    """A shallow copy of ``functor`` whose arrays are recorded copies.

    Views become :class:`_ObservedView` objects, plain arrays recorded
    arrays, and one level of dataclass attributes (the ``LocalDomain``)
    is copied the same way, with a fresh scratch arena and fresh caches.
    Two names bound to one buffer share one recorded copy, so aliasing
    survives the copy.
    """
    sources: Dict[int, _Source] = {}
    bound: Dict[str, Bound] = {}
    copies: Dict[str, np.ndarray] = {}
    memo: Dict[int, object] = {}

    def source(name: str, obj, buf: np.ndarray) -> _Source:
        src = sources.get(id(buf))
        if src is None:
            src = sources[id(buf)] = _Source(name, buf, sweep)
            bound[name] = Bound(name, obj, buf.shape, buf.dtype)
            copies[name] = src.array.view(np.ndarray)
        return src

    def swap(name: str, val, top: bool):
        if id(val) in memo:
            return memo[id(val)]
        if isinstance(val, View):
            new = object.__new__(_ObservedView)
            for slot in View.__slots__:
                setattr(new, slot, getattr(val, slot))
            new._array = source(name, val, val.raw).array
            new._sweep, new._name = sweep, name
        elif isinstance(val, np.ndarray):
            new = source(name, val, val).array
        elif isinstance(val, Workspace):
            new = Workspace()
        elif isinstance(val, dict):
            new = dict(val)
        elif top and dataclasses.is_dataclass(val) and not isinstance(val, type):
            new = copy.copy(val)
            for f in dataclasses.fields(val):
                setattr(new, f.name,
                        swap(f"{name}.{f.name}", getattr(val, f.name), False))
        else:
            new = val
        memo[id(val)] = new
        return new

    clone = copy.copy(functor)
    for attr, val in vars(functor).items():
        setattr(clone, attr, swap(attr, val, True))
    return clone, bound, copies


def _spy(ran: Set[str], name: str, method):
    def spy(*args, **kwargs):
        ran.add(name)
        return method(*args, **kwargs)
    return spy


def observe_part(functor, ranges: Iterable[Sequence[int]],
                 label: Optional[str] = None,
                 prepare: Optional[Callable[[str, np.ndarray], None]] = None,
                 ) -> PartObservation:
    """Run one sweep of ``functor`` over ``ranges`` on recorded copies.

    ``prepare(name, array)``, when given, sees each copy before the
    sweep (as a plain ndarray over the copy's memory): the seam through
    which a test can poison the copies or keep them to read the result.
    """
    ranges = tuple((int(b), int(e)) for b, e in ranges)
    sweep = _Sweep()
    clone, bound, copies = _bind_copies(functor, sweep)
    if prepare is not None:
        for name, arr in copies.items():
            prepare(name, arr)
    body = "apply" if callable(getattr(clone, "apply", None)) else "__call__"
    ran: Set[str] = set()
    for name, _ in inspect.getmembers(type(clone), inspect.isfunction):
        if not name.startswith("__"):
            setattr(clone, name, _spy(ran, name, getattr(clone, name)))
    with kernel_context(), np.errstate(all="ignore"):
        if body == "apply":
            clone.apply(tuple(slice(b, e) for b, e in ranges))
        else:
            for idx in itertools.product(*(range(b, e) for b, e in ranges)):
                sweep.point = idx
                clone(*idx)
    return PartObservation(
        label=label or type(functor).__name__,
        functor_type=type(functor), ranges=ranges, body=body, bound=bound,
        accesses=[a for a in sweep.log if not a.dropped],
        raw=set(sweep.raw), ran=ran)


def observe_node(node, cache: Optional[Dict] = None) -> List[PartObservation]:
    """Observations of every part of a sealed graph's kernel node.

    ``cache`` (keyed by functor identity and range) lets a caller that
    walks several graphs sweep a shared part once.
    """
    cache = {} if cache is None else cache
    ranges = tuple(tuple(r) for r in node.policy.ranges)
    out = []
    for label, functor in node.parts():
        key = (id(functor), ranges, label)
        if key not in cache:            # the functor pins its id
            cache[key] = (functor, observe_part(functor, ranges, label))
        out.append(cache[key][1])
    return out
