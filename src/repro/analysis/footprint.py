"""Per-kernel footprints, merged from observed sweeps, and counted flops.

A :class:`KernelFootprint` folds the :class:`~.observe.PartObservation`
records of every bound launch of one registered functor type into what
the kernelcheck rules (:mod:`.rules`) read beyond the parts themselves:
per view, the widest horizontal read reach; per kernel, the distinct
arrays and ``(array, offsets)`` streams it touched (the bytes half of
``cost-drift``).

Flops cannot be observed: arithmetic on ``ws.take`` scratch never
touches a bound array, and column kernels loop over ``k``.  So the
flops half keeps its historical definition, counted on the source:
arithmetic nodes in the kernel body, each helper it calls counted once
per call site, index arithmetic (subscripts, ``slice``/``range``/``sh``
arguments, ``s.start`` / ``s.stop`` bounds) excluded.

The convention throughout: horizontal axes are the *last two* loop axes
(``(j, i)`` for ndim=2, ``(k, j, i)`` for ndim=3), matching
``MDRangePolicy`` usage in the ocean model.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .observe import PartObservation


@dataclass
class KernelFootprint:
    """Everything observed about one registered functor type."""

    kernel: str
    functor_type: type
    parts: List[PartObservation] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.counted_flops = count_flops(self.functor_type)
        #: view -> widest horizontal read excursion over every part
        self.halo: Dict[str, int] = {}
        #: distinct (view, loop-axis offsets) streams over every part
        self.streams: Set[Tuple] = set()
        for part in self.parts:
            for name in part.touched:
                self.halo[name] = max(self.halo.get(name, 0), part.reach(name))
            self.streams.update((a.name, tuple(sorted(part.offsets(a).items())))
                                for a in part.accesses)

    @property
    def observed(self) -> bool:
        return bool(self.parts)

    @property
    def stencil_halo(self) -> int:
        """Widest horizontal read excursion over all views."""
        return max(self.halo.values(), default=0)

    @property
    def counted_arrays(self) -> int:
        return len(self.halo)

    @property
    def counted_streams(self) -> int:
        return len(self.streams)

    @property
    def counted_bytes(self) -> float:
        """8 bytes per distinct (array, offsets) stream — the cold-cache
        upper bound on traffic per point."""
        return 8.0 * self.counted_streams

    @property
    def counted_bytes_min(self) -> float:
        """8 bytes per distinct array — the perfect-cache lower bound,
        the seed kernels' ``bytes_per_point = N * 8`` convention."""
        return 8.0 * self.counted_arrays

    @property
    def file(self) -> Optional[str]:
        return source_of(self.functor_type)[0]

    @property
    def line(self) -> Optional[int]:
        return source_of(self.functor_type)[1]


@functools.lru_cache(maxsize=None)
def source_of(functor_type: type) -> Tuple[Optional[str], Optional[int]]:
    """``(file, first line)`` of a functor class, for finding locations."""
    try:
        return (inspect.getsourcefile(functor_type),
                inspect.getsourcelines(functor_type)[1])
    except (OSError, TypeError):
        return None, None


# --------------------------------------------------------------------------
# counted flops: arithmetic nodes on the source
# --------------------------------------------------------------------------

# flop weights for numpy calls
_ELEMENTWISE = {
    "maximum", "minimum", "where", "clip", "abs", "hypot", "sign",
    "mod", "fmod", "power", "copysign", "diff",
    "add", "subtract", "multiply", "divide", "true_divide",
    "floor_divide", "negative", "reciprocal", "copyto",
    "greater", "greater_equal", "less", "less_equal", "equal",
    "not_equal", "logical_and", "logical_or", "logical_not",
}
_TRANSCENDENTAL = {
    "cos", "sin", "tan", "exp", "log", "log10", "sqrt", "tanh",
    "arctan", "arctan2", "arcsin", "arccos", "cbrt", "expm1", "log1p",
}
_REDUCTIONS = {"sum", "cumsum", "prod", "cumprod", "max", "min", "mean", "std"}
TRANSCENDENTAL_FLOPS = 8.0
#: calls whose arguments are index arithmetic
_INDEX_CALLS = {"slice", "range", "sh", "grow", "point_slices", "take",
                "reshape", "len", "int"}


def count_flops(functor_type: type) -> float:
    """Arithmetic nodes of ``functor_type``'s kernel body (``apply``,
    else ``__call__``), helpers counted once per call site."""
    name = "apply" if callable(getattr(functor_type, "apply", None)) \
        else "__call__"
    return _Counter(functor_type).function(getattr(functor_type, name))


class _Counter:
    def __init__(self, functor_type: type) -> None:
        self.cls = functor_type
        self.scope: Dict[str, object] = {}           # module globals
        self.local: Dict[str, ast.FunctionDef] = {}  # nested helpers
        self.active: List[object] = []               # recursion guard

    def function(self, fn, nested: Optional[ast.FunctionDef] = None) -> float:
        key = nested if nested is not None else getattr(fn, "__code__", None)
        if key is None or key in self.active:
            return 0.0
        if nested is None:
            try:
                tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
            except (OSError, TypeError):
                return 0.0
            scope, local = fn.__globals__, {}
        else:
            tree, scope, local = nested, self.scope, dict(self.local)
        local.update((n.name, n) for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef) and n is not tree)
        saved = self.scope, self.local
        self.scope, self.local = scope, local
        self.active.append(key)
        try:
            return sum(self.node(stmt) for stmt in tree.body)
        finally:
            self.active.pop()
            self.scope, self.local = saved

    def node(self, node) -> float:
        if isinstance(node, ast.FunctionDef):
            return 0.0                    # counted where it is called
        if isinstance(node, ast.Subscript):
            return self.node(node.value)  # the index is index arithmetic
        if isinstance(node, ast.Call):
            return self.call(node)
        own = 0.0
        if isinstance(node, ast.BinOp) and not _index_arithmetic(node):
            own = 1.0
        elif isinstance(node, ast.Compare):
            own = float(len(node.comparators))
        elif isinstance(node, ast.AugAssign):
            own = 1.0
        return own + sum(self.node(c) for c in ast.iter_child_nodes(node))

    def call(self, node: ast.Call) -> float:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name in _INDEX_CALLS and not (
                isinstance(func, ast.Attribute) and _is_np(func.value)):
            return self.node(func)
        args = sum(self.node(a) for a in node.args) + \
            sum(self.node(k.value) for k in node.keywords)
        if isinstance(func, ast.Attribute):
            if _is_np(func.value):
                return args + (TRANSCENDENTAL_FLOPS if name in _TRANSCENDENTAL
                               else 1.0 if name in _ELEMENTWISE | _REDUCTIONS
                               else 0.0)
            inner = self.node(func.value)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                method = getattr(self.cls, name, None)
                if inspect.isfunction(method):
                    return args + self.function(method)
            return args + inner + (1.0 if name in _REDUCTIONS else 0.0)
        if name in self.local:
            return args + self.function(None, nested=self.local[name])
        target = self.scope.get(name)
        if inspect.isfunction(target) and \
                target.__module__.startswith("repro."):
            return args + self.function(target)
        return args


def _is_np(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _index_arithmetic(node: ast.BinOp) -> bool:
    """Slice-bound arithmetic (``s.start - 1``) and constant folding are
    not flops."""
    sides = (node.left, node.right)
    if any(isinstance(s, ast.Attribute) and s.attr in ("start", "stop")
           for s in sides):
        return True
    return all(isinstance(s, ast.Constant) for s in sides)
