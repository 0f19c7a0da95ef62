"""The footprint recorder, checked without trusting it.

Both verifiers read nothing but :func:`repro.analysis.observe_part`
records, so these tests hold the recorder to what the sweeps really do:

* **Soundness** — for every part of every graph the lint matrix seals,
  poisoning every cell outside a view's observed read box (NaN, then
  1e30) leaves every written cell bitwise as the clean sweep wrote it,
  and the clean sweep changes no cell outside its observed write boxes.
* **Coverage** — every line of every registered kernel, and of every
  kernel-module helper the sweeps enter, runs under the lint matrix, so
  the observations see every branch.  The allowlist names each
  exception with its reason.
* **No side effects** — verifying a live model leaves its buffers
  untouched.
* **Semantics** — the recorder's reading rules on small cases.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
import textwrap

import numpy as np
import pytest

from repro.analysis import (
    OCEAN_KERNEL_MODULES,
    check_graph,
    lint_matrix,
    observe_part,
)
from repro.analysis.observe import observe_node
from repro.kokkos import View
from repro.kokkos.graph import KernelNode


def _union(boxes):
    if not boxes:
        return None
    return tuple((min(b[d][0] for b in boxes), max(b[d][1] for b in boxes))
                 for d in range(len(boxes[0])))


def _inside(shape, box):
    mask = np.zeros(shape, dtype=bool)
    if box is not None:
        mask[tuple(slice(lo, hi + 1) for lo, hi in box)] = True
    return mask


def _matrix_parts():
    """``(functor, observation)`` for every part of each lint-matrix
    configuration's startup graph and first leapfrog phase graph (the
    other two phase graphs run the same launches on other time levels)."""
    return [(functor, obs) for case in lint_matrix()
            for graph in case.graphs[:2] for node in graph.nodes
            if isinstance(node, KernelNode)
            for (_, functor), obs in zip(
                node.parts(), observe_node(node, case.observations))]


def _sweep(functor, obs, poison_boxes=None, poison=None):
    """Re-sweep one part on fresh copies: ``(initial, final)`` arrays by
    name.  With ``poison_boxes``, every float cell outside a view's box
    is set to ``poison`` first."""
    initial, final = {}, {}

    def prepare(name, arr):
        if poison_boxes is not None and arr.dtype.kind == "f":
            arr[~_inside(arr.shape, poison_boxes[name])] = poison
        initial[name] = arr.copy()
        final[name] = arr

    observe_part(functor, obs.ranges, obs.label, prepare=prepare)
    return initial, final


class TestRecorderSound:
    def test_no_cell_changes_outside_the_write_boxes(self):
        for functor, obs in _matrix_parts():
            before, after = _sweep(functor, obs)
            for name in obs.bound:
                box = _union([a.box for a in obs.writes(name)])
                outside = ~_inside(before[name].shape, box)
                assert after[name][outside].tobytes() == \
                    before[name][outside].tobytes(), (obs.label, name)

    @pytest.mark.parametrize("poison", [np.nan, 1e30], ids=["nan", "1e30"])
    def test_cells_outside_the_read_boxes_change_no_write(self, poison):
        for functor, obs in _matrix_parts():
            reads = {name: _union([a.box for a in obs.reads(name)])
                     for name in obs.bound}
            _, clean = _sweep(functor, obs)
            _, poisoned = _sweep(functor, obs, reads, poison)
            for name in obs.bound:
                box = _union([a.box for a in obs.writes(name)])
                if box is None:
                    continue
                written = _inside(clean[name].shape, box)
                assert poisoned[name][written].tobytes() == \
                    clean[name][written].tobytes(), (obs.label, name)


# --------------------------------------------------------------------------
# line coverage
# --------------------------------------------------------------------------

#: Lines the lint matrix does not run, by function and by the guard of
#: the block they sit in, with the reason each is safe to leave out.
ALLOWED = {
    ("CanutoMixFunctor.apply", "nz < 2"):
        "one-level columns have no shear; every demo size has nz >= 4",
}
#: ``__call__`` of a kernel that has ``apply``: every backend sweeps
#: ``apply``, and tests/ocean/test_apply_equivalence.py runs the point
#: body against it.
POINT_BODY = "__call__"


def _kernel_modules():
    names = OCEAN_KERNEL_MODULES + ("repro.ocean.kernel_utils",
                                    "repro.ocean.precision")
    return [importlib.import_module(m) for m in names]


def _function(qualname):
    for mod in _kernel_modules():
        obj = mod
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return obj
    raise LookupError(qualname)


def _lines(code):
    """Executable lines of ``code`` and the functions nested in it."""
    out = {(code, ln) for _, _, ln in code.co_lines()
           if ln is not None and ln != code.co_firstlineno}
    for const in code.co_consts:
        if inspect.iscode(const):
            out |= _lines(const)
    return out


def _guarded_lines(fn, guard):
    """The lines of the ``if <guard>:`` block inside ``fn``."""
    src, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(src)))
    block, = [n for n in ast.walk(tree) if isinstance(n, ast.If)
              and ast.unparse(n.test) == guard]
    return set(range(first + block.body[0].lineno - 1,
                     first + block.body[-1].end_lineno))


def _registered_kernels():
    from repro.kokkos.registry import default_registry

    return [e.functor_type for e in default_registry().entries()
            if e.functor_type.__module__.startswith("repro.")
            and not getattr(e.functor_type, "__kernelcheck_skip__", False)]


def test_every_kernel_line_runs_under_the_lint_matrix():
    files = {mod.__file__ for mod in _kernel_modules()}
    parts = _matrix_parts()
    ran, entered = set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in files:
            entered.add(frame.f_code)
            return local
        return None

    sys.settrace(trace)
    try:
        for functor, obs in parts:
            observe_part(functor, obs.ranges, obs.label)
    finally:
        sys.settrace(None)

    # every method of every registered kernel, and every kernel-module
    # function the sweeps entered
    targets = set(entered)
    allowed = set()
    for cls in _registered_kernels():
        for name, fn in vars(cls).items():
            if not inspect.isfunction(fn) or name == "__init__":
                continue
            targets.add(fn.__code__)
            if name == POINT_BODY and callable(getattr(cls, "apply", None)):
                allowed |= _lines(fn.__code__)
    for qualname, guard in ALLOWED:
        fn = _function(qualname)
        allowed |= {(code, ln) for code, ln in _lines(fn.__code__)
                    if ln in _guarded_lines(fn, guard)}

    covered = ran | allowed
    missed = sorted(
        (code.co_filename.rsplit("/", 1)[-1], code.co_name, ln)
        for target in targets for code, ln in _lines(target)
        if (code, ln) not in covered)
    assert missed == []


# --------------------------------------------------------------------------
# verifying a live model has no side effects
# --------------------------------------------------------------------------


def _bound_arrays(functor):
    for val in vars(functor).values():
        if isinstance(val, View):
            yield val.raw
        elif isinstance(val, np.ndarray):
            yield val
        elif dataclasses.is_dataclass(val):      # the LocalDomain
            yield from (v for v in vars(val).values()
                        if isinstance(v, np.ndarray))


def test_verifying_a_live_model_leaves_its_buffers_unchanged():
    from repro.ocean import LICOMKpp, ModelParams, demo

    model = LICOMKpp(demo("tiny"), backend="serial",
                     params=ModelParams(check_every=0))
    try:
        model.run_steps(2)
        graphs = [g for g in model._graphs.values() if g.sealed]
        arrays = {id(arr): arr for graph in graphs for node in graph.nodes
                  if isinstance(node, KernelNode)
                  for _, functor in node.parts()
                  for arr in _bound_arrays(functor)}
        before = {key: arr.tobytes() for key, arr in arrays.items()}
        for graph in graphs:
            assert check_graph(graph) == []
        assert {key: arr.tobytes() for key, arr in arrays.items()} == before
    finally:
        model.close()


def test_a_copied_domain_starts_with_empty_caches():
    """The observed sweep binds a copy of the domain whose caches are
    empty, so barotropic momentum builds its rotation rows from the
    recorded ``f_u`` and the footprint lists that read."""
    touched = [sorted(obs.touched) for _, obs in _matrix_parts()
               if obs.label == "barotropic_momentum"]
    assert touched and all("dom.f_u" in names for names in touched)


# --------------------------------------------------------------------------
# what counts as a read
# --------------------------------------------------------------------------


class _Probe:
    """A body the semantics tests fill in per case."""

    def __init__(self, f: View, out: View, body) -> None:
        self.f = f
        self.out = out
        self.body = body

    def apply(self, slices) -> None:
        self.body(self, *slices)


def _observe(body):
    f = View("f", data=np.arange(64.0).reshape(8, 8))
    out = View("out", (8, 8))
    return observe_part(_Probe(f, out, body), ((2, 6), (2, 6)))


class TestWhatIsARead:
    def test_slicing_again_is_not_a_read(self):
        def body(p, sj, si):
            level = p.f.data[1:]                 # sliced, never consumed
            p.out.data[sj, si] = level[sj.start - 1:sj.stop - 1, si] * 2.0

        obs = _observe(body)
        assert [a.box for a in obs.reads("f")] == [((2, 5), (2, 5))]
        assert obs.reach("f") == 0

    def test_unhooked_consumption_counts_where_the_slice_was_taken(self):
        def body(p, sj, si):
            scratch = np.empty((4, 4))
            scratch[...] = p.f.data[sj, slice(si.start + 1, si.stop + 1)]
            p.out.data[sj, si] = scratch

        obs = _observe(body)
        assert [a.box for a in obs.reads("f")] == [((2, 5), (3, 6))]
        assert obs.reach("f") == 1

    def test_index_array_write_is_a_scatter(self):
        def body(p, sj, si):
            p.out.data[np.array([2, 2]), np.array([3, 3])] = 1.0

        assert [a.scatter for a in _observe(body).writes("out")] == [True]

    def test_the_sweep_never_writes_the_bound_buffer(self):
        def body(p, sj, si):
            p.f.data[sj, si] = -1.0

        f = View("f", data=np.arange(64.0).reshape(8, 8))
        before = f.raw.copy()
        observe_part(_Probe(f, View("out", (8, 8)), body), ((2, 6), (2, 6)))
        assert np.array_equal(f.raw, before)
