"""The kernelcheck rule families, read off observed sweeps.

Each rule takes a :class:`~repro.analysis.footprint.KernelFootprint` —
the merged :class:`~repro.analysis.observe.PartObservation` records of
every lint-matrix launch that binds the kernel (plus configuration) —
and yields :class:`~repro.analysis.findings.Finding` records:

``race-write``
    A write through an index array (a scatter), or a write box that
    leaves the launch range on a loop axis; a ``__call__``-only body is
    swept point by point, and any write outside the iteration's own
    point counts.  Two loop iterations can hit the same cell, which
    races under the openmp / device / athread backends even though the
    serial backend happens to agree.

``halo-overrun``
    The observed horizontal read reach (max ``±k`` beyond the launch
    range) is checked against the functor's declared ``stencil_halo``
    and the domain-wide halo width.  Reading beyond the declared halo
    means the athread backend's LDM tile staging DMAs too small a ring
    and the MPI halo exchange leaves the outer cells stale.

``memory-space``
    ``View.raw`` reached during the sweep (it bypasses the
    :class:`~repro.kokkos.view.View` space policing, so a device-space
    view silently reads stale host memory), and view dereferences in
    functor methods the sweep did not run — host code, found by a small
    AST walk.  (Host accesses that could race an in-flight launch are
    the exchange and rotate graph nodes, which fence by type: see
    :mod:`repro.kokkos.graph`.)

``cost-drift``
    Counted arithmetic ops vs the declared ``flops_per_point``, and the
    declared ``bytes_per_point`` vs the observed distinct arrays and
    ``(array, offsets)`` streams.  Dishonest declarations silently skew
    the roofline model in :mod:`repro.perfmodel`.

``alias-hazard``
    A vectorised ``apply`` body that reads a view at a *shifted* offset
    after writing the same view, in sweep order: the numpy statements
    see already updated neighbours, so ``apply`` is no longer
    elementwise-equivalent to ``__call__`` (and both orders are
    backend-dependent).

``unobserved``
    A registered kernel no lint-matrix launch binds: nothing above has
    been checked for it.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Iterator, List

from ..kokkos.view import View
from ..parallel.decomp import DEFAULT_HALO
from .findings import Finding, Severity
from .footprint import KernelFootprint

RULE_RACE = "race-write"
RULE_HALO = "halo-overrun"
RULE_SPACE = "memory-space"
RULE_COST = "cost-drift"
RULE_ALIAS = "alias-hazard"
RULE_UNOBSERVED = "unobserved"

ALL_RULES = (RULE_RACE, RULE_HALO, RULE_SPACE, RULE_COST, RULE_ALIAS,
             RULE_UNOBSERVED)

# -- whole-schedule rule families (repro.analysis.graphcheck) ---------------
# Per-kernel rules above see one body at a time; these see the sealed
# launch graph: halo freshness across the step's exchange schedule and
# dead work.  Fences need no rule: the exchange and rotate nodes fence in
# their own run() (repro.kokkos.graph).

RULE_STALE_HALO = "stale-halo"
RULE_REDUNDANT_EXCHANGE = "redundant-exchange"
RULE_DEAD_STORE = "dead-store"
#: Mixed-precision discipline over the sealed schedule: a launch that
#: binds both fp32 and fp64 float arrays without declaring itself a
#: family boundary (``precision_boundary = True`` or an explicit
#: ``precision_cast`` launch) silently promotes fp32 sweeps to fp64
#: arithmetic — an ERROR; an fp32 *accumulation* (a functor declaring
#: ``accumulates = True``, e.g. column scans / depth means) carries an
#: accumulation-order hazard — a WARNING, unless the kernel sums
#: through an explicit fp64 accumulator (``wide_accumulate = True``).
RULE_PRECISION = "precision-promotion"

GRAPH_RULES = (RULE_STALE_HALO, RULE_REDUNDANT_EXCHANGE, RULE_DEAD_STORE,
               RULE_PRECISION)


@dataclass
class RuleConfig:
    """Tolerances / environment the rules check against."""

    domain_halo: int = DEFAULT_HALO  # the ring the MPI exchange supplies
    flops_rtol_hi: float = 4.0      # counted may exceed declared by this factor
    flops_rtol_lo: float = 0.25     # ... or undershoot down to this factor
    bytes_rtol_hi: float = 2.0      # declared <= hi * cold-cache bound
    bytes_rtol_lo: float = 0.9      # declared >= lo * perfect-cache bound
    cost_abs_floor: float = 4.0     # ignore drift when both sides are tiny


def _finding(fp: KernelFootprint, rule: str, severity: Severity,
             view, detail: str, line=None) -> Finding:
    return Finding(rule, severity, fp.kernel, view, detail,
                   file=fp.file, line=line or fp.line)


# --------------------------------------------------------------------------
# rule 1: write-write races
# --------------------------------------------------------------------------


def check_races(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    for name in fp.halo:
        detail = _race(fp, name)
        if detail is not None:
            yield _finding(fp, RULE_RACE, Severity.ERROR, name, detail)


def _race(fp: KernelFootprint, name: str):
    for part in fp.parts:
        for acc in part.writes(name):
            if acc.scatter:
                return ("scatter write through an index array (store index "
                        "not derived from the loop indices); iterations may "
                        "collide under parallel backends")
            out = {axis: o for axis, o in part.offsets(acc).items()
                   if o[0] < 0 or o[1] > 0}
            if out:
                where = ("its own iteration point" if acc.point is not None
                         else "the launch range")
                spans = " ".join(f"axis{axis}:[{lo:+d},{hi:+d}]"
                                 for axis, (lo, hi) in sorted(out.items()))
                return (f"write leaves {where} ({spans}); neighbouring "
                        "iterations store to the same cell")
    return None


# --------------------------------------------------------------------------
# rule 2: observed reach vs declared halo (and LDM tile accounting)
# --------------------------------------------------------------------------


def _ldm_detail(fp: KernelFootprint, halo: int) -> str:
    from repro.kokkos.ldm import max_tile_points

    bpp = float(getattr(fp.functor_type, "bytes_per_point", 8.0)) or 8.0
    base = max_tile_points(bpp)
    side = max(int(base ** 0.5), 1)
    grown = (side + 2 * halo) ** 2
    return (f" (athread LDM: a {side}x{side} tile grows to "
            f"{grown} pts with a {halo}-wide ring, "
            f"{grown / max(base, 1):.2f}x the haloless budget)")


def check_halo(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    observed = fp.stencil_halo
    declared = int(getattr(fp.functor_type, "stencil_halo", 0))
    if observed > declared:
        widest = next(v for v, h in fp.halo.items() if h == observed)
        yield _finding(
            fp, RULE_HALO, Severity.ERROR, widest,
            f"stencil reaches ±{observed} horizontally but the functor "
            f"declares stencil_halo={declared}; the athread tile stager "
            "DMAs too small a ring and halo exchange leaves outer cells "
            "stale" + _ldm_detail(fp, observed))
    if declared > cfg.domain_halo:
        yield _finding(
            fp, RULE_HALO, Severity.ERROR, None,
            f"declared stencil_halo={declared} exceeds the domain halo "
            f"width {cfg.domain_halo} (repro.parallel.DEFAULT_HALO); the "
            "MPI exchange cannot supply that ring"
            + _ldm_detail(fp, declared))
    elif declared > observed:
        yield _finding(
            fp, RULE_HALO, Severity.INFO, None,
            f"declared stencil_halo={declared} but the observed reads "
            f"only reach ±{observed}; the athread backend stages a larger "
            "LDM ring than needed")


# --------------------------------------------------------------------------
# rule 3: memory-space discipline inside the functor class
# --------------------------------------------------------------------------

KERNEL_BODY_NAMES = {"apply", "__call__", "reduce", "reduce_apply"}


def check_memory_space(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    # .raw inside the kernel body bypasses View space policing
    for name in sorted(set().union(*(p.raw for p in fp.parts))):
        yield _finding(
            fp, RULE_SPACE, Severity.WARNING, name,
            "kernel body dereferences View.raw; use .data so "
            "memory-space policing catches device views read on the host")
    # methods the sweep did not run are host code: a view dereference
    # there races with in-flight launches and dodges the runtime guard
    yield from _host_derefs(fp)


def _host_derefs(fp: KernelFootprint) -> Iterator[Finding]:
    ran = set().union(*(p.ran for p in fp.parts))
    views = {name for p in fp.parts for name, b in p.bound.items()
             if "." not in name and isinstance(b.obj, View)}
    for mname, fn in inspect.getmembers(fp.functor_type, inspect.isfunction):
        if mname in KERNEL_BODY_NAMES | {"__init__"} | ran:
            continue
        try:
            lines, first = inspect.getsourcelines(fn)
        except (OSError, TypeError):
            continue
        for node in ast.walk(ast.parse(textwrap.dedent("".join(lines)))):
            base = node.value if isinstance(node, ast.Subscript) else None
            if not (isinstance(base, ast.Attribute)
                    and base.attr in ("data", "raw")):
                continue
            owner = base.value
            if (isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "self" and owner.attr in views):
                yield _finding(
                    fp, RULE_SPACE, Severity.WARNING, owner.attr,
                    f"method {mname}() dereferences view "
                    f"self.{owner.attr}.{base.attr} outside any kernel "
                    "body; host code must deep_copy or fence before "
                    "touching device views",
                    line=first + node.lineno - 1)
                break  # one finding per method is enough


# --------------------------------------------------------------------------
# rule 4: cost-metadata honesty
# --------------------------------------------------------------------------


def check_cost(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    ft = fp.functor_type
    flops = float(getattr(ft, "flops_per_point", 0.0))
    counted = fp.counted_flops
    if counted >= cfg.cost_abs_floor or flops >= cfg.cost_abs_floor:
        ratio = (counted / flops if flops > 0
                 else float("inf") if counted > 0 else 1.0)
        if ratio > cfg.flops_rtol_hi:
            yield _finding(
                fp, RULE_COST, Severity.WARNING, None,
                f"declared flops_per_point={flops:g} but the kernel body "
                f"counts ~{counted:g} arithmetic ops per point "
                f"({ratio:.1f}x); the roofline model under-reports this "
                "kernel")
        elif ratio < cfg.flops_rtol_lo:
            yield _finding(
                fp, RULE_COST, Severity.WARNING, None,
                f"declared flops_per_point={flops:g} but the kernel body "
                f"only counts ~{counted:g} arithmetic ops per point "
                f"({ratio:.2f}x); the roofline model over-reports this "
                "kernel")
    # the declared bytes/pt must land between the perfect-cache bound
    # (8 B x distinct arrays) and the cold-cache bound (8 B x distinct
    # offset streams), with slack on both sides
    declared = float(getattr(ft, "bytes_per_point", 0.0))
    lo, hi = fp.counted_bytes_min, fp.counted_bytes
    if hi >= cfg.cost_abs_floor * 8 or declared >= cfg.cost_abs_floor * 8:
        if declared < cfg.bytes_rtol_lo * lo:
            yield _finding(
                fp, RULE_COST, Severity.WARNING, None,
                f"declared bytes_per_point={declared:g} is below even the "
                f"perfect-cache bound: the kernel touches "
                f"{fp.counted_arrays} distinct arrays (>= {lo:g} B/pt) "
                f"across {fp.counted_streams} offset streams "
                f"(<= {hi:g} B/pt); memory-bound estimates under-report "
                "this kernel")
        elif declared > cfg.bytes_rtol_hi * hi:
            yield _finding(
                fp, RULE_COST, Severity.WARNING, None,
                f"declared bytes_per_point={declared:g} exceeds the "
                f"cold-cache bound: the kernel only touches "
                f"{fp.counted_streams} distinct 8-byte offset streams "
                f"(<= {hi:g} B/pt)")


# --------------------------------------------------------------------------
# rule 5: apply/__call__ aliasing hazards
# --------------------------------------------------------------------------


def check_alias(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    hazards: List[str] = []
    for part in fp.parts:
        if part.body != "apply":
            continue
        written = set()
        for acc in part.accesses:
            if acc.write:
                written.add(acc.name)
            elif acc.name in written and acc.name not in hazards and any(
                    o != (0, 0) for o in part.offsets(acc).values()):
                hazards.append(acc.name)
    for name in hazards:
        yield _finding(
            fp, RULE_ALIAS, Severity.ERROR, name,
            "vectorised apply() reads a shifted slice of a view after "
            "writing it in the same tile body; the read sees already "
            "updated neighbours, so apply() is not elementwise-"
            "equivalent to __call__ (snapshot the input or write to a "
            "separate output view)")


RULE_CHECKS = {
    RULE_RACE: check_races,
    RULE_HALO: check_halo,
    RULE_SPACE: check_memory_space,
    RULE_COST: check_cost,
    RULE_ALIAS: check_alias,
}


def run_rules(fp: KernelFootprint, cfg: RuleConfig) -> List[Finding]:
    if not fp.observed:
        return [_finding(
            fp, RULE_UNOBSERVED, Severity.ERROR, None,
            "registered, but no lint-matrix launch binds it, so none of "
            "its rules could be checked; launch it from the model or "
            "delete it")]
    out: List[Finding] = []
    for check in RULE_CHECKS.values():
        out.extend(check(fp, cfg))
    return out
