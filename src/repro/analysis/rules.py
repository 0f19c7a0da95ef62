"""The kernelcheck rule families.

Each rule takes a :class:`~repro.analysis.footprint.KernelFootprint`
(plus configuration) and yields :class:`~repro.analysis.findings.Finding`
records:

``race-write``
    Stores to a view at indices not derived injectively from the loop
    indices — scatter writes through data-dependent indices, or writes
    at a shifted offset with no origin coverage.  Two loop iterations
    can hit the same cell, which races under the openmp / device /
    athread backends even though the serial backend happens to agree.

``halo-overrun``
    The extracted stencil footprint (max ``±k`` horizontal offset) is
    cross-checked against the functor's declared ``stencil_halo`` and
    the domain-wide halo width.  Reading beyond the declared halo means
    the athread backend's LDM tile staging DMAs too small a ring and
    the MPI halo exchange leaves the outer cells stale.

``memory-space``
    Memory-space discipline: ``.raw`` dereferences inside kernel bodies
    (bypasses the :class:`~repro.kokkos.view.View` space policing, so a
    device-space view silently reads stale host memory), view
    dereferences in functor methods *outside* any kernel body.  (Host
    accesses that could race an in-flight launch are the exchange and
    rotate graph nodes, which fence by type: see
    :mod:`repro.kokkos.graph`.)

``cost-drift``
    Counted arithmetic ops / distinct memory streams vs the declared
    ``flops_per_point`` / ``bytes_per_point``.  Dishonest declarations
    silently skew the roofline model in :mod:`repro.perfmodel`.

``alias-hazard``
    A vectorised ``apply`` body that reads a view at a *shifted* offset
    after writing the same view: the numpy statements see already
    updated neighbours, so ``apply`` is no longer elementwise-equivalent
    to ``__call__`` (and both orders are backend-dependent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..parallel.decomp import DEFAULT_HALO
from .findings import Finding, Severity
from .footprint import KernelFootprint, static_cost

RULE_RACE = "race-write"
RULE_HALO = "halo-overrun"
RULE_SPACE = "memory-space"
RULE_COST = "cost-drift"
RULE_ALIAS = "alias-hazard"

ALL_RULES = (RULE_RACE, RULE_HALO, RULE_SPACE, RULE_COST, RULE_ALIAS)

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


def _fmt_offsets(fp: KernelFootprint, view: str) -> str:
    vf = fp.views[view]
    parts = []
    for axis in sorted(vf.offsets):
        r = vf.offsets[axis]
        parts.append(f"axis{axis}:[{r.lo:+d},{r.hi:+d}]")
    return " ".join(parts) or "origin-only"


# --------------------------------------------------------------------------
# rule 1: write-write races
# --------------------------------------------------------------------------


def check_races(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    for name, vf in fp.views.items():
        for acc in vf.scatter_writes:
            yield Finding(
                RULE_RACE, Severity.ERROR, fp.kernel, name,
                "scatter write through a data-dependent index "
                "(store index not derived from the loop indices); "
                "iterations may collide under parallel backends",
                file=fp.file, line=fp.line,
            )
        for acc in vf.shifted_writes:
            yield Finding(
                RULE_RACE, Severity.ERROR, fp.kernel, name,
                "write at a shifted loop offset with no origin coverage "
                f"({_fmt_offsets(fp, name)}); neighbouring iterations "
                "store to the same cell",
                file=fp.file, line=fp.line,
            )


# --------------------------------------------------------------------------
# rule 2: stencil footprint vs declared halo (and LDM tile accounting)
# --------------------------------------------------------------------------


def _ldm_detail(fp: KernelFootprint, halo: int) -> str:
    try:
        from repro.kokkos.ldm import max_tile_points
        bpp = float(getattr(fp.functor_type, "bytes_per_point", 8.0)) or 8.0
        base = max_tile_points(bpp)
        side = max(int(base ** 0.5), 1)
        grown = (side + 2 * halo) ** 2
        return (f" (athread LDM: a {side}x{side} tile grows to "
                f"{grown} pts with a {halo}-wide ring, "
                f"{grown / max(base, 1):.2f}x the haloless budget)")
    except Exception:  # pragma: no cover - defensive
        return ""


def check_halo(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    extracted = fp.stencil_halo
    declared = int(getattr(fp.functor_type, "stencil_halo", 0))
    if extracted > declared:
        widest = max(
            (v for v in fp.views if fp.views[v].horizontal_halo(fp.ndim)
             == extracted),
            default=None)
        yield Finding(
            RULE_HALO, Severity.ERROR, fp.kernel, widest,
            f"stencil reaches ±{extracted} horizontally but the functor "
            f"declares stencil_halo={declared}; the athread tile stager "
            "DMAs too small a ring and halo exchange leaves outer cells "
            "stale" + _ldm_detail(fp, extracted),
            file=fp.file, line=fp.line,
        )
    if declared > cfg.domain_halo:
        yield Finding(
            RULE_HALO, Severity.ERROR, fp.kernel, None,
            f"declared stencil_halo={declared} exceeds the domain halo "
            f"width {cfg.domain_halo} (repro.parallel.DEFAULT_HALO); the "
            "MPI exchange cannot supply that ring"
            + _ldm_detail(fp, declared),
            file=fp.file, line=fp.line,
        )
    elif declared > extracted and fp.error is None:
        yield Finding(
            RULE_HALO, Severity.INFO, fp.kernel, None,
            f"declared stencil_halo={declared} but the extracted footprint "
            f"only reaches ±{extracted}; the athread backend stages a "
            "larger LDM ring than needed",
            file=fp.file, line=fp.line,
        )


# --------------------------------------------------------------------------
# rule 3: memory-space discipline inside the functor class
# --------------------------------------------------------------------------

KERNEL_BODY_NAMES = {"apply", "__call__", "reduce", "reduce_apply"}


def check_memory_space(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    # .raw inside the kernel body bypasses View space policing
    for name, vf in fp.views.items():
        if vf.kind == "view" and vf.raw_reads:
            yield Finding(
                RULE_SPACE, Severity.WARNING, fp.kernel, name,
                "kernel body dereferences View.raw; use .data so "
                "memory-space policing catches device views read on the "
                "host",
                file=fp.file, line=fp.line,
            )
    # view dereferences in methods not reachable from the kernel body run
    # on the host, outside kernel_context — a device view there races
    # with in-flight launches and dodges the runtime guard via .raw
    yield from _check_outside_kernel_derefs(fp)


def _check_outside_kernel_derefs(fp: KernelFootprint) -> Iterator[Finding]:
    import ast

    analysis = fp.analysis
    if analysis is None or analysis.info is None:
        return
    info = analysis.info
    reachable = set(KERNEL_BODY_NAMES) | {"__init__"}
    reachable.update(analysis.collector.inlined_methods)
    view_attrs = {
        attr for attr, val in info.attr_map.items()
        if type(val).__name__ == "ViewHandle"
    }
    for mname, mnode in info.methods.items():
        if mname in reachable:
            continue
        for node in ast.walk(mnode):
            if not isinstance(node, ast.Subscript):
                continue
            base = node.value
            if not (isinstance(base, ast.Attribute)
                    and base.attr in ("data", "raw")):
                continue
            owner = base.value
            if (isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "self"
                    and owner.attr in view_attrs):
                yield Finding(
                    RULE_SPACE, Severity.WARNING, fp.kernel, owner.attr,
                    f"method {mname}() dereferences view "
                    f"self.{owner.attr}.{base.attr} outside any kernel "
                    "body; host code must deep_copy or fence before "
                    "touching device views",
                    file=fp.file,
                    line=(fp.line or 1) + node.lineno - 1,
                )
                break  # one finding per method is enough


# --------------------------------------------------------------------------
# rule 4: cost-metadata honesty
# --------------------------------------------------------------------------


def check_cost(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    sc = static_cost(fp)
    if sc.counted_flops >= cfg.cost_abs_floor or \
            sc.declared_flops >= cfg.cost_abs_floor:
        if sc.flops_ratio > cfg.flops_rtol_hi:
            yield Finding(
                RULE_COST, Severity.WARNING, fp.kernel, None,
                f"declared flops_per_point={sc.declared_flops:g} but the "
                f"kernel body counts ~{sc.counted_flops:g} arithmetic ops "
                f"per point ({sc.flops_ratio:.1f}x); the roofline model "
                "under-reports this kernel",
                file=fp.file, line=fp.line,
            )
        elif sc.flops_ratio < cfg.flops_rtol_lo:
            yield Finding(
                RULE_COST, Severity.WARNING, fp.kernel, None,
                f"declared flops_per_point={sc.declared_flops:g} but the "
                f"kernel body only counts ~{sc.counted_flops:g} arithmetic "
                f"ops per point ({sc.flops_ratio:.2f}x); the roofline "
                "model over-reports this kernel",
                file=fp.file, line=fp.line,
            )
    # the declared bytes/pt must land between the perfect-cache bound
    # (8 B x distinct arrays) and the cold-cache bound (8 B x distinct
    # offset streams), with slack on both sides
    if sc.counted_bytes >= cfg.cost_abs_floor * 8 or \
            sc.declared_bytes >= cfg.cost_abs_floor * 8:
        if sc.declared_bytes < cfg.bytes_rtol_lo * sc.counted_bytes_min:
            yield Finding(
                RULE_COST, Severity.WARNING, fp.kernel, None,
                f"declared bytes_per_point={sc.declared_bytes:g} is below "
                f"even the perfect-cache bound: the kernel touches "
                f"{fp.counted_arrays} distinct arrays "
                f"(>= {sc.counted_bytes_min:g} B/pt) across "
                f"{fp.counted_streams} offset streams "
                f"(<= {sc.counted_bytes:g} B/pt); memory-bound estimates "
                "under-report this kernel",
                file=fp.file, line=fp.line,
            )
        elif sc.declared_bytes > cfg.bytes_rtol_hi * sc.counted_bytes:
            yield Finding(
                RULE_COST, Severity.WARNING, fp.kernel, None,
                f"declared bytes_per_point={sc.declared_bytes:g} exceeds "
                f"the cold-cache bound: the kernel only touches "
                f"{fp.counted_streams} distinct 8-byte offset streams "
                f"(<= {sc.counted_bytes:g} B/pt)",
                file=fp.file, line=fp.line,
            )


# --------------------------------------------------------------------------
# rule 5: apply/__call__ aliasing hazards
# --------------------------------------------------------------------------


def check_alias(fp: KernelFootprint, cfg: RuleConfig) -> Iterator[Finding]:
    if fp.body_method not in ("apply", "reduce_apply"):
        return
    for name, vf in fp.views.items():
        if vf.kind != "view" or not vf.writes:
            continue
        first_write = min(
            (acc.lineno for acc, _ in vf.covered_axes_per_write),
            default=None)
        if first_write is None:
            continue
        hazard = None
        for acc in fp.analysis.accesses if fp.analysis else []:
            if acc.array != name or acc.write:
                continue
            if acc.lineno < first_write:
                continue
            shifted = any(
                getattr(opt, "lo", 0) != 0 or getattr(opt, "hi", 0) != 0
                for val in acc.axes
                for opt in (val.options if hasattr(val, "options") else (val,))
            )
            if shifted:
                hazard = acc
                break
        if hazard is not None:
            yield Finding(
                RULE_ALIAS, Severity.ERROR, fp.kernel, name,
                "vectorised apply() reads a shifted slice of a view after "
                "writing it in the same tile body; the read sees already "
                "updated neighbours, so apply() is not elementwise-"
                "equivalent to __call__ (snapshot the input or write to a "
                "separate output view)",
                file=fp.file, line=fp.line,
            )


RULE_CHECKS = {
    RULE_RACE: check_races,
    RULE_HALO: check_halo,
    RULE_SPACE: check_memory_space,
    RULE_COST: check_cost,
    RULE_ALIAS: check_alias,
}


def run_rules(fp: KernelFootprint, cfg: RuleConfig) -> List[Finding]:
    out: List[Finding] = []
    if fp.error is not None:
        out.append(Finding(
            RULE_SPACE, Severity.INFO, fp.kernel, None,
            f"kernel body not analyzable: {fp.error}",
            file=fp.file, line=fp.line))
        return out
    for check in RULE_CHECKS.values():
        out.extend(check(fp, cfg))
    return out
