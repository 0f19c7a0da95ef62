"""LICOMK++ — the top-level ocean model.

Assembles grid, topography, forcing, state and the kernel suite into the
paper's split-explicit leapfrog time step (§V-A):

* leapfrog with Robert–Asselin filtering for the baroclinic mode,
* forward–backward subcycling for the barotropic mode (Table III step
  ratios),
* two-step shape-preserving tracer advection,
* Canuto vertical mixing feeding implicit column solves,
* 2-D/3-D halo updates (tripolar fold included) between every stencil
  stage — the communication pattern whose cost the paper optimizes.

Every kernel is dispatched through the portability layer, so the same
model runs unchanged on the serial, OpenMP, Athread and CUDA/HIP
backends; on device backends the halo stages ledger their host<->device
copies (the paper's heterogeneous systems lack GPU-aware MPI, §V-D).

A model instance owns one rank's block.  Single-process use (the
default) is just the 1x1 decomposition; distributed runs construct one
model per rank inside :meth:`repro.parallel.comm.SimWorld.run` and must
agree bitwise with the single-rank run (enforced by tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..errors import StabilityError
from ..kokkos import (
    ExecutionContext,
    ExchangeNode,
    ExecutionSpace,
    LaunchGraph,
    MDRangePolicy,
    PhaseNode,
    RotateNode,
    View,
    kokkos_register_for,
)
from ..kokkos.workspace import Workspace
from ..parallel.comm import SimComm, SingleComm
from ..parallel.decomp import BlockDecomposition
from ..parallel.halo import HaloUpdater
from .config import ModelConfig
from .forcing import ForcingParams, make_forcing
from .grid import Grid, make_grid
from .kernel_utils import TileFunctor
from .kernels_barotropic import (
    AsselinFilterFunctor,
    BarotropicContinuityFunctor,
    BarotropicMomentumFunctor,
    GForceFunctor,
    asselin_into,
)
from .kernels_momentum import (
    AddBarotropicFunctor,
    BaroclinicTendencyFunctor,
    CoriolisRotationFunctor,
    DepthMeanFunctor,
)
from .kernels_scalar import EOSFunctor, PressureFunctor, WFunctor
from .kernels_tracer import (
    AdvectPredictorFunctor,
    FCTApplyFunctor,
    FCTLimitFunctor,
    TracerHDiffusionFunctor,
)
from .kernels_vdiff import VerticalFrictionFunctor, VerticalTracerDiffusionFunctor
from .localdomain import LocalDomain, local_with_halo, make_local_domain
from .precision import (
    CastFunctor,
    CastFunctor2D,
    PrecisionLike,
    PrecisionPolicy,
    resolve_precision,
)
from .state import ModelState
from .topography import Topography, make_topography
from .vmix_canuto import CanutoMixFunctor, KAPPA_H_BACKGROUND, KAPPA_M_BACKGROUND


@dataclass
class ModelParams:
    """Tunable physics/numerics parameters (resolution-aware defaults)."""

    visc_factor: float = 0.02       # A_h = visc_factor * dx_min^2 / dt
    biharmonic_factor: float = 0.0  # A_4 = biharmonic_factor * dx_min^4 / dt
                                    # (the eddy-resolving mixing form)
    tdiff_factor: float = 0.005     # A_T = tdiff_factor * dx_min^2 / dt
    asselin: float = 0.1            # Robert-Asselin coefficient
    bottom_drag: float = 1.0e-6     # linear bottom drag [1/s]
    advect_momentum: bool = True
    canuto_every: int = 1           # steps between canuto updates
    check_every: int = 16           # steps between NaN checks (0 = never)
    thermocline_depth: float = 800.0  # initial stratification e-folding [m]
    t_deep: float = 2.0             # abyssal temperature [C]
    precision: PrecisionLike = "double"  # "double" | "single" | "mixed",
                                    # a {family: dtype} mapping, or a
                                    # PrecisionPolicy: per-kernel-family
                                    # dtypes (SViii mixed precision)
    n_passive: int = 0              # extra passive (dye/age) tracers
    graph: bool = True              # the production path: capture each
                                    # step variant once, seal it (launch
                                    # fusion + bound sweeps) and replay;
                                    # False steps eagerly, the reference
                                    # oracle it is bitwise identical to
    trace: bool = False             # span tracing: record kernel launches,
                                    # halo phases, transfers and step/timer
                                    # regions on the context's Tracer for
                                    # Chrome-trace export (repro.trace);
                                    # False keeps the dispatch path free of
                                    # any tracing work
    forcing: ForcingParams = field(default_factory=ForcingParams)


class LICOMKpp:
    """A performance-portable LICOM-like global ocean model (one rank).

    Parameters
    ----------
    config:
        Grid sizes and time steps (:mod:`repro.ocean.config`).
    backend:
        Execution-space name (``serial``/``openmp``/``athread``/``cuda``/
        ``hip``), an already-built :class:`ExecutionSpace`, or an
        :class:`ExecutionContext` (equivalent to passing ``context=``).
    context:
        The :class:`ExecutionContext` owning this rank's backend,
        instrumentation, workspace arena, graph cache and timers.  When
        omitted the model builds a private one for ``backend``, so every
        model — single-rank or one of many ranks — reports its own
        statistics (§VI-C).
    comm / decomp:
        Simulated-MPI endpoint and decomposition; default single rank.
    flat_bottom:
        Use the idealized flat-bottom aquaplanet topography.
    """

    def __init__(
        self,
        config: ModelConfig,
        backend="serial",
        comm: Optional[SimComm] = None,
        decomp: Optional[BlockDecomposition] = None,
        params: Optional[ModelParams] = None,
        grid: Optional[Grid] = None,
        topo: Optional[Topography] = None,
        flat_bottom: bool = False,
        seed: int = 2024,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        self.config = config
        self.params = params or ModelParams()
        self.comm = comm if comm is not None else SingleComm()
        if context is None:
            # a name builds a private space, an ExecutionSpace is adopted
            context = (backend if isinstance(backend, ExecutionContext)
                       else ExecutionContext(backend, rank=self.comm.rank))
        self.context = context
        if self.params.trace:
            context.enable_tracing()
        self.space: ExecutionSpace = context.space
        context.attach_comm(self.comm)
        self.decomp = decomp if decomp is not None else BlockDecomposition(
            config.ny, config.nx, 1, 1
        )
        self.rank = self.comm.rank
        self.timers = context.timers

        # full-depth grids bottom out exactly at the paper's 10,905 m
        # maximum topography, so the trench column activates every level
        from .topography import MARIANA_DEPTH
        depth = MARIANA_DEPTH if config.full_depth else 5000.0
        stretch = 6.0 if config.full_depth else 2.0
        self.grid = grid if grid is not None else make_grid(
            config.ny, config.nx, config.nz, depth=depth, stretch=stretch
        )
        self.topo = topo if topo is not None else make_topography(
            self.grid, with_trench=config.full_depth, flat=flat_bottom, seed=seed
        )
        self.domain: LocalDomain = make_local_domain(
            self.grid, self.topo, self.decomp, self.rank
        )
        d = self.domain
        # scratch arena the kernel apply bodies draw temporaries from.
        # Owned by the context: released (all threads' pools) on close.
        d.workspace = self.context.make_workspace()
        #: Per-kernel-family precision policy (presets "double"/"single"/
        #: "mixed" or per-family overrides; see repro.ocean.precision).
        self.policy: PrecisionPolicy = resolve_precision(self.params.precision)
        famdt = self.policy.family_dtype
        #: Representative dtype (tracer family) — the historical
        #: uniform-precision attribute.
        self.dtype = famdt("tracer")
        self.state = ModelState(d.nz, d.ly, d.lx, space=self.space.memory_space,
                                n_passive=self.params.n_passive,
                                policy=self.policy)
        # per-family geometry: fp32 families compute against fp32 metric
        # and mask arrays so no fp64 arithmetic sneaks into their sweeps
        # (at_dtype returns the original domain for fp64 requests)
        self.dom_tracer = d.at_dtype(famdt("tracer"))
        self.dom_momentum = d.at_dtype(famdt("momentum"))
        self.dom_vmix = d.at_dtype(famdt("vmix"))
        self.dom_barotropic = d.at_dtype(famdt("barotropic"))
        self.dom_eos = d.at_dtype(famdt("eos"))
        self.dom_scan = d.at_dtype(famdt("scan"))
        self.halo = HaloUpdater(self.comm, self.decomp, self.rank,
                                tracer=context.tracer)

        # -- work views -----------------------------------------------------
        s3 = (d.nz, d.ly, d.lx)
        s2 = (d.ly, d.lx)
        sp = self.space.memory_space
        dt_tr = famdt("tracer")
        dt_b = famdt("barotropic")
        # per-tracer scratch so the tracer suite can run stage-by-stage
        # across all tracers (T, S, passives) with one fused halo per
        # stage; slot 0 keeps the historical single-tracer attribute
        # names alive for kernel benchmarks
        n_tr = 2 + self.params.n_passive
        self.tstar_all = [View(f"tstar{i}", s3, dtype=dt_tr, space=sp)
                          for i in range(n_tr)]
        self.tdiff_work_all = [View(f"tdiff_work{i}", s3, dtype=dt_tr, space=sp)
                               for i in range(n_tr)]
        self.rplus_all = [View(f"rplus{i}", s3, dtype=dt_tr, space=sp)
                          for i in range(n_tr)]
        self.rminus_all = [View(f"rminus{i}", s3, dtype=dt_tr, space=sp)
                           for i in range(n_tr)]
        # the antidiffusive flux the FCT limiter stores through each
        # cell's own east / north / top faces, read back by the apply
        s3w = (d.nz + 1, d.ly, d.lx)
        self.aflux_all = [tuple(View(f"aflux_{face}{i}", shape, dtype=dt_tr,
                                     space=sp)
                                for face, shape in (("e", s3), ("n", s3),
                                                    ("t", s3w)))
                          for i in range(n_tr)]
        self.tstar = self.tstar_all[0]
        self.tdiff_work = self.tdiff_work_all[0]
        self.rplus = self.rplus_all[0]
        self.rminus = self.rminus_all[0]
        # the subcycle's intermediate eta levels alternate these two
        # buffers (see _barotropic_cycle)
        self.eta = View("eta_work", s2, dtype=dt_b, space=sp)
        self.eta_prev = View("eta_prev", s2, dtype=dt_b, space=sp)
        self.um = View("umean", s2, dtype=dt_b, space=sp)
        self.vm = View("vmean", s2, dtype=dt_b, space=sp)
        self.um_old = View("umean_old", s2, dtype=dt_b, space=sp)
        self.vm_old = View("vmean_old", s2, dtype=dt_b, space=sp)
        self.gx = View("gforce_x", s2, dtype=dt_b, space=sp)
        self.gy = View("gforce_y", s2, dtype=dt_b, space=sp)

        # -- precision-cast shadows ------------------------------------------
        # When a consumer family is narrower than a producer family, the
        # consumer reads an explicitly cast shadow view instead of the
        # wide original; the casts are their own launches
        # (``precision_cast``), so they show up in graphs, lint and
        # traces.  Under a uniform policy every shadow aliases its
        # source and zero cast launches are emitted.
        st = self.state

        def shadow(src: View, family: str, name: str) -> View:
            if src.dtype == famdt(family):
                return src
            return View(name, src.shape, dtype=famdt(family), space=sp)

        self.p_mom = shadow(st.p, "momentum", "p_mom")
        self.rho_vmix = shadow(st.rho, "vmix", "rho_vmix")
        self.u_vmix = shadow(st.u.cur, "vmix", "u_cur_vmix")
        self.v_vmix = shadow(st.v.cur, "vmix", "v_cur_vmix")
        self.kappa_m_mom = shadow(st.kappa_m, "momentum", "kappa_m_mom")
        self.kappa_h_tr = shadow(st.kappa_h, "tracer", "kappa_h_tr")
        self.um_mom = shadow(self.um, "momentum", "umean_mom")
        self.vm_mom = shadow(self.vm, "momentum", "vmean_mom")
        self.ub_mom = shadow(st.ub, "momentum", "ub_mom")
        self.vb_mom = shadow(st.vb, "momentum", "vb_mom")
        self.u_tr = shadow(st.u.cur, "tracer", "u_cur_tr")
        self.v_tr = shadow(st.v.cur, "tracer", "v_cur_tr")
        self.w_tr = shadow(st.w, "tracer", "w_tr")

        # -- forcing, geometry ------------------------------------------------
        global_forcing = make_forcing(self.grid, self.params.forcing)

        def fam_arr(arr: np.ndarray, family: str) -> np.ndarray:
            return arr.astype(famdt(family), copy=False)

        self.taux = fam_arr(local_with_halo(
            global_forcing.taux_u, self.decomp, self.rank, sign=-1.0), "momentum")
        self.tauy = fam_arr(local_with_halo(
            global_forcing.tauy_u, self.decomp, self.rank, sign=-1.0), "momentum")
        self.sst_star = fam_arr(local_with_halo(
            global_forcing.sst_star, self.decomp, self.rank), "tracer")
        self.sss_star = fam_arr(local_with_halo(
            global_forcing.sss_star, self.decomp, self.rank), "tracer")
        self.gamma_t = global_forcing.gamma_t
        self.gamma_s = global_forcing.gamma_s
        self.hu = fam_arr(d.column_depth_u() * d.mask_u[0], "barotropic")
        self._zero2d = np.zeros((d.ly, d.lx), dtype=dt_tr)

        # -- numerics ---------------------------------------------------------
        dxm = self.grid.min_dx()
        self.visc = self.params.visc_factor * dxm * dxm / config.dt_baroclinic
        self.bivisc = self.params.biharmonic_factor * dxm ** 4 / config.dt_baroclinic
        self.tdiff = self.params.tdiff_factor * dxm * dxm / config.dt_tracer
        # eta checkerboard damping: stability requires
        # eta_diff * dt_b * (2/dx^2 + 2/dy^2) < 1/2
        self.eta_diff = 0.02 * dxm * dxm / config.dt_barotropic
        self.nstep = 0
        self.time_seconds = 0.0

        # -- step-graph capture & replay --------------------------------------
        # graphs are keyed by the step variant they recorded (first step
        # uses dt2 = dt; canuto may be intermittent); each sealed graph
        # carries the binding signature it captured under and is dropped
        # when the signature no longer matches (re-capture).  The dict
        # lives in the context's graph cache so close() drops the plans.
        self._graphs: Dict[tuple, LaunchGraph] = \
            self.context.graph_cache.setdefault(("licomkpp", id(self)), {})
        self._capture: Optional[LaunchGraph] = None
        self._graph_captures = 0

        # -- policies ---------------------------------------------------------
        h = d.halo
        self.p_full3 = MDRangePolicy([(0, d.nz), (0, d.ly), (0, d.lx)])
        self.p_int3 = MDRangePolicy([(0, d.nz), (h, d.ly - h), (h, d.lx - h)])
        self.p_full2 = MDRangePolicy([(0, d.ly), (0, d.lx)])
        self.p_int2 = MDRangePolicy([(h, d.ly - h), (h, d.lx - h)])
        # interior grown by one ring: w is read at +-1 by the momentum
        # kernel, and the (u, v) halos are 2 wide, so the ring can be
        # computed locally instead of exchanged (saves one 3-D halo).
        self.p_int2g = MDRangePolicy([(h - 1, d.ly - h + 1), (h - 1, d.lx - h + 1)])
        # interior grown by one ring to the south and west only: the ring
        # the barotropic continuity reads (u_b, v_b) on, on every rank
        # (closed edge included, so balanced ranks launch equal points)
        self.p_int2sw = MDRangePolicy([(h - 1, d.ly - h), (h - 1, d.lx - h)])

        self._initialize_state()

    def close(self) -> None:
        """Release this rank's context-owned resources (arena, graphs).

        Multi-rank programs call this before returning from their
        SimWorld rank thread so no arena outlives the rank; the ledgers
        stay readable for aggregation.
        """
        self.context.close()

    def reset(self) -> None:
        """Return to the exact post-construction state, keeping all views.

        Every view buffer is zeroed and the analytic initial conditions
        are re-applied, so a reset model is *bitwise identical* to a
        freshly constructed one — while every ``View`` object (and with
        it every sealed launch graph, whose binding signature is made of
        view identities) stays valid.  This is what lets ``repro.serve``
        lease one engine to many jobs with the same configuration
        signature: each job gets a pristine model without paying
        construction or re-capture.
        """
        self.space.fence()
        for view in self._bound_views():
            view.raw[...] = 0.0
        self.nstep = 0
        self.time_seconds = 0.0
        self._initialize_state()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _initialize_state(self) -> None:
        """Analytic initial conditions: stratified, at rest."""
        d = self.domain
        p = self.params
        sst = self.sst_star                      # (ly, lx), halo-filled
        zt = d.z_t.reshape(-1, 1, 1)
        decay = np.exp(-zt / p.thermocline_depth)
        t0 = (p.t_deep + (sst[None, :, :] - p.t_deep) * decay) * d.mask_t
        s0 = 35.0 * d.mask_t
        self.state.t.set_initial(t0)
        self.state.s.set_initial(s0)
        zeros3 = np.zeros((d.nz, d.ly, d.lx))
        zeros2 = np.zeros((d.ly, d.lx))
        self.state.u.set_initial(zeros3)
        self.state.v.set_initial(zeros3)
        self.state.ssh.set_initial(zeros2)
        self.state.kappa_m.raw[...] = KAPPA_M_BACKGROUND
        self.state.kappa_h.raw[...] = KAPPA_H_BACKGROUND

    # ------------------------------------------------------------------
    # launch routing (eager / graph capture / graph replay)
    # ------------------------------------------------------------------

    def _run(self, label: str, policy, functor) -> None:
        """Dispatch one kernel launch, recording it when capturing."""
        if self._capture is not None:
            self._capture.add_kernel(label, policy, functor)
        self.space.parallel_for(label, policy, functor)

    def _cast(self, src: View, dst: View) -> None:
        """Emit an explicit family-boundary cast launch (no-op on alias).

        The only place a value changes precision: when ``dst`` is a
        shadow view of a different dtype, a ``precision_cast`` sweep
        copies (and converts) the full range, halos included, so the
        narrow consumer's stencils read converted ghosts.  Under a
        uniform policy every shadow aliases its source and nothing is
        launched — double-precision schedules are unchanged.
        """
        if dst is src:
            return
        policy = MDRangePolicy([(0, n) for n in dst.shape])
        if dst.ndim == 2:
            self._run("precision_cast_2d", policy, CastFunctor2D(src, dst))
        else:
            self._run("precision_cast", policy, CastFunctor(src, dst))

    def _node(self, node) -> None:
        """Run an exchange, rotate or phase node, recording it when
        capturing."""
        if self._capture is not None:
            self._capture.add(node)
        node.run()

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Time the enclosed part of the step as timer region ``name``.

        Its entry and exit are :class:`PhaseNode` s on the node route, so
        every replay times its phases through the same registry calls as
        the eager step.
        """
        self._node(PhaseNode(self.timers, name, True))
        try:
            yield
        finally:
            self._node(PhaseNode(self.timers, name, False))

    def _exchange(self, label: str, fields) -> None:
        """Halo-update ``fields`` — ``(view, sign, fill)`` triples — in
        one fused exchange (one message per neighbour per phase)."""
        self._node(ExchangeNode(label, self.space, self.halo, fields))

    def _bound_views(self) -> List[View]:
        """Every view the step's functors bind: the state's, the work
        views and the cast shadows.

        :meth:`reset` zeroes exactly these and
        :meth:`_binding_signature` is made of their identities.  A cast
        shadow aliases its source under a uniform policy (listed, and
        zeroed, twice: harmless) and is its own buffer under a mixed one.
        """
        st = self.state
        views = [st.ub, st.vb, st.rho, st.p, st.w, st.kappa_h, st.kappa_m,
                 self.eta, self.eta_prev, self.um, self.vm,
                 self.um_old, self.vm_old, self.gx, self.gy,
                 self.p_mom, self.rho_vmix, self.u_vmix, self.v_vmix,
                 self.kappa_m_mom, self.kappa_h_tr, self.um_mom,
                 self.vm_mom, self.ub_mom, self.vb_mom,
                 self.u_tr, self.v_tr, self.w_tr]
        for f in st.leapfrog_fields().values():
            views += [f.old, f.cur, f.new]
        views += (self.tstar_all + self.tdiff_work_all
                  + self.rplus_all + self.rminus_all)
        views += [v for faces in self.aflux_all for v in faces]
        return views

    def _binding_signature(self) -> tuple:
        """Identity of everything a captured graph bakes into functors.

        Leapfrog rotation swaps buffers beneath stable views
        (:meth:`~repro.kokkos.view.View.rebind`), so view *object*
        identities survive rotation and the signature stays valid step
        to step.  Replacing a view, or changing a numeric parameter that
        functor constructors copy, changes the signature and forces a
        re-capture.
        """
        nums = (self.policy.signature(),
                self.visc, self.bivisc, self.tdiff, self.eta_diff,
                self.params.asselin, self.params.bottom_drag,
                self.params.advect_momentum, self.params.n_passive,
                self.params.canuto_every,
                self.config.dt_baroclinic, self.config.dt_barotropic,
                self.gamma_t, self.gamma_s)
        return (tuple(id(v) for v in self._bound_views()), nums)

    # ------------------------------------------------------------------
    # one baroclinic step
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the model one baroclinic time step.

        The first step of each variant (startup forward step / canuto on
        or off) runs eagerly while recording into a
        :class:`~repro.kokkos.graph.LaunchGraph`; later steps replay the
        sealed graph through cached launch plans — bitwise identical,
        near-zero dispatch, the same phase timers.  ``params.graph=False``
        steps eagerly every time: the reference oracle.
        """
        dt = self.config.dt_baroclinic
        dt2 = dt if self.nstep == 0 else 2.0 * dt
        canuto = bool(self.params.canuto_every
                      and self.nstep % self.params.canuto_every == 0)
        tr = self.context.tracer
        if tr.enabled:
            tr.instant("step_begin", cat="model", step=self.nstep,
                       variant="startup" if self.nstep == 0 else "leapfrog",
                       canuto=canuto)
        if not self.params.graph:
            self._step_body(dt2, canuto)
        else:
            key = (self.nstep == 0, canuto)
            sig = self._binding_signature()
            graph = self._graphs.get(key)
            if graph is not None and graph.signature != sig:
                graph = None  # bindings changed: drop and re-capture
            if graph is None:
                if tr.enabled:
                    tr.instant("graph_capture", cat="model", step=self.nstep)
                graph = LaunchGraph(self.space)
                self._capture = graph
                try:
                    self._step_body(dt2, canuto)
                finally:
                    self._capture = None
                graph.signature = sig
                self._graphs[key] = graph.seal()
                self._graph_captures += 1
            else:
                graph.replay()
        self.nstep += 1
        self.time_seconds += dt
        ce = self.params.check_every
        if ce and self.nstep % ce == 0 and self.state.has_nan():
            raise StabilityError(
                f"NaN/Inf in prognostic fields at step {self.nstep} "
                f"(t = {self.time_seconds / 86400.0:.2f} days)"
            )

    def _step_body(self, dt2: float, canuto: bool) -> None:
        """The step's launches, exchanges, rotate and phase marks (run
        eagerly, maybe recorded)."""
        st = self.state
        d = self.domain
        run = self._run

        with self._phase("step"):
            # -- density / pressure / mixing coefficients -------------------
            with self._phase("eos_pressure"):
                run("eos_density", self.p_full3,
                    EOSFunctor(st.t.cur, st.s.cur, st.rho, self.dom_eos))
                run("baroclinic_pressure", self.p_full2,
                    PressureFunctor(st.rho, st.p, self.dom_eos))
            if canuto:
                with self._phase("canuto"):
                    self._run_canuto()

            # -- vertical velocity from current (time-centered) flow --------
            with self._phase("w_diag"):
                run("vertical_velocity", self.p_int2g,
                    WFunctor(st.u.cur, st.v.cur, st.w, self.dom_momentum))

            # -- baroclinic momentum ----------------------------------------
            with self._phase("momentum"):
                self._cast(st.p, self.p_mom)
                self._cast(st.kappa_m, self.kappa_m_mom)
                run("baroclinic_tendency", self.p_int3,
                    BaroclinicTendencyFunctor(
                        st.u.old, st.v.old, st.u.cur, st.v.cur, st.w,
                        self.p_mom, st.u.new, st.v.new, self.dom_momentum,
                        dt2, self.visc,
                        advect=self.params.advect_momentum,
                        biharmonic=self.bivisc))
                run("vertical_friction", self.p_int2,
                    VerticalFrictionFunctor(
                        st.u.new, st.v.new, self.kappa_m_mom, self.taux,
                        self.tauy, self.dom_momentum, dt2,
                        self.params.bottom_drag))
                # Capture the depth-mean force for the barotropic solver
                # BEFORE Coriolis rotation: the subcycle applies its own
                # Coriolis, and a rotation baked into G would double it
                # (a classic splitting instability).
                run("depth_mean_u_old", self.p_full2,
                    DepthMeanFunctor(st.u.old, self.um_old, self.dom_scan))
                run("depth_mean_v_old", self.p_full2,
                    DepthMeanFunctor(st.v.old, self.vm_old, self.dom_scan))
                run("depth_mean_u_new", self.p_full2,
                    DepthMeanFunctor(st.u.new, self.um, self.dom_scan))
                run("depth_mean_v_new", self.p_full2,
                    DepthMeanFunctor(st.v.new, self.vm, self.dom_scan))
                run("barotropic_gforce", self.p_full2,
                    GForceFunctor(self.um, self.um_old, self.vm,
                                  self.vm_old, self.gx, self.gy, dt2))
                run("coriolis_rotation", self.p_int3,
                    CoriolisRotationFunctor(st.u.new, st.v.new,
                                            st.u.old, st.v.old,
                                            self.dom_momentum, dt2))
            # the depth-mean force rides along: the sub-cycle's momentum
            # reads its south / west ghost ring (see _barotropic_cycle)
            self._exchange("halo_momentum", [(st.u.new, -1.0, 0.0),
                                             (st.v.new, -1.0, 0.0),
                                             (self.gx, -1.0, 0.0),
                                             (self.gy, -1.0, 0.0)])

            # -- split-explicit barotropic mode -----------------------------
            with self._phase("barotropic"):
                self._barotropic_cycle(dt2)

            # -- tracers (transported with the time-centered velocities) -----
            with self._phase("tracer"):
                self._tracer_suite(dt2)

            # -- Asselin filter + rotate ------------------------------------
            with self._phase("filter"):
                a = self.params.asselin
                ws = d.scratch()
                for f in (st.u, st.v, st.t, st.s):
                    run("asselin_filter", self.p_full3,
                        AsselinFilterFunctor(f.old, f.cur, f.new, a, ws))
                run("asselin_filter_ssh", self.p_full2,
                    _Asselin2D(st.ssh.old, st.ssh.cur, st.ssh.new, a, ws))
                self._node(RotateNode(
                    self.space, [(f.old, f.cur, f.new)
                                 for f in st.leapfrog_fields().values()]))

    def _run_canuto(self) -> None:
        st = self.state
        self._cast(st.u.cur, self.u_vmix)
        self._cast(st.v.cur, self.v_vmix)
        self._cast(st.rho, self.rho_vmix)
        self._run(
            "canuto_mixing", self.p_int2,
            CanutoMixFunctor(self.u_vmix, self.v_vmix, self.rho_vmix,
                             st.kappa_m, st.kappa_h, self.dom_vmix))

    def _barotropic_cycle(self, dt2: float) -> None:
        """Forward-backward subcycle over ``nsub`` barotropic steps.

        The external mode is integrated *forward in time* from the
        current level over one baroclinic step: re-integrating a 2 dt
        leapfrog window every step excites the external computational
        mode.  Forward stepping is mildly dissipative for surface
        gravity waves, which is exactly what the splitting needs.
        """
        st = self.state
        run = self._run
        dom_b = self.dom_barotropic
        dtb = self.config.dt_barotropic
        steps = max(1, int(round(self.config.dt_baroclinic / dtb)))

        # strip the provisional barotropic mode from the 3-D velocity
        # (the depth-mean force gx/gy was captured pre-rotation in step())
        run("depth_mean_u_new", self.p_full2,
            DepthMeanFunctor(st.u.new, self.um, self.dom_scan))
        run("depth_mean_v_new", self.p_full2,
            DepthMeanFunctor(st.v.new, self.vm, self.dom_scan))
        self._cast(self.um, self.um_mom)
        self._cast(self.vm, self.vm_mom)
        run("strip_barotropic_u", self.p_full3,
            AddBarotropicFunctor(st.u.new, self.um_mom, self.dom_momentum,
                                 sign=-1.0))
        run("strip_barotropic_v", self.p_full3,
            AddBarotropicFunctor(st.v.new, self.vm_mom, self.dom_momentum,
                                 sign=-1.0))

        # subcycle state: start from (eta, ubar) at the current level
        run("depth_mean_u_cur", self.p_full2,
            DepthMeanFunctor(st.u.cur, st.ub, self.dom_scan))
        run("depth_mean_v_cur", self.p_full2,
            DepthMeanFunctor(st.v.cur, st.vb, self.dom_scan))

        # eta ping-pongs without copies: sub-step i reads level i-1 and
        # writes level i; level -1 is ssh.cur, the last level is ssh.new
        # and the levels between alternate the two eta work buffers.
        # Continuity reads (ub, vb) on its tiles and their south / west
        # ring only, so momentum computes that ring itself, from the same
        # operands its owner uses (fresh eta, exchanged gx / gy), instead
        # of exchanging (ub, vb) every sub-step.  eta's fold ring cannot
        # be recomputed bitwise, so eta is still exchanged every sub-step.
        eta_in = st.ssh.cur
        for i in range(steps):
            eta = st.ssh.new if i == steps - 1 else \
                (self.eta, self.eta_prev)[i % 2]
            run("barotropic_continuity", self.p_int2,
                BarotropicContinuityFunctor(
                    st.ub, st.vb, eta_in, eta, self.hu, dom_b, dtb,
                    eta_diff=self.eta_diff))
            self._exchange("halo_eta", [(eta, 1.0, 0.0)])
            run("barotropic_momentum", self.p_int2sw,
                BarotropicMomentumFunctor(st.ub, st.vb, eta, self.gx,
                                          self.gy, dom_b, dtb))
            eta_in = eta
        # one (ub, vb) refresh per step, so every ghost the step leaves
        # behind (restart files, digests) is its owner's value
        self._exchange("halo_ubvb", [(st.ub, -1.0, 0.0),
                                     (st.vb, -1.0, 0.0)])

        # re-attach the subcycled barotropic mode
        self._cast(st.ub, self.ub_mom)
        self._cast(st.vb, self.vb_mom)
        run("add_barotropic_u", self.p_full3,
            AddBarotropicFunctor(st.u.new, self.ub_mom, self.dom_momentum))
        run("add_barotropic_v", self.p_full3,
            AddBarotropicFunctor(st.v.new, self.vb_mom, self.dom_momentum))
        self._exchange("halo_momentum", [(st.u.new, -1.0, 0.0),
                                         (st.v.new, -1.0, 0.0)])

    def _tracer_suite(self, dt2: float) -> None:
        """Advance every tracer (T, S, passives) one step.

        The suite runs *stage by stage across all tracers* — horizontal
        diffusion of every tracer, one fused halo; predictor of every
        tracer, one fused halo; FCT limits with all R+/R- bundled into
        one message; apply + implicit vertical, one fused halo — so the
        number of halo messages is independent of the tracer count.
        Within a tracer, horizontal diffusion runs first (its explicit
        maximum principle keeps the field inside its bounds), then the
        FCT advection of the diffused field, then the implicit vertical
        operator — so the whole tracer step is strictly
        bounds-preserving (the dye test relies on it).
        """
        st = self.state
        tracers = [(st.t, self.sst_star, self.gamma_t),
                   (st.s, self.sss_star, self.gamma_s)]
        tracers += [(p, self._zero2d, 0.0) for p in st.passive]
        # tracer-family shadows of the advecting velocities and the
        # mixing coefficient (aliases when families share a dtype)
        self._cast(st.u.cur, self.u_tr)
        self._cast(st.v.cur, self.v_tr)
        self._cast(st.w, self.w_tr)
        self._cast(st.kappa_h, self.kappa_h_tr)
        d = self.dom_tracer
        run = self._run
        n = len(tracers)
        work, tst = self.tdiff_work_all, self.tstar_all
        rp, rm = self.rplus_all, self.rminus_all

        # stage 1 — diffuse-then-advect: work = old + dt * div(k grad old)
        for i, (fld, _, _) in enumerate(tracers):
            run("tracer_hdiff", self.p_int2,
                TracerHDiffusionFunctor(fld.old, work[i], d, dt2, self.tdiff))
        self._exchange("halo_tracer", [(w, 1.0, 0.0) for w in work])
        # stage 2 — low-order predictor
        for i in range(n):
            run("advect_tracer_predictor", self.p_int2,
                AdvectPredictorFunctor(work[i], self.u_tr, self.v_tr,
                                       self.w_tr, tst[i], d, dt2))
        self._exchange("halo_tracer", [(t, 1.0, 0.0) for t in tst])
        # stage 3 — FCT limiters: every tracer's R+ and R- in one message
        for i in range(n):
            run("advect_tracer_limits", self.p_int2,
                FCTLimitFunctor(work[i], tst[i], self.u_tr, self.v_tr,
                                self.w_tr, rp[i], rm[i], *self.aflux_all[i],
                                d, dt2))
        self._exchange("halo_tracer", [(r, 1.0, 1.0) for r in rp + rm])
        # stage 4 — limited apply + implicit vertical operator
        for i, (fld, star2d, gamma) in enumerate(tracers):
            run("advect_tracer_apply", self.p_int2,
                FCTApplyFunctor(tst[i], self.u_tr, self.v_tr, self.w_tr,
                                rp[i], rm[i], *self.aflux_all[i], fld.new,
                                d, dt2))
            run("vertical_tracer_diffusion", self.p_int2,
                VerticalTracerDiffusionFunctor(fld.new, self.kappa_h_tr,
                                               star2d, gamma, d, dt2))
        self._exchange("halo_tracer",
                       [(fld.new, 1.0, 0.0) for fld, _, _ in tracers])

    # ------------------------------------------------------------------
    # driving and output
    # ------------------------------------------------------------------

    def run_steps(self, n: int) -> None:
        """Advance ``n`` baroclinic steps."""
        for _ in range(n):
            self.step()

    def run_days(self, days: float) -> None:
        """Advance by (at least) ``days`` simulated days."""
        n = int(np.ceil(days * 86400.0 / self.config.dt_baroclinic))
        self.run_steps(n)

    def release_dye(self, index: int = 0, lon: float = 200.0, lat: float = 0.0,
                    radius_deg: float = 10.0, level_range=(0, 1)) -> None:
        """Initialise passive tracer ``index`` with a unit blob.

        The dye is bounded in [0, 1]; the shape-preserving advection must
        keep it there for the model's lifetime (tested).
        """
        if index >= len(self.state.passive):
            raise ValueError(
                f"model has {len(self.state.passive)} passive tracers; "
                f"requested index {index} (set ModelParams.n_passive)")
        from .localdomain import local_with_halo

        grid = self.grid
        lon_t = np.mod(grid.lon_t, 360.0)
        dlo = np.minimum(np.abs(lon_t - lon), 360.0 - np.abs(lon_t - lon))
        lat2, lon2 = np.meshgrid(grid.lat_t, dlo, indexing="ij")
        blob2d = np.where((lon2 / radius_deg) ** 2
                          + ((lat2 - lat) / radius_deg) ** 2 <= 1.0, 1.0, 0.0)
        local2d = local_with_halo(blob2d, self.decomp, self.rank)
        d = self.domain
        field = np.zeros((d.nz, d.ly, d.lx))
        k0, k1 = level_range
        field[k0:k1] = local2d[None, :, :]
        field *= d.mask_t
        self.state.passive[index].set_initial(field)

    # -- field access -----------------------------------------------------

    def local_interior(self, arr: np.ndarray) -> np.ndarray:
        """Strip halos off a local array (2-D or 3-D)."""
        jj, ii = self.domain.interior
        return arr[..., jj, ii]

    def sst(self) -> np.ndarray:
        """Local sea-surface temperature (interior, land as NaN)."""
        t = self.local_interior(self.state.t.cur.raw)[0].copy()
        m = self.local_interior(self.domain.mask_t)[0]
        t[m == 0.0] = np.nan
        return t

    def surface_speed(self) -> np.ndarray:
        """Local surface current speed at U points (interior)."""
        u = self.local_interior(self.state.u.cur.raw)[0]
        v = self.local_interior(self.state.v.cur.raw)[0]
        return np.hypot(u, v)

    def kinetic_energy(self) -> float:
        """Domain-summed kinetic energy density [m^2/s^2 * cells] (local)."""
        u = self.local_interior(self.state.u.cur.raw)
        v = self.local_interior(self.state.v.cur.raw)
        m = self.local_interior(self.domain.mask_u)
        return float(np.sum(0.5 * (u * u + v * v) * m))

    def tracer_content(self, which: str = "t") -> float:
        """Volume-integrated tracer content over the local interior."""
        fld = self.state.t if which == "t" else self.state.s
        tr = self.local_interior(fld.cur.raw)
        m = self.local_interior(self.domain.mask_t)
        jj, _ = self.domain.interior
        vol = (self.domain.dx_t[jj] * self.domain.dy)[None, :, None] \
            * self.domain.dz[:, None, None]
        return float(np.sum(tr * m * vol))


# ---------------------------------------------------------------------------
# distributed driver (thread- or process-backed SimWorld)
# ---------------------------------------------------------------------------


@dataclass
class RankResult:
    """What one rank of a distributed run ships back to the caller.

    Everything here is picklable (process mode sends it through a
    worker exit report): final prognostic fields as plain arrays, the
    step count, and the rank's measurement state — its context's
    :class:`~repro.kokkos.instrument.Instrumentation` (kernels,
    transfers including Athread DMA, workspace) and its tracer.  The
    rank's traffic ledger is not here: it is the world's
    ``rank_traffic[rank]``, which the exit report carries home.
    """

    rank: int
    state: Dict[str, np.ndarray]
    nstep: int
    inst: object = None
    tracer: object = None


#: Prognostic fields snapshotted into :attr:`RankResult.state`.
STATE_FIELDS = ("u", "v", "t", "s", "ssh")


def _distributed_rank_program(comm, config, backend, params, decomp,
                              steps) -> RankResult:
    """The per-rank body of :func:`run_distributed`.

    Module-level (not a closure) so process mode can pickle it for
    spawn; the config/params/decomp it needs travel as ``args``.
    """
    model = LICOMKpp(config, backend=backend, comm=comm, decomp=decomp,
                     params=params)
    try:
        model.run_steps(steps)
        state = {f: getattr(model.state, f).cur.raw.copy()
                 for f in STATE_FIELDS}
        return RankResult(rank=comm.rank, state=state, nstep=model.nstep,
                          inst=model.context.inst,
                          tracer=model.context.tracer)
    finally:
        model.close()


def run_distributed(
    config: ModelConfig,
    ranks: int,
    steps: int,
    backend: str = "serial",
    params: Optional[ModelParams] = None,
    mode: str = "thread",
    decomp: Optional[BlockDecomposition] = None,
    timeout: Optional[float] = None,
):
    """Step the model on ``ranks`` ranks; return rank-ordered results.

    ``mode="thread"`` runs ranks as threads of this process (the
    deterministic default); ``mode="process"`` spawns one OS process
    per rank with shared-memory halo traffic — same program, bitwise
    identical fields, real multi-core parallelism.

    Returns ``(results, world)``: the rank-ordered
    :class:`RankResult` list and the finished :class:`SimWorld`, whose
    ``traffic`` sums the ranks' ledgers into the whole run's message
    statistics.
    """
    from ..parallel.comm import DEFAULT_TIMEOUT, SimWorld
    from ..parallel.decomp import choose_process_grid

    if decomp is None:
        npy, npx = choose_process_grid(config.ny, config.nx, ranks)
        decomp = BlockDecomposition(config.ny, config.nx, npy, npx)
    # `is None` (not truthiness): an explicit timeout of 0.0 must not
    # silently widen to the global default
    world = SimWorld(ranks,
                     timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
                     mode=mode)
    results = world.launch(
        _distributed_rank_program,
        args=(config, backend, params, decomp, steps),
    )
    return results, world


@kokkos_register_for("asselin_filter_2d", ndim=2)
class _Asselin2D(TileFunctor):
    """2-D Asselin filter body (ssh), sharing the 3-D functor's contract."""

    flops_per_point = 4.0
    bytes_per_point = 4 * 8.0

    def __init__(self, old: View, cur: View, new: View, alpha: float,
                 ws: Workspace) -> None:
        self.old = old
        self.cur = cur
        self.new = new
        self.alpha = alpha
        self.ws = ws

    def apply(self, slices) -> None:
        asselin_into(self.old.data, self.cur.data, self.new.data,
                     tuple(slices), self.alpha, self.ws)
