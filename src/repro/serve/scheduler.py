"""The multi-tenant job scheduler: admission, fair queuing, shared I/O.

One :class:`JobScheduler` multiplexes many tenants' jobs onto one
simulated cluster (:class:`~repro.serve.profile.ClusterProfile`).  A job
walks the lifecycle

    queued → admitted → optimizing → executing → done | failed

where *optimizing* runs the paper's compiler pipeline
(:func:`repro.optimizer.build_version`) and *executing* runs the
resulting version through the existing parallel driver
(:func:`repro.parallel.run_version_parallel`) — serving changes nothing
about what a job computes or how its I/O is *accounted*; it changes
**when** the job runs and how long its I/O takes on a **shared**
machine.

Admission control holds a job in its tenant's FIFO queue until the
cluster can take it: enough free compute nodes, the tenant under its
in-flight job cap and its in-flight memory budget.  Which queue goes
next is the :class:`~repro.serve.profile.ServePolicy`'s call — naive
global FIFO (head-of-line blocking included, the baseline the fairness
benchmark beats) or weighted-fair queuing, where the eligible tenant
with the least accrued virtual time is served and a completed job
charges its tenant ``serial_time / weight``.

Contention-aware pricing: an admitted job's per-rank call traces are
replayed as timeline ops on the cluster's **persistent** per-I/O-node
FIFO queues and shared interconnect channel — the exact discipline of
:func:`repro.collective.sim.simulate` (``start = max(arrival, free)``,
FIFO per resource in arrival order), except the queues live across jobs,
so concurrent tenants genuinely collide on them.  A lone job on an idle
cluster reproduces the single-run event simulation; extra tenants only
ever push times later.

Everything is deterministic: the engine draws no randomness (per-job
fault injection is derived from the plan's seed and the job id), events
carry explicit tie-breaking sequence numbers, and tenant iteration is
name-ordered — the same profile, policy and script replay to the same
schedule, stats and report, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ..collective.sim import K_COMPUTE, OpTable, io_ops, nest_ops
from ..faults import FaultConfig, TransientIOError
from ..obs import Observability
from ..obs.report import Column, render_cache_line, render_table, render_tenants
from ..optimizer import build_version
from ..parallel import ParallelRun, run_version_parallel
from ..runtime import IOStats
from ..workloads import build_workload
from .profile import ClusterProfile, JobSpec, ServePolicy, WorkloadScript
from .shared_cache import SharedTileCache

#: job lifecycle states, in order
JOB_STATES = (
    "queued",
    "admitted",
    "optimizing",
    "executing",
    "done",
    "failed",
)

# event-heap priorities at equal timestamps: completions free nodes
# before arrivals are considered, arrivals enqueue before in-flight ops
# are serviced — any fixed order is correct, this one admits eagerly
_EV_COMPLETE, _EV_ARRIVAL, _EV_RANK = 0, 1, 2


@dataclass
class Job:
    """One served request and everything that happened to it."""

    job_id: int
    spec: JobSpec
    state: str = "queued"
    attempts: int = 0
    #: when the job last entered a queue (arrival, or the retry instant)
    enqueued_s: float = 0.0
    admitted_s: float | None = None
    finish_s: float | None = None
    #: total simulated seconds spent waiting in queues (all attempts)
    queue_delay_s: float = 0.0
    #: folded stats of the successful run (``None`` until done)
    stats: IOStats | None = None
    #: served (contention-priced) execution seconds, admission → finish
    service_s: float = 0.0
    error: str | None = None
    cache_hits: int = 0
    cache_saved_s: float = 0.0
    #: admission-control memory footprint (elements, all ranks)
    mem_elements: int = 0
    #: (state, simulated time) transition log
    history: list[tuple[str, float]] = field(default_factory=list)

    def _to(self, state: str, t: float) -> None:
        self.state = state
        self.history.append((state, t))


@dataclass
class TenantSummary:
    """Per-tenant outcome of one scheduler run.  ``stats`` is the exact
    fold of the tenant's completed jobs' :class:`IOStats` — the same
    exactness contract as the obs report's nest table."""

    name: str
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: jobs rejected at arrival (infeasible on this cluster); a subset
    #: of ``failed``
    rejected: int = 0
    retries: int = 0
    queue_delay_s: float = 0.0
    max_queue_delay_s: float = 0.0
    stats: IOStats = field(default_factory=IOStats)

    def to_dict(self) -> dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "retries": self.retries,
            "queue_delay_s": self.queue_delay_s,
            "max_queue_delay_s": self.max_queue_delay_s,
            "stats": self.stats.to_dict(),
        }


@dataclass
class ServeResult:
    """Everything one scheduler run produced, replayable and exact."""

    profile: ClusterProfile
    policy: ServePolicy
    jobs: list[Job]
    makespan_s: float
    #: (simulated time, event, job_id) in processing order; events are
    #: ``submit`` / ``admit`` / ``retry`` / ``done`` / ``failed`` /
    #: ``reject``
    schedule: list[tuple[float, str, int]]
    tenants: dict[str, TenantSummary]
    #: shared-queue contention counters (the serve engine's analogue of
    #: :class:`repro.collective.sim.SimResult`)
    waited_requests: int = 0
    wait_time_s: float = 0.0
    net_busy_s: float = 0.0
    n_events: int = 0
    cache: SharedTileCache | None = None

    @property
    def total_stats(self) -> IOStats:
        """Exact fold over every completed job's stats."""
        return IOStats.fold(
            j.stats for j in self.jobs if j.stats is not None
        )

    def summary_dict(self) -> dict[str, object]:
        """JSON-ready summary for :meth:`repro.obs.Observability
        .note_serve` — the payload the rendered report's tenant section
        reads."""
        out: dict[str, object] = {
            "policy": {
                "fairness": self.policy.fairness,
                "max_job_retries": self.policy.max_job_retries,
            },
            "makespan_s": self.makespan_s,
            "n_jobs": len(self.jobs),
            "waited_requests": self.waited_requests,
            "wait_time_s": self.wait_time_s,
            "tenants": {
                name: s.to_dict() for name, s in sorted(self.tenants.items())
            },
        }
        if self.cache is not None:
            out["cache"] = self.cache.summary_dict()
        return out

    def signature(self) -> tuple:
        """A compact, hashable fingerprint of the schedule — two runs of
        the same scenario must produce equal signatures (the determinism
        contract's test surface)."""
        return tuple(
            (
                j.job_id,
                j.state,
                j.attempts,
                None if j.admitted_s is None else round(j.admitted_s, 9),
                None if j.finish_s is None else round(j.finish_s, 9),
                None if j.stats is None else j.stats.calls,
            )
            for j in self.jobs
        )

    def describe(self) -> str:
        """Human-readable schedule + tenant table (the CLI's output)."""
        lines = render_table(
            None,
            (
                Column("t(s)", 10, ">", ".3f"), Column("event", 7, sep="  "),
                Column("job", 4, ">"), Column("tenant", 12, sep="  "),
                Column("workload", 8),
            ),
            [
                (t, event, jid, self.jobs[jid].spec.tenant,
                 self.jobs[jid].spec.workload)
                for t, event, jid in self.schedule
            ],
            rule=False,
        )
        summary = self.summary_dict()
        lines.append("")
        lines += render_tenants(None, summary["tenants"], (
            "tenant", "jobs", "done", "failed", "retries", "queued_s", "calls",
        ))
        lines.append(
            f"makespan: {self.makespan_s:.3f}s  "
            f"(policy={self.policy.fairness}, "
            f"queue waits {self.waited_requests}, "
            f"{self.wait_time_s:.3f}s)"
        )
        lines += render_cache_line(summary.get("cache"))
        return "\n".join(lines)


@dataclass
class _RunningJob:
    """Engine-side state of an admitted job: per-rank op streams walked
    against the shared resource queues."""

    job: Job
    #: per rank, the :meth:`OpTable.slot_lists` of its timeline
    ops: list[list[list]]
    ptr: list[int]
    clock: list[float]
    ranks_left: int


class JobScheduler:
    """Replay a :class:`WorkloadScript` against a shared cluster.

    ``faults`` (a :class:`repro.faults.FaultConfig`) applies the plan to
    every job with a per-(job, attempt) derived seed, so fault draws are
    independent across jobs yet fully reproducible; a job whose run
    raises :class:`~repro.faults.TransientIOError` is re-queued at its
    *own tenant's* tail up to ``policy.max_job_retries`` times — retries
    never block another tenant's admission.  ``obs`` threads the whole
    run through :mod:`repro.obs`: per-job wall spans, ``serve.*``
    counters, per-tenant queue-delay histograms, virtual-time job spans
    on per-tenant tracks, and the tenant summary in the rendered report.
    """

    def __init__(
        self,
        profile: ClusterProfile,
        policy: ServePolicy | None = None,
        *,
        faults: FaultConfig | None = None,
        obs: Observability | None = None,
    ):
        self.profile = profile
        self.policy = policy or ServePolicy()
        self.faults = faults
        self.obs = obs
        self.cache: SharedTileCache | None = None
        if profile.cache_budget_elements > 0:
            self.cache = SharedTileCache(
                profile.cache_budget_elements,
                {t.name: t.cache_quota_elements for t in profile.tenants},
            )
        # build caches: programs by (workload, n), versions by full key
        self._programs: dict[tuple[str, int], object] = {}
        self._versions: dict[tuple[str, int, str, int], object] = {}

    # -- public entry point --------------------------------------------------

    def run(self, script: WorkloadScript) -> ServeResult:
        profile, policy = self.profile, self.policy
        for spec in script.jobs:
            profile.tenant(spec.tenant)  # raises on unknown tenant

        self._jobs = [Job(i, spec) for i, spec in enumerate(script.jobs)]
        self._schedule: list[tuple[float, str, int]] = []
        self._tenants = {
            t.name: TenantSummary(t.name) for t in profile.tenants
        }
        self._queues: dict[str, list[int]] = {
            t.name: [] for t in profile.tenants
        }
        self._vtime: dict[str, float] = {t.name: 0.0 for t in profile.tenants}
        self._inflight: dict[str, int] = {t.name: 0 for t in profile.tenants}
        self._inflight_mem: dict[str, int] = {
            t.name: 0 for t in profile.tenants
        }
        self._free_nodes = profile.n_compute_nodes
        self._running: dict[int, _RunningJob] = {}
        self._base_seed = script.seed

        # the shared machine: persistent free times and busy totals per
        # resource slot (OpTable.slot_lists; the last is the channel)
        self._free = [0.0] * (profile.params.n_io_nodes + 1)
        self._busy = [0.0] * (profile.params.n_io_nodes + 1)
        self._waited = 0
        self._wait_time = 0.0
        self._n_events = 0

        heap: list[tuple[float, int, int, tuple]] = []
        self._heap = heap
        self._seq = 0
        for job in self._jobs:
            self._push(job.spec.arrival_s, _EV_ARRIVAL, ("arrival", job.job_id))

        while heap:
            t, _prio, _seq, payload = heapq.heappop(heap)
            kind = payload[0]
            if kind == "arrival":
                self._on_arrival(t, self._jobs[payload[1]])
            elif kind == "complete":
                self._on_complete(t, payload[1])
            else:  # "rank"
                self._on_rank_op(t, payload[1], payload[2])

        makespan = max(
            (j.finish_s for j in self._jobs if j.finish_s is not None),
            default=0.0,
        )
        result = ServeResult(
            profile,
            policy,
            self._jobs,
            makespan,
            self._schedule,
            self._tenants,
            waited_requests=self._waited,
            wait_time_s=self._wait_time,
            net_busy_s=self._busy[-1],
            n_events=self._n_events,
            cache=self.cache,
        )
        obs = self.obs
        if obs is not None:
            if obs.config.metrics and self.cache is not None:
                self.cache.publish_metrics(obs.metrics)
            obs.note_serve(result.summary_dict())
        return result

    # -- event handlers ------------------------------------------------------

    def _push(self, t: float, prio: int, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, prio, self._seq, payload))

    def _log(self, t: float, event: str, job_id: int) -> None:
        self._schedule.append((t, event, job_id))

    def _count(self, name: str, **labels) -> None:
        obs = self.obs
        if obs is not None and obs.config.metrics:
            obs.metrics.counter(f"serve.{name}", **labels).inc()

    def _on_arrival(self, t: float, job: Job) -> None:
        spec = job.spec
        summary = self._tenants[spec.tenant]
        summary.submitted += 1
        self._count("jobs_submitted", tenant=spec.tenant)
        self._log(t, "submit", job.job_id)
        error = self._feasibility_error(spec)
        if error is not None:
            job.error = error
            job._to("failed", t)
            job.finish_s = t
            summary.failed += 1
            summary.rejected += 1
            self._count("jobs_rejected", tenant=spec.tenant)
            self._log(t, "reject", job.job_id)
            return
        job.enqueued_s = t
        job._to("queued", t)
        self._queues[spec.tenant].append(job.job_id)
        self._try_admit(t)

    def _feasibility_error(self, spec: JobSpec) -> str | None:
        """A job no admission could ever satisfy is rejected at arrival
        with a named reason rather than queued forever."""
        profile = self.profile
        if spec.n_nodes > profile.n_compute_nodes:
            return (
                f"job wants {spec.n_nodes} nodes; the cluster has "
                f"{profile.n_compute_nodes}"
            )
        try:
            program = self._program(spec)
        except (KeyError, ValueError) as e:
            return f"workload {spec.workload!r} failed to build: {e}"
        tenant = profile.tenant(spec.tenant)
        mem = self._job_memory(spec, program)
        if (
            tenant.memory_budget_elements is not None
            and mem > tenant.memory_budget_elements
        ):
            return (
                f"job needs {mem} elements of memory; tenant "
                f"{spec.tenant!r} is budgeted "
                f"{tenant.memory_budget_elements}"
            )
        return None

    def _on_complete(self, t: float, job_id: int) -> None:
        job = self._jobs[job_id]
        spec = job.spec
        del self._running[job_id]
        self._free_nodes += spec.n_nodes
        self._inflight[spec.tenant] -= 1
        self._inflight_mem[spec.tenant] -= job.mem_elements
        job.finish_s = t
        job.service_s = t - job.admitted_s
        job._to("done", t)
        summary = self._tenants[spec.tenant]
        summary.completed += 1
        summary.stats = summary.stats.merge(job.stats)
        self._count("jobs_completed", tenant=spec.tenant)
        self._log(t, "done", job.job_id)
        obs = self.obs
        if obs is not None:
            track = f"tenant {spec.tenant}"
            obs.tracer.add_virtual_span(
                f"job {job.job_id} {spec.workload}",
                job.admitted_s,
                t - job.admitted_s,
                track=track,
                cat="serve.job",
                job=job.job_id,
                calls=job.stats.calls,
            )
        self._try_admit(t)

    def _on_rank_op(self, t: float, job_id: int, rank: int) -> None:
        """Service one rank's next blocking op on the shared queues —
        :func:`repro.collective.sim.simulate`'s discipline, with the
        resource-free times persistent across jobs."""
        jr = self._running[job_id]
        _, slot, seconds, _ = jr.ops[rank]
        j = jr.ptr[rank]
        res, service_s = slot[j], seconds[j]
        start = max(t, self._free[res])
        done = start + service_s
        self._free[res] = done
        self._busy[res] += service_s
        if start > t:
            self._waited += 1
            self._wait_time += start - t
        obs = self.obs
        if obs is not None and obs.config.metrics:
            obs.metrics.histogram("serve.sim_queue_wait_us").observe(
                (start - t) * 1e6
            )
        self._n_events += 1
        jr.ptr[rank] += 1
        jr.clock[rank] = done
        self._advance_rank(jr, rank)

    def _advance_rank(self, jr: _RunningJob, rank: int) -> None:
        """Walk the rank past compute ops; queue its next blocking op or
        retire the rank (and, with the last rank, the job)."""
        kind, _, seconds, _ = jr.ops[rank]
        j, t = jr.ptr[rank], jr.clock[rank]
        while j < len(kind) and kind[j] == K_COMPUTE:
            t += seconds[j]
            j += 1
        jr.ptr[rank], jr.clock[rank] = j, t
        if j < len(kind):
            self._push(t, _EV_RANK, ("rank", jr.job.job_id, rank))
            return
        jr.ranks_left -= 1
        if jr.ranks_left == 0:
            self._push(max(jr.clock), _EV_COMPLETE, ("complete", jr.job.job_id))

    # -- admission -----------------------------------------------------------

    def _fits(self, job: Job) -> bool:
        spec = job.spec
        if spec.n_nodes > self._free_nodes:
            return False
        tenant = self.profile.tenant(spec.tenant)
        if (
            tenant.max_inflight is not None
            and self._inflight[spec.tenant] >= tenant.max_inflight
        ):
            return False
        if tenant.memory_budget_elements is not None:
            mem = self._job_memory(spec, self._program(spec))
            if (
                self._inflight_mem[spec.tenant] + mem
                > tenant.memory_budget_elements
            ):
                return False
        return True

    def _try_admit(self, t: float) -> None:
        """Admit as many queued jobs as the policy and the free resources
        allow, at simulated time ``t``."""
        while True:
            job_id = self._pick(t)
            if job_id is None:
                return
            self._queues[self._jobs[job_id].spec.tenant].remove(job_id)
            self._admit(t, self._jobs[job_id])

    def _pick(self, t: float) -> int | None:
        queues = self._queues
        if self.policy.fairness == "fifo":
            # naive global FIFO: strictly earliest-queued job next, and
            # strict head-of-line blocking when it does not fit
            heads = [
                (self._jobs[q[0]].enqueued_s, q[0])
                for q in queues.values()
                if q
            ]
            if not heads:
                return None
            job_id = min(heads)[1]
            return job_id if self._fits(self._jobs[job_id]) else None
        # weighted-fair: eligible tenant with the least virtual time is
        # served; a tenant whose head does not fit is skipped, so one
        # tenant's oversized head never blocks the others
        order = sorted(
            (self._vtime[name], name)
            for name, q in queues.items()
            if q
        )
        for _vt, name in order:
            job = self._jobs[queues[name][0]]
            if self._fits(job):
                return job.job_id
        return None

    def _admit(self, t: float, job: Job) -> None:
        spec = job.spec
        tenant = self.profile.tenant(spec.tenant)
        delay = t - job.enqueued_s
        job.queue_delay_s += delay
        job.admitted_s = t
        job.attempts += 1
        job._to("admitted", t)
        summary = self._tenants[spec.tenant]
        summary.queue_delay_s += delay
        summary.max_queue_delay_s = max(summary.max_queue_delay_s, delay)
        self._count("jobs_admitted", tenant=spec.tenant)
        self._log(t, "admit", job.job_id)
        obs = self.obs
        if obs is not None:
            if obs.config.metrics:
                obs.metrics.histogram(
                    "serve.queue_delay_us", tenant=spec.tenant
                ).observe(delay * 1e6)
            obs.tracer.add_virtual_span(
                f"job {job.job_id} queued",
                job.enqueued_s,
                delay,
                track=f"tenant {spec.tenant}",
                cat="serve.queued",
                job=job.job_id,
            )

        run = self._execute(t, job)
        if run is None:  # faulted out; _execute handled re-queue / fail
            return

        # the job is on the cluster: reserve its resources and charge
        # its tenant's virtual time with the run's serial service
        program = self._program(spec)
        job.mem_elements = self._job_memory(spec, program)
        self._free_nodes -= spec.n_nodes
        self._inflight[spec.tenant] += 1
        self._inflight_mem[spec.tenant] += job.mem_elements
        job.stats = run.total_stats
        self._vtime[spec.tenant] += (
            run.total_stats.total_time_s / tenant.weight
        )
        jr = _RunningJob(
            job,
            self._rank_ops(job, run),
            ptr=[0] * run.n_nodes,
            clock=[t] * run.n_nodes,
            ranks_left=run.n_nodes,
        )
        self._running[job.job_id] = jr
        job._to("executing", t)
        for rank in range(run.n_nodes):
            self._advance_rank(jr, rank)

    # -- the per-job pipeline ------------------------------------------------

    def _program(self, spec: JobSpec):
        key = (spec.workload, spec.n)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = build_workload(*key)
        return program

    def _version(self, spec: JobSpec):
        key = (spec.workload, spec.n, spec.version, spec.n_nodes)
        cfg = self._versions.get(key)
        if cfg is None:
            cfg = self._versions[key] = build_version(
                spec.version,
                self._program(spec),
                params=self.profile.params,
                n_nodes=spec.n_nodes,
            )
        return cfg

    def _job_memory(self, spec: JobSpec, program) -> int:
        """The admission-control footprint: every rank gets the same
        default budget :func:`repro.parallel.run_version_parallel`
        computes (the paper's memory fraction of the program's data)."""
        total = program.total_elements(program.binding(None))
        return spec.n_nodes * self.profile.params.memory_budget(total)

    def _job_faults(self, job: Job) -> FaultConfig | None:
        """Per-(job, attempt) fault derivation: same plan and policy,
        seed offset so jobs (and retry attempts) draw independently yet
        reproducibly."""
        if self.faults is None:
            return None
        plan = self.faults.plan
        seed = (
            plan.seed
            + self._base_seed
            + 997 * job.job_id
            + 7919 * (job.attempts - 1)
        )
        return FaultConfig(
            dc_replace(plan, seed=seed), self.faults.policy
        )

    def _execute(self, t: float, job: Job) -> ParallelRun | None:
        """Run optimize → execute for an admitted job (the wall-clock
        work happens here; it occupies zero *simulated* time — the
        simulated cost is the op replay on the shared queues).  Returns
        ``None`` after handling a fault-aborted attempt."""
        spec = job.spec
        obs = self.obs
        job._to("optimizing", t)
        if obs is not None and obs.config.wall_time:
            span = obs.tracer.begin(
                f"serve job {job.job_id}",
                "serve",
                tenant=spec.tenant,
                workload=spec.workload,
                attempt=job.attempts,
            )
        else:
            span = None
        try:
            cfg = self._version(spec)
            try:
                return run_version_parallel(
                    cfg,
                    spec.n_nodes,
                    params=self.profile.params,
                    faults=self._job_faults(job),
                    trace=True,
                )
            except TransientIOError as e:
                self._on_attempt_failed(t, job, e)
                return None
        finally:
            if span is not None:
                obs.tracer.end(span)

    def _on_attempt_failed(
        self, t: float, job: Job, error: TransientIOError
    ) -> None:
        """A fault took the attempt down before it produced a run.  The
        failure is detected immediately in simulated time (the attempt's
        partial progress is not modeled); within the retry budget the
        job re-enters its own tenant's queue tail — other tenants'
        admission is untouched."""
        spec = job.spec
        summary = self._tenants[spec.tenant]
        if job.attempts <= self.policy.max_job_retries:
            summary.retries += 1
            self._count("jobs_retried", tenant=spec.tenant)
            self._log(t, "retry", job.job_id)
            job.enqueued_s = t
            job._to("queued", t)
            self._queues[spec.tenant].append(job.job_id)
            return
        job.error = (
            f"fault-injected failure on io node {error.io_node} "
            f"(op {error.op_index}) after {job.attempts} attempt(s)"
        )
        job.finish_s = t
        job._to("failed", t)
        summary.failed += 1
        self._count("jobs_failed", tenant=spec.tenant)
        self._log(t, "failed", job.job_id)

    # -- contention-priced op streams ---------------------------------------

    def _rank_ops(self, job: Job, run: ParallelRun) -> list[list[list]]:
        """Per-rank timeline ops of a completed inner run.

        Without a shared cache this is exactly
        :func:`repro.collective.sim.nest_ops` per rank — a lone served
        job replays the standalone event simulation.  With the cache,
        read calls are filtered through the tenant's partition at
        admission time (in admission order, hence deterministically): a
        hit drops the I/O op from the timeline (the saved service is the
        hit's worth), a miss emits the op and caches the tile, a write
        emits the op and invalidates what it overlaps.  Accounting
        (:class:`IOStats`) is never touched — the cache changes served
        *time*, not the paper's I/O counters.
        """
        params = self.profile.params
        return [
            OpTable.concat(
                nest_ops(params, nr, self._cache_mask(job, nr))
                for nr in rr.nest_runs
            ).slot_lists(params.n_io_nodes)
            for rr in run.node_results
        ]

    def _cache_mask(self, job: Job, nest_run) -> np.ndarray | None:
        """The shared tile cache as a ``nest_ops`` keep-mask: one entry
        per traced call per repetition, false where the cache hit
        (``None``, keep everything, without a cache).  The one per-call
        loop of the re-pricing path — a lookup's outcome depends on
        every insert and invalidation before it.

        Tile keys are ``workload:n:file_base`` + (repetition, run)
        regions: repetitions of a weighted trace model *different* rows
        of the same walk, so they do not self-hit within a job, while a
        later job replaying the same workload at the same size hits the
        same keys — cross-job (and cross-tenant-namespace) reuse, which
        is the shared cache's whole purpose.
        """
        cache = self.cache
        if cache is None:
            return None
        spec = job.spec
        t = nest_run.trace
        bases, offsets, lengths, writes = t.lists()
        names = {b: f"{spec.workload}:{spec.n}:{b}" for b in set(bases)}
        seconds = io_ops(self.profile.params, t).seconds.tolist()
        calls = [
            (names[b], (off, off + ln - 1), w, s)
            for b, off, ln, w, s in zip(bases, offsets, lengths, writes, seconds)
        ]
        keep = []
        for rep in range(max(1, nest_run.trace_weight)):
            for name, span, is_write, service_s in calls:
                region = ((rep, rep), span)
                hit = False
                if is_write:
                    cache.invalidate(spec.tenant, name, region)
                elif cache.lookup(spec.tenant, name, region) is not None:
                    hit = True
                    job.cache_hits += 1
                    job.cache_saved_s += service_s
                else:
                    cache.insert(spec.tenant, name, region, cost_s=service_s)
                keep.append(not hit)
        return np.array(keep, dtype=bool)


def serve_script(
    profile: ClusterProfile,
    script: WorkloadScript,
    policy: ServePolicy | None = None,
    *,
    faults: FaultConfig | None = None,
    obs: Observability | None = None,
) -> ServeResult:
    """One-call convenience: build a scheduler and replay the script."""
    return JobScheduler(profile, policy, faults=faults, obs=obs).run(script)
