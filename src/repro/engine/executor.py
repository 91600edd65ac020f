"""The out-of-core executor: tile loops around read / compute / write-back.

Executes one compute node's share of a program against the simulated
parallel file system, with exact I/O accounting.  Used directly for the
single-node experiments; :mod:`repro.parallel` makes one per SPMD node
and :func:`run_ranks` walks a nest on all of them at once.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace as dc_replace
from itertools import islice
from typing import Callable, Mapping, Sequence

import numpy as np

from ..backends import BackendMetrics, StorageBackend, resolve_backend
from ..cache import (
    CacheConfig,
    CacheMetrics,
    DoubleBufferModel,
    PrefetchScheduler,
    TileCache,
    make_policy,
)
from ..cache.tile_cache import CacheEntry
from ..dependence import DependenceEdge
from ..faults import FaultConfig, FaultInjector
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..layout import Layout, row_major
from ..obs import Observability, nest_records
from ..obs import profile as _prof
from ..obs.profile import ProfileConfig, ProfileResult
from ..runtime import (
    IOContext,
    IOStats,
    MachineParams,
    MemoryBudgetExceeded,
    MemoryManager,
    ParallelFileSystem,
)
from ..runtime.chunked import (  # noqa: F401 (the specs are imported from here)
    InterleavedStoreSpec, LinearStoreSpec, StoreSpec, open_stores,
)
from ..runtime.ooc_array import LinearStore, Region, region_size, runs_of
from ..runtime.stats import CallTable, plan_runs
from ..transforms.tiling import TilingSpec, ooc_tiling
from .interpreter import (
    BulkKernel,
    initial_arrays,
    run_element_loops,
    run_element_loops_vectorized,
)
from .plan import NestPlan, TileSpace, plan_nest, program_edges


@dataclass
class NestRun:
    nest_name: str
    plan: NestPlan
    stats: IOStats
    tiles_executed: int
    #: the nest's I/O calls in issue order, a
    #: :class:`~repro.runtime.stats.CallTable` (a list of row tuples is
    #: coerced), recorded when the executor was built with ``trace=True``.
    #: In simulate mode a weighted nest is traced once and ``trace_weight``
    #: carries the repetition count; executed repetitions concatenate.
    trace: CallTable | None = None
    trace_weight: int = 1

    def __post_init__(self):
        if self.trace is not None:
            self.trace = CallTable.of(self.trace)


@dataclass
class RunResult:
    stats: IOStats
    io_node_load: np.ndarray
    nest_runs: list[NestRun]
    peak_memory: int
    over_budget_tiles: int = 0
    cache_metrics: CacheMetrics | None = None
    #: measured transfer counters (ops / bytes / wall seconds) when the
    #: run used a measuring backend (mmap / chunked / object store);
    #: ``None`` for the in-memory and simulate-only defaults
    backend_metrics: BackendMetrics | None = None
    #: layer table + deterministic work delta when the executor ran
    #: with ``profile=ProfileConfig(...)``; ``None`` otherwise
    profile: ProfileResult | None = None

    @property
    def serial_time_s(self) -> float:
        return self.stats.total_time_s

    @property
    def overlapped_time_s(self) -> float:
        """Estimated wall time with double-buffered prefetch: the serial
        time minus the prefetch I/O the cost model hides under compute."""
        saved = (
            self.cache_metrics.overlapped_io_s
            if self.cache_metrics is not None
            else 0.0
        )
        return self.stats.total_time_s - saved


#: runs per recorder batch of a statically priced walk: bounds the batch's
#: scratch memory and nothing else (the result does not depend on it)
_BATCH_RUNS = 4096


def _by_store(stores: Mapping[str, object], requests):
    """Group per-array requests (tuples led by the array name) by the
    store that serves them, in first-seen order: ``(store, requests)``
    pairs, one combined transfer each."""
    groups: dict[int, tuple[object, list]] = {}
    for req in requests:
        store = stores[req[0]]
        groups.setdefault(id(store), (store, []))[1].append(req)
    return groups.values()


def _record(batch: list) -> int:
    """Record a rank's batch — a ``(ctx, is_write, file base, offsets,
    lengths)`` segment per transfer — and empty it: it then holds 0 runs."""
    ctxs, is_writes, bases, offsets, lengths = zip(*batch)
    batch.clear()
    ctxs[0].record_runs(
        bases, np.concatenate(offsets), np.concatenate(lengths),
        is_writes, [o.size for o in offsets],
    )
    return 0


class _DirectTileIO:
    """The tile walk's I/O collaborator when no cache is configured:
    every tile moves straight between memory and the stores.
    :class:`_CachedTileIO` overrides each hook, so "cache off" is the
    absence of that subclass, not a second walker."""

    cache: TileCache | None = None

    def __init__(self, stores: Mapping[str, object]):
        self._stores = stores

    def begin_nest(self, tiles):
        return tiles

    def account(self, walk, tracer=None, of=""):
        """Record what :meth:`read` and :meth:`write` would account tile
        after tile of ``walk`` — every rank's tiles in turn, ``(ctx,
        file-base shift, tile)`` — moving nothing, and yield the tiles
        back.  These stores answer for all ranks (a rank's files are
        these, ``shift`` elements on), a block of tiles at a time; a
        rank's last batch is recorded by the time the next rank's tiles
        (or none) are handed out."""
        walk = iter(walk)
        batch, step = [], 1
        while block := list(islice(walk, step)):
            span = tracer and tracer.begin(f"derive {of}", "execute", tiles=len(block))
            derived = self._derive(block, batch)
            if span:
                tracer.end(span, runs=derived)
            # the next block: `_BATCH_RUNS` runs at this one's density,
            # but eight times its tiles at most (one light tile) and 32
            # runs a tile at least (the objects describing light tiles)
            tiles = len(block)
            step = min(
                8 * tiles, max(1, tiles * _BATCH_RUNS // max(derived, 32 * tiles))
            )
            yield from block
        if batch:
            _record(batch)

    def _derive(self, block, batch: list) -> int:
        """Put a block's transfers on ``batch`` in issue order, each
        store deriving its own at once (``transfer_runs``); about
        ``_BATCH_RUNS`` runs, or a rank's last, are recorded.  Returns
        the runs derived."""
        groups = [
            (ctx, shift, store, is_write, reqs)
            for ctx, shift, (_, fps, reads) in block
            for is_write, requests in (
                (False, reads),
                (True, [(a, fp[0]) for a, fp in fps.items() if fp[2]]),
            )
            for store, reqs in _by_store(self._stores, requests)
        ]
        asked: dict[int, tuple[object, list]] = {}
        for _, _, store, _, reqs in groups:
            asked.setdefault(id(store), (store, []))[1].append(reqs)
        answers = {
            key: iter(store.transfer_runs(of_store))
            for key, (store, of_store) in asked.items()
        }
        derived, n_runs = 0, sum(row[3].size for row in batch)
        for ctx, shift, store, is_write, _ in groups:
            if batch and ctx is not batch[0][0]:
                n_runs = _record(batch)
            for base, offsets, lengths in next(answers[id(store)]):
                batch.append((ctx, is_write, base + shift, offsets, lengths))
                n_runs += offsets.size
                derived += offsets.size
                if n_runs >= _BATCH_RUNS:
                    n_runs = _record(batch)
        return derived

    def read(self, requests, ctx: IOContext | None) -> dict[str, np.ndarray | None]:
        """Read ``(name, region)`` tiles, one combined transfer per
        store; data per array name (``None`` in simulate mode).  Without
        a ``ctx`` only data moves: :meth:`account` has recorded the walk."""
        tiles_data: dict[str, np.ndarray | None] = {}
        for store, reqs in _by_store(self._stores, requests):
            tiles_data.update(
                store.load_tiles(reqs) if ctx is None
                else store.read_tiles(reqs, ctx)
            )
        return tiles_data

    def write(self, requests, ctx: IOContext | None) -> None:
        """Write ``(name, region, data)`` tiles back, one combined
        transfer per store (``ctx`` as for :meth:`read`)."""
        for store, reqs in _by_store(self._stores, requests):
            if ctx is None:
                store.store_tiles(reqs)
            else:
                store.write_tiles(reqs, ctx)

    def after_tile(self, t: int, compute_s: float, ctx: IOContext) -> None:
        pass

    def end_nest(self, ctx: IOContext) -> None:
        pass


class _CachedTileIO(_DirectTileIO):
    """Tile I/O with the tile cache (:mod:`repro.cache`) between the
    walk and the stores.

    Reads consult the cache first (hits skip the file and record saved
    calls/volume), writes go write-back or write-through per the config,
    the prefetcher fetches upcoming tiles of the statically known walk,
    and all dirty tiles are flushed at the nest boundary — clean data
    stays resident, which is what enables cross-nest reuse.
    """

    def __init__(
        self,
        stores: Mapping[str, object],
        params: MachineParams,
        cfg: CacheConfig,
        cache: TileCache,
    ):
        super().__init__(stores)
        self.params = params
        self.cache = cache
        self._write_back = cfg.write_back
        self._prefetcher: PrefetchScheduler | None = None
        self._overlap: DoubleBufferModel | None = None
        if cfg.prefetch:
            self._prefetcher = PrefetchScheduler(cfg.prefetch_depth)
            self._overlap = DoubleBufferModel(cache.metrics)

    def begin_nest(self, tiles):
        # the tile-space walk is static: enumerate it up front so the
        # prefetcher knows every upcoming read set
        tiles = list(tiles)
        if self._prefetcher is not None:
            self._prefetcher.begin_nest([reads for _, _, reads in tiles])
        return tiles

    def after_tile(self, t: int, compute_s: float, ctx: IOContext) -> None:
        if self._prefetcher is not None:
            prefetch_io = self._prefetch_tiles(
                self._prefetcher.requests_after(t), ctx
            )
            self._overlap.note_tile(compute_s, prefetch_io)

    def end_nest(self, ctx: IOContext) -> None:
        # nest boundary: dirty tiles land on disk; clean data stays
        # resident for the next nest (or weight repetition)
        self._write_entries(self.cache.flush_all(), ctx)

    def read(self, requests, ctx: IOContext) -> dict[str, np.ndarray | None]:
        cache = self.cache
        tiles_data: dict[str, np.ndarray | None] = {}
        misses: list[tuple[str, Region]] = []
        for name, region in requests:
            resident = cache.peek(name, region)
            prefetch_first_use = resident is not None and resident.prefetched
            entry = cache.lookup(name, region)
            if entry is not None:
                tiles_data[name] = (
                    None if entry.data is None else entry.data.copy()
                )
                # a prefetched tile's first use is prepaid I/O, not
                # avoided I/O — only genuine reuse counts as savings
                if not prefetch_first_use:
                    calls, elems = self._stores[name].estimate_read(
                        name, region, self.params
                    )
                    cache.metrics.read_calls_saved += calls
                    cache.metrics.elements_saved += elems
            else:
                store = self._stores[name]
                if isinstance(store, LinearStore):
                    # linear stores can read partial regions: serve
                    # whatever overlapping resident tiles cover and
                    # fetch only the remainder
                    tiles_data[name] = self._fetch_linear(
                        store, name, region, ctx
                    )
                    continue
                # interleaved stores transfer whole chunks — exact hits
                # only; overlapping dirty data must reach the file
                # before we read the region from it
                self._write_entries(
                    cache.flush_overlapping(name, region), ctx
                )
                misses.append((name, region))
        for store, reqs in _by_store(self._stores, misses):
            got = store.read_tiles(reqs, ctx)
            for name, region in reqs:
                tiles_data[name] = got[name]
                self._cache_insert(name, region, got[name], ctx)
        return tiles_data

    def _fetch_linear(
        self,
        store: LinearStore,
        name: str,
        region: Region,
        ctx: IOContext,
        *,
        prefetched: bool = False,
    ) -> np.ndarray | None:
        """Read one linear-store region through the cache's coverage map.

        Consecutive tiles of the walk overlap (stencil halos, growing
        bounding-box hulls), so the dominant reuse is *partial*: resident
        tiles cover part of the region and only the uncovered remainder
        needs the file.  Punching holes in a contiguous run can increase
        the call count, so the remainder is priced against the full read
        with the exact run planning and only taken when cheaper."""
        cache = self.cache
        arr = store.arrays[name]
        p = self.params
        cov = cache.coverage(name, region)
        if cov is not None:
            mask, entries = cov
            addrs = arr.addresses(region)
            f_off, f_len = plan_runs(p, *runs_of(addrs))
            need = addrs[~mask.ravel()]
            r_off, r_len = plan_runs(p, *runs_of(need))
            t_full = p.batch_time(f_off.size, int(f_len.sum()))
            t_rem = p.batch_time(r_off.size, int(r_len.sum()))
            if t_rem < t_full:
                data = arr.read_tile_partial(region, mask, ctx)
                if data is not None:
                    cache.fill_from(data, region, entries)
                m = cache.metrics
                if not prefetched:
                    m.partial_hits += 1
                m.read_calls_saved += int(f_off.size) - int(r_off.size)
                m.elements_saved += int(f_len.sum()) - int(r_len.sum())
                self._cache_insert(name, region, data, ctx, prefetched=prefetched)
                return data
            # not worth splitting the runs: read the whole region — the
            # dirty overlaps must land on the file first
            self._write_entries(cache.flush_overlapping(name, region), ctx)
        data = arr.read_tile(region, ctx)
        self._cache_insert(name, region, data, ctx, prefetched=prefetched)
        return data

    def write(self, writes, ctx: IOContext) -> None:
        cache = self.cache
        for name, region, _ in writes:
            # older dirty overlaps must land first (they own cells outside
            # this region); then drop now-stale overlapping entries
            self._write_entries(
                cache.flush_overlapping(name, region, exclude_exact=True), ctx
            )
            cache.invalidate_overlapping(name, region, exclude_exact=True)
        if self._write_back:
            direct: list[tuple[str, Region, np.ndarray | None]] = []
            for name, region, data in writes:
                if not self._cache_insert(name, region, data, ctx, dirty=True):
                    direct.append((name, region, data))
            super().write(direct, ctx)
        else:
            super().write(writes, ctx)
            for name, region, data in writes:
                self._cache_insert(name, region, data, ctx)

    def _prefetch_tiles(
        self, requests: list[tuple[str, Region]], ctx: IOContext
    ) -> float:
        """Fetch upcoming tiles into the cache; returns the serial I/O
        seconds spent (the overlap model decides how much of that a
        second buffer would hide)."""
        cache = self.cache
        io_before = ctx.stats.io_time_s
        misses: list[tuple[str, Region]] = []
        for name, region in requests:
            if cache.peek(name, region) is not None or not cache.fits(region):
                continue
            store = self._stores[name]
            if isinstance(store, LinearStore):
                self._fetch_linear(store, name, region, ctx, prefetched=True)
                cache.metrics.prefetch_issued += 1
                continue
            self._write_entries(cache.flush_overlapping(name, region), ctx)
            misses.append((name, region))
        for store, reqs in _by_store(self._stores, misses):
            got = store.read_tiles(reqs, ctx)
            for name, region in reqs:
                self._cache_insert(name, region, got[name], ctx, prefetched=True)
                cache.metrics.prefetch_issued += 1
        return ctx.stats.io_time_s - io_before

    def _cache_insert(
        self,
        name: str,
        region: Region,
        data: np.ndarray | None,
        ctx: IOContext,
        *,
        dirty: bool = False,
        prefetched: bool = False,
    ) -> bool:
        """Offer a tile to the cache; returns whether it became resident
        (a declined *dirty* tile must be written directly by the caller)."""
        cache = self.cache
        if not cache.fits(region):
            return False
        cost_s = 0.0
        if cache.policy.uses_cost:
            cost_s = self.params.batch_time(
                *self._stores[name].estimate_read(name, region, self.params)
            )
        accepted, evicted = cache.insert(
            name, region, data,
            dirty=dirty, prefetched=prefetched, cost_s=cost_s,
        )
        # evicted dirty tiles must be written back through the stores
        self._write_entries(evicted, ctx)
        return accepted

    def _write_entries(
        self, entries: list[CacheEntry], ctx: IOContext
    ) -> None:
        super().write([(e.name, e.region, e.data) for e in entries], ctx)


def plan_program(
    program: Program,
    tiling: Callable[[LoopNest], TilingSpec] | Mapping[str, TilingSpec],
    budget: int,
    binding: Mapping[str, int],
    shapes: Mapping[str, tuple[int, ...]],
    *,
    tile_sizes: Mapping[str, int] | None = None,
    edges: Mapping[str, list[DependenceEdge]] | None = None,
) -> dict[str, NestPlan]:
    """A run's one planning step: every nest's :class:`NestPlan` by name.

    Nothing here depends on the SPMD rank, so the first executor of a
    run plans and the others are made from it (``for_rank``).  ``tile_sizes``
    forces block sizes (a nest left out keeps the planner's
    binary-search choice); ``edges`` are known dependence edges per
    nest.  A ``tile_sizes`` key naming no nest, a ``tiling`` mapping
    lacking a nest and a spec of the wrong depth are ``ValueError``s.
    """
    names = [nest.name for nest in program.nests]
    tile_sizes, edges = tile_sizes or {}, edges or {}
    for key in tile_sizes:
        if key not in names:
            raise ValueError(
                f"tile_sizes names nest {key!r}, but program "
                f"{program.name!r} has nests {names}"
            )
    plans: dict[str, NestPlan] = {}
    for nest in program.nests:
        if callable(tiling):
            spec = tiling(nest)
        elif nest.name in tiling:
            spec = tiling[nest.name]
        else:
            raise ValueError(
                f"tiling has no spec for nest {nest.name!r} "
                f"(specs given for {sorted(tiling)})"
            )
        plans[nest.name] = plan_nest(
            nest, spec, budget, binding, shapes,
            edges=edges.get(nest.name),
            force_block=tile_sizes.get(nest.name),
        )
    return plans


class OOCExecutor:
    """Runs a program out of core under given file layouts and tiling.

    Parameters
    ----------
    program:
        normalized program (perfect nests only).
    layouts:
        file layout per array (default row-major), or full store specs
        via ``storage_spec`` for chunked/interleaved files.
    tiling:
        per-nest :class:`TilingSpec` factory (default: the paper's
        all-but-innermost rule).
    backend:
        where array bytes live (:mod:`repro.backends`): a
        :class:`~repro.backends.StorageBackend` instance or a kind
        string (``"memory"``, the default, ``"simulate"`` for accounting
        only, ``"mmap"``, ``"chunked"``, ``"object"``).  A data-carrying
        backend moves actual data and interprets the element loops
        (small sizes / verification).  Accounted ``IOStats`` are
        identical for every data-carrying backend; measuring backends
        additionally report :class:`~repro.backends.BackendMetrics`.
    dtype:
        element dtype carried by the backend files (default float64).
    plans:
        another executor's :attr:`plans`, used instead of planning from
        ``tiling``/``tile_sizes``.  ``None`` plans here, at construction.
    edges:
        known dependence edges per nest name (``VersionConfig.edges``);
        a nest left out is analysed when first needed.
    """

    def __init__(
        self,
        program: Program,
        layouts: Mapping[str, Layout] | None = None,
        *,
        params: MachineParams | None = None,
        binding: Mapping[str, int] | None = None,
        memory_budget: int | None = None,
        backend: StorageBackend | str | None = None,
        dtype=None,
        tiling: Callable[[LoopNest], TilingSpec] | Mapping[str, TilingSpec] = ooc_tiling,
        storage_spec: Mapping[str, StoreSpec] | None = None,
        initial: Mapping[str, np.ndarray] | None = None,
        pfs: ParallelFileSystem | None = None,
        node_slice: tuple[int, int] | None = None,
        vectorize: bool = True,
        tile_sizes: Mapping[str, int] | None = None,
        cache: CacheConfig | None = None,
        trace: bool = False,
        obs: Observability | None = None,
        faults: FaultConfig | None = None,
        profile: ProfileConfig | None = None,
        plans: Mapping[str, NestPlan] | None = None,
        edges: Mapping[str, list[DependenceEdge]] | None = None,
    ):
        # observability (repro.obs): spans, metrics and per-nest I/O
        # records.  With obs=None (the default) no instrumentation path
        # is taken and accounting is bit-identical to pre-obs behavior.
        # Per-array attribution needs the call trace, so an enabled obs
        # turns tracing on (stats are unaffected by tracing).
        self._obs = obs
        self._trace = trace or (
            self._obs is not None and self._obs.config.per_array
        )
        # profiling (repro.obs.profile): each run() owns a fresh capture,
        # finished into RunResult.profile.  None (the default) profiles
        # nothing.
        self._profile = profile
        self._faults = faults
        self.program = program
        self.params = params or MachineParams()
        self.binding = program.binding(binding)
        # the backend decides whether data moves (real) or only
        # accounting runs (None ⇒ in-memory)
        backend = resolve_backend(backend)
        self.real = backend.real
        self._dtype = dtype
        self.shapes = {
            a.name: a.shape(self.binding) for a in program.arrays
        }
        self.memory_budget = self.params.memory_budget(
            program.total_elements(self.binding), memory_budget
        )
        # tile cache + prefetch (repro.cache); the cache budget is carved
        # out of the memory budget, so resident cache tiles plus in-flight
        # compute tiles together stay under the per-node budget and the
        # planner sizes tiles against the remainder only
        cache_budget = 0
        if cache is not None:
            cache_budget = cache.resolve_budget(self.memory_budget)
            if cache_budget >= self.memory_budget:
                raise ValueError(
                    f"cache budget {cache_budget} must leave memory for "
                    f"compute tiles (budget {self.memory_budget})"
                )
        # real-mode fast path: a nest with dependence-free loop levels is
        # compiled once into a bulk kernel (scalar fallback otherwise);
        # that needs every nest's edges, which the planner then shares
        self._kernels: dict[str, BulkKernel | None] = {}
        if self.real and vectorize:
            edges = program_edges(program, edges)
            for nest in program.nests:
                self._kernels[nest.name] = BulkKernel.compile(
                    nest, self.binding, edges[nest.name]
                )
        # planned once, here, before any store or file exists
        if plans is None:
            plans = plan_program(
                program, tiling, self.memory_budget - cache_budget,
                self.binding, self.shapes,
                tile_sizes=tile_sizes, edges=edges,
            )
        elif set(plans) != {nest.name for nest in program.nests}:
            raise ValueError(
                f"plans cover nests {sorted(plans)}, but program "
                f"{program.name!r} has nests "
                f"{[nest.name for nest in program.nests]}"
            )
        #: every nest's plan by name: the same for every run() and
        #: for every rank of an SPMD run
        self.plans: Mapping[str, NestPlan] = plans

        #: every nest's rank-less tile space: a rank cuts its slab of it
        self._spaces = {
            name: TileSpace(plan, self.binding, self.shapes)
            for name, plan in plans.items()
        }
        given, layouts = storage_spec or {}, layouts or {}
        self._specs: dict[str, StoreSpec] = {
            a.name: given.get(a.name) or LinearStoreSpec(
                layouts.get(a.name) or row_major(a.rank)
            )
            for a in program.arrays
        }
        # concrete linear layouts, kept for the cost-model drift
        # telemetry (predicted I/O needs each array's fast direction)
        self._layouts: dict[str, Layout] = {
            name: spec.layout
            for name, spec in self._specs.items()
            if isinstance(spec, LinearStoreSpec)
        }
        self._initial = initial
        self._cache_cfg, self._cache_budget = cache, cache_budget
        self._bind(node_slice, pfs or ParallelFileSystem(self.params), backend)

    def for_rank(self, node_slice, pfs, backend) -> "OOCExecutor":
        """This executor as another SPMD rank: binding, shapes, plans,
        tile spaces, store specs and kernels shared, the rest its own."""
        other = copy(self)
        other._bind(node_slice, pfs, backend)
        return other

    def _bind(self, node_slice, pfs, backend) -> None:
        """What a rank owns: its slab, files (in ``pfs``, through
        ``backend``), memory, tile cache and fault injector (one per
        executor, its RNG stream seeded by plan.seed + rank)."""
        if node_slice is not None and not 0 <= node_slice[0] < node_slice[1]:
            raise ValueError(f"bad node slice {node_slice}")
        self.node_slice, self.pfs, self.backend = node_slice, pfs, backend
        #: this rank's fault injector (``None`` without ``faults``); the
        #: SPMD driver publishes it, as its ranks run without an ``obs``
        self.injector: FaultInjector | None = self._faults and (
            self._faults.injector(node_slice[0] if node_slice else 0)
        )
        #: where this rank's files start: rank r's are rank 0's, moved
        self._file_origin = pfs.next_base
        self._stores = open_stores(self._specs, self.shapes, pfs, backend, self._dtype)
        if self.real:
            data = self._initial or initial_arrays(self.program, self.binding)
            for name in self.shapes:
                self._stores[name].load_ndarray(name, data[name])

        self.memory = MemoryManager(self.memory_budget)
        self._over_budget_tiles = 0
        self._io = _DirectTileIO(self._stores)
        if self._cache_cfg is not None:
            self._io = _CachedTileIO(
                self._stores, self.params, self._cache_cfg,
                TileCache(
                    self._cache_budget, make_policy(self._cache_cfg.policy),
                    memory=self.memory,
                ),
            )
        self._cache = self._io.cache
        # a walk's I/O is a function of the walk alone (see `_run_tile`)
        self._static_io = self._cache is None and self.injector is None

    # -- public API -------------------------------------------------------

    def array_data(self, name: str) -> np.ndarray:
        if not self.real:
            raise RuntimeError("array contents unavailable in simulate mode")
        return self._stores[name].to_ndarray(name)

    def file_names(self) -> dict[int, str]:
        """Map file base offsets to display names (array name for linear
        stores, ``group:<g>`` for interleaved files) — the attribution
        key for per-array I/O reports from call traces."""
        return {base: name for name, base in self.pfs.files.items()}

    def predicted_io(self) -> dict[str, dict[str, float]]:
        """The optimizer's predicted I/O calls per (nest, array) for this
        program as configured — the prediction side of the cost-model
        drift telemetry (:meth:`repro.obs.Observability.note_predictions`)."""
        # local import: repro.optimizer pulls in strategy modules that
        # import this executor
        from ..optimizer.cost import predict_program_io

        return predict_program_io(self.program, self._layouts, self.binding)

    def predicted_elements(self) -> dict[str, float]:
        """The cost model's element-transfer estimate per nest — the
        "modeled" column of the optimality telemetry
        (:meth:`repro.obs.Observability.note_modeled_elements`)."""
        from ..optimizer.cost import predict_program_elements

        return predict_program_elements(self.program, self.binding)

    def run(self) -> RunResult:
        obs = self._obs
        with _prof.capture(self._profile, obs) as cap:
            timed = obs is not None and obs.config.wall_time
            tracer = obs.tracer if timed else None
            run_span = tracer and tracer.begin(
                "executor.run", "execute", program=self.program.name
            )
            (result,) = run_ranks([self], tracer)
            if obs is not None:
                self._finish_obs(obs, run_span, result)
        result.profile = cap.result
        return result

    def _finish(self, result: RunResult) -> None:
        """What the rank, not the walk, knows of a run."""
        result.peak_memory = self.memory.peak
        result.over_budget_tiles = self._over_budget_tiles
        # snapshots: the cache's and a measuring backend's counters are
        # cumulative, and a result must not change when run() is called again
        if self._cache is not None:
            result.cache_metrics = dc_replace(self._cache.metrics)
            result.stats.cache = result.cache_metrics
        if self.backend.measures:
            result.backend_metrics = dc_replace(self.backend.metrics)

    def _finish_obs(
        self, obs: Observability, run_span, result: RunResult
    ) -> None:
        """Close out one run's telemetry: per-nest × per-array records
        from the call traces, cache counters, run-level gauges."""
        if obs.config.per_array:
            rank = self.node_slice[0] if self.node_slice else 0
            for rec in nest_records(
                self.params, result.nest_runs, self.file_names(), node=rank
            ):
                obs.record_nest_io(rec)
            obs.note_predictions(self.predicted_io())
            # optimality: a lone executor owns the whole program, so it
            # derives the bounds itself; rank executors inside the SPMD
            # driver see only their slab and leave bounds to the
            # driver, which knows the node count
            if self.node_slice is None:
                from ..bounds import run_bounds

                obs.note_bounds(run_bounds(
                    self.program, self.binding, self.memory_budget,
                    self.memory.peak, 1, self._cache is not None,
                ))
                obs.note_modeled_elements(self.predicted_elements())
            obs.publish_gauges()
        if obs.config.metrics:
            if self._cache is not None:
                self._cache.publish_metrics(obs.metrics)
            obs.metrics.gauge("executor.peak_memory_elements").set(
                self.memory.peak
            )
            obs.metrics.gauge("executor.over_budget_tiles").set(
                self._over_budget_tiles
            )
            if self.injector is not None:
                self.injector.publish_metrics(obs.metrics)
            if self.backend.measures:
                self._publish_backend_metrics(obs, result)
        if self.injector is not None and self.injector.events:
            obs.add_fault_events(self.injector.events)
        obs.note_stats(result.stats)
        if run_span is not None:
            obs.tracer.end(
                run_span,
                calls=result.stats.calls,
                elements=result.stats.elements_moved,
                io_time_s=result.stats.io_time_s,
            )

    def _publish_backend_metrics(
        self, obs: Observability, result: RunResult
    ) -> None:
        """Measured-vs-predicted gauges for a byte-moving backend.

        ``backend.*`` gauges carry the measured side (operations, bytes,
        wall seconds); ``backend.io_ratio`` divides measured wall time
        by the cost model's modeled I/O seconds — the drift telemetry's
        companion number, but against a real (or realistically priced)
        implementation instead of the model's own trace."""
        g = obs.metrics.gauge
        m = self.backend.metrics
        g("backend.get_ops").set(m.get_ops)
        g("backend.put_ops").set(m.put_ops)
        g("backend.bytes_read").set(m.bytes_read)
        g("backend.bytes_written").set(m.bytes_written)
        g("backend.measured_io_s").set(m.wall_s)
        if result.stats.io_time_s > 0:
            g("backend.io_ratio").set(m.wall_s / result.stats.io_time_s)

    def close(self) -> None:
        """Release backend resources (mmap handles, temporary chunk
        directories).  A no-op for the in-memory defaults; array data
        is unavailable afterwards."""
        self.backend.close()

    def __enter__(self) -> "OOCExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- internals -----------------------------------------------------------

    def _tiles(self, nest: LoopNest):
        """This rank's non-empty tiles of the nest's :class:`TileSpace`
        in walk order, lazily: ``(windows, footprints, reads)``;
        ``reads`` is the tile's ``(name, region)`` read set — every
        accessed array's tile (the paper's generated code reads tiles
        for all arrays, including write-only ones — read-modify-write
        of the bounding box)."""
        for windows, _, fps in self._spaces[nest.name].on(self.node_slice):
            yield windows, fps, [
                (name, region) for name, (region, _, _) in fps.items()
            ]

    def _run_tile(self, nest: LoopNest, tile, t: int, ctx: IOContext) -> None:
        """A rank's ``t``-th tile: reserve memory → read → compute →
        write → per-tile hook → release.  How data moves (direct or
        through the tile cache) is the tile-I/O collaborator's business;
        a static walk is already accounted (:func:`run_ranks`), and the
        tile keeps what is its own — memory, compute and, in real mode,
        the data."""
        io, plan = self._io, self.plans[nest.name]
        static, real = self._static_io, self.real
        io_ctx = None if static else ctx
        kernel = self._kernels.get(nest.name)
        windows, fps, reads = tile
        total_fp = sum(region_size(region) for region, _, _ in fps.values())
        allocated = False
        if not plan.over_budget:
            try:
                self.memory.allocate(total_fp)
                allocated = True
            except MemoryBudgetExceeded:
                # the planner sizes tiles against sampled anchors; a
                # pathological boundary tile may still overshoot —
                # count it rather than abort (the peak is recorded)
                self.memory.peak = max(
                    self.memory.peak, self.memory.in_use + total_fp
                )
                self._over_budget_tiles += 1

        # the tile's reservation must not outlive a failed transfer:
        # an I/O call that raises (e.g. an injected TransientIOError
        # with the retry budget exhausted) releases the allocation on
        # the way out, so memory accounting never leaks
        try:
            tiles_data = io.read(reads, io_ctx) if real or not static else {}

            compute_before = ctx.stats.compute_time_s
            if not real:
                count = nest.estimated_iterations(self.binding, windows)
            elif kernel is not None:
                count = run_element_loops_vectorized(
                    kernel, windows, tiles_data, dict(reads)
                )
            else:
                count = run_element_loops(
                    nest, self.binding, windows, tiles_data, dict(reads)
                )
            ctx.record_compute(count, len(nest.body))

            # write back modified arrays
            if real or not static:
                io.write([
                    (name, region, tiles_data.get(name))
                    for name, (region, _, written) in fps.items()
                    if written
                ], io_ctx)
            io.after_tile(t, ctx.stats.compute_time_s - compute_before, ctx)
        finally:
            if allocated:
                self.memory.free(total_fp)
        _prof.WORK.add_loop_iters("tile", 1)


def run_ranks(ranks: Sequence[OOCExecutor], tracer=None) -> list[RunResult]:
    """One run of a program on all of ``ranks`` — a lone executor, or
    an SPMD run's (:meth:`OOCExecutor.for_rank`) — nest by nest: every
    rank in turn enumerates its tiles of the nest and runs them, and a
    static walk (no cache or injected fault between the tiles and the
    recorder) is derived for all ranks at once, a block of tiles ahead,
    and recorded rank by rank (:meth:`_DirectTileIO.account`).  A rank's
    state is its own: its result is what running it alone gives.  A
    ``tracer`` gets a span per nest, one per rank and derived block in it."""
    first = ranks[0]
    obs, params, traced = first._obs, first.params, first._trace
    reg = obs.metrics if obs is not None and obs.config.metrics else None
    results = [
        RunResult(IOStats(), np.zeros(params.n_io_nodes), [], 0) for _ in ranks
    ]
    every: list[list[IOStats]] = [[] for _ in ranks]  # a rank's passes' stats
    for nest in first.program.nests:
        span = tracer and tracer.begin(
            f"nest {nest.name}", "execute", nest=nest.name
        )
        plan = first.plans[nest.name]
        # with a live cache, weight repetitions are executed (not
        # scaled): the cache warms across repetitions, so repetition
        # stats are not multiples of the first pass.  A fault
        # injector likewise draws per attempt — scaling one pass by
        # the weight would multiply fault counts that never fired.
        # Otherwise one pass is run and scaled by the weight; both
        # are the same loop (×1 and merging into zero are exact).
        if first.real or first._cache is not None or first.injector is not None:
            reps, scale = nest.weight, 1
        else:
            reps, scale = 1, nest.weight
        # each rank's passes: their stats (scaled) and traces
        stats: list[list[IOStats]] = [[] for _ in ranks]
        passes: list[list[CallTable | None]] = [[] for _ in ranks]
        for _ in range(reps):
            local = [
                IOContext(params, trace=traced, metrics=reg, faults=ex.injector)
                for ex in ranks
            ]
            # every rank's tiles in turn, enumerated as they are run
            walk = (
                (ctx, ex._file_origin - first._file_origin, tile)
                for ex, ctx in zip(ranks, local)
                for tile in ex._io.begin_nest(ex._tiles(nest))
            )
            if first._static_io:
                walk = first._io.account(walk, tracer, nest.name)
            item, tiles = next(walk, None), []
            for rank, (ex, ctx, result) in enumerate(zip(ranks, local, results)):
                of_rank = tracer and tracer.begin(
                    f"rank {rank}", "execute", rank=rank
                )
                tiles.append(0)
                while item is not None and item[0] is ctx:
                    ex._run_tile(nest, item[2], tiles[rank], ctx)
                    tiles[rank] += 1
                    item = next(walk, None)
                ex._io.end_nest(ctx)
                if of_rank:
                    tracer.end(of_rank, calls=ctx.stats.calls * scale)
                stats[rank].append(ctx.stats.scaled(scale))
                result.io_node_load += ctx.io_node_load * scale
                passes[rank].append(ctx.trace)
        for rank, (result, of_nest) in enumerate(zip(results, stats)):
            result.nest_runs.append(NestRun(
                nest.name, plan, IOStats.fold(of_nest), tiles[rank],
                CallTable.concat(passes[rank]) if traced else None,
                trace_weight=scale,
            ))
            every[rank] += of_nest
        if span:
            total = IOStats.fold(r.nest_runs[-1].stats for r in results)
            tracer.end(
                span, tiles=sum(tiles), calls=total.calls,
                elements=total.elements_moved, tile_size=plan.tile_size,
            )
    for ex, result, of_run in zip(ranks, results, every):
        # the run's stats are one sum over its passes, in order
        result.stats = IOStats.fold(of_run)
        ex._finish(result)
    return results
