"""The Barracuda driver: tune a contraction (or TCR program) for one GPU.

Reproduces the Fig. 1 flow end to end:

1. **OCTOPI** — enumerate strength-reduction variants and lower each to a
   TCR program (skipped when the user hands in a TCR program directly, as
   for Nekbone's ``local_grad3``, which is already a fixed operation
   sequence).
2. **TCR** — run the GPU decision algorithm per variant, producing one
   :class:`~repro.tcr.space.ProgramSpace` each; union them into the
   :class:`~repro.tcr.space.TuningSpace`.
3. **SURF** (or a baseline searcher) — draw a configuration pool, search it
   against the simulator objective, return the champion with its timing
   breakdown and the simulated search wall-clock (Table II's "Search").
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.core.contraction import Contraction
from repro.core.pipeline import compile_contraction
from repro.errors import ConfigurationError, SearchError
from repro.gpusim.arch import GPUArch
from repro.gpusim.calibration import DEFAULT_GPU_CAL, GPUCalibration
from repro.gpusim.perfmodel import GPUPerformanceModel, ProgramTiming
from repro.gpusim.timing_table import ProgramTimingTable
from repro.obs.exporters import write_chrome_trace
from repro.obs.manifest import MANIFEST_FILENAME, RunManifest, fingerprint_of
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.surf.cache import CachedEvaluator, EvaluationCache, QuarantineStore
from repro.surf.checkpoint import CheckpointManager, SearchCheckpointer
from repro.surf.elastic import ElasticBatchEvaluator
from repro.surf.evaluator import BatchEvaluator, ConfigurationEvaluator
from repro.surf.exhaustive import ExhaustiveSearch
from repro.surf.faults import FaultInjectingEvaluator, FaultSpec
from repro.surf.pool import SpacePool, as_pool
from repro.surf.random_search import RandomSearch
from repro.surf.resilience import ResilientEvaluator
from repro.surf.search import SearchResult, SURFSearch
from repro.surf.separable import SeparableExhaustiveSearch
from repro.surf.shared import resolve_search_workers
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.decision import BACKENDS, decide_search_space
from repro.tcr.program import TCRProgram
from repro.tcr.space import ProgramConfig, TuningSpace
from repro.util.rng import spawn_rng, stable_hash

__all__ = ["TuneResult", "Autotuner"]


@dataclass
class TuneResult:
    """Outcome of one autotuning run."""

    name: str
    arch: GPUArch
    best_config: ProgramConfig
    best_program: TCRProgram
    timing: ProgramTiming
    search: SearchResult
    space_size: int
    pool_size: int
    variant_count: int
    #: True when the run was served from the content-addressed result
    #: store (zero model evaluations; champion/history replayed bitwise).
    store_hit: bool = False

    @property
    def seconds(self) -> float:
        return self.timing.total_s

    @property
    def gflops(self) -> float:
        return self.timing.gflops

    @property
    def search_seconds(self) -> float:
        return self.search.simulated_wall_seconds

    def summary(self) -> str:
        return (
            f"{self.name} on {self.arch.name}: {self.gflops:.2f} GFlops "
            f"({self.seconds * 1e6:.1f} us), space={self.space_size}, "
            f"evals={self.search.evaluations}, "
            f"search={self.search_seconds:.1f}s (simulated)"
        )


def _retag_variant(config: ProgramConfig, variant_index: int) -> ProgramConfig:
    """Rewrite a sub-run config's variant index to the true OCTOPI index."""
    return ProgramConfig(
        variant_index=variant_index,
        kernels=config.kernels,
        global_id=config.global_id,
    )


def _make_searcher(
    kind: str,
    batch_size: int,
    max_evaluations: int,
    seed: int,
    tie_break: str = "lexsort",
    search_workers: int = 1,
    acquisition: str = "mean",
):
    if kind == "surf":
        return SURFSearch(
            batch_size=batch_size,
            max_evaluations=max_evaluations,
            seed=seed,
            tie_break=tie_break,
            search_workers=search_workers,
            acquisition=acquisition,
        )
    if kind == "random":
        return RandomSearch(
            batch_size=batch_size, max_evaluations=max_evaluations, seed=seed
        )
    if kind == "exhaustive":
        return ExhaustiveSearch(batch_size=batch_size)
    raise SearchError(
        f"unknown searcher {kind!r} (surf|random|exhaustive|sweep)"
    )


class Autotuner:
    """Tunes contractions/programs for a GPU architecture.

    Parameters
    ----------
    arch:
        Target device.
    searcher:
        ``"surf"`` (default), ``"random"``, ``"exhaustive"``, or
        ``"sweep"`` (separability-aware exhaustive optimum over timing
        tables — exact noise-free best in ``O(sum of kernel-space
        sizes)``).
    max_evaluations / batch_size:
        SURF's ``nmax`` and ``bs`` (paper defaults: 100 and a small batch).
    pool_size:
        Size of the sampled configuration pool ``Xp`` handed to the search
        (the full space is usually far too large to enumerate).
    max_variants:
        Optional cap on OCTOPI variant enumeration.
    seed:
        Master seed: pool sampling, surrogate, measurement noise.
    batch_parallelism:
        Concurrent lanes of the simulated tuning rig (the CLI's
        ``--workers``) — affects only the simulated wall-clock accounting
        (Table II's "Search"), never the objective values.  The simulated
        wall is part of the stored result, so the knob is store-keyed.
    cache:
        Evaluation memoization.  ``True`` keeps an in-memory store shared
        by every ``tune_*`` call on this instance; a path string enables
        the persistent JSON-lines store as well.  ``None`` (default)
        consults the ``REPRO_EVAL_CACHE`` environment variable (a path;
        empty/unset = off), so batch drivers can switch it on fleet-wide.
    elastic:
        Evaluate batches on an **elastic coordinator/worker pool** (see
        :mod:`repro.surf.elastic`): spawn this many local worker
        processes on a filesystem lease spool that external workers
        (``repro elastic-workers --spool DIR``) may join — late, briefly,
        or after being hard-killed — while the champion, history, rng
        stream, and checkpoints stay bitwise-identical to a serial run.
        ``0`` with a ``spool`` still enables elastic mode (external
        workers only; the coordinator evaluates inline as a last
        resort).  ``None`` consults ``REPRO_ELASTIC``.  Like
        ``search_workers``, the knob is store-key-, fingerprint-, and
        checkpoint-neutral.
    spool:
        The elastic lease-spool directory.  ``None`` consults
        ``REPRO_SPOOL``; when elastic workers are requested without a
        spool, a fresh temporary directory (or ``checkpoint_dir/spool``)
        is used.
    lease_ttl:
        Elastic claim lifetime, seconds: a worker that holds a lease
        past this deadline is presumed dead and its lease reclaimed.
    search_workers:
        Fan the *search core's* hot loops — per-refit forest fits, the
        full-pool predict pass, the odometer encode — out over this many
        worker processes sharing the pool through shared memory (see
        :mod:`repro.surf.shared`).  Orthogonal to ``elastic`` (which
        moves evaluation elsewhere): results are bitwise-identical for every
        worker count, so the knob is result-store-neutral and absent from
        run fingerprints (a checkpoint may resume under a different
        count).  ``None`` consults ``REPRO_SEARCH_WORKERS`` (unset = 1,
        today's serial path byte for byte).
    acquisition:
        SURF's per-iteration ranking rule: ``"mean"`` (default, the
        paper's predicted-best rule) or ``"lcb"`` (lower confidence
        bound ``mean - kappa*std`` from one combined tree descent).
        Non-default values change the search course and are therefore
        fingerprinted and store-keyed.
    faults:
        Deterministic fault injection (see :mod:`repro.surf.faults`): a
        :class:`FaultSpec`, a spec string for :meth:`FaultSpec.parse`, or
        ``None`` (default) to consult ``REPRO_FAULTS`` (empty/unset =
        none).  Enabling faults automatically enables the resilience
        layer.
    max_retries:
        Transient-failure retry budget of the resilience layer.
    resilient:
        Force the :class:`~repro.surf.resilience.ResilientEvaluator`
        retry/quarantine layer on (True) or off (False); ``None`` enables
        it exactly when faults are injected or a checkpoint directory is
        in use.
    checkpoint_dir:
        Run directory for fault-tolerant search state: ``state.json``
        (atomic per-batch search checkpoint) plus the persistent
        evaluation cache and quarantine set.  See
        :mod:`repro.surf.checkpoint`.
    resume:
        With ``checkpoint_dir``, restore a previous interrupted run's
        state and continue — bitwise-identical (history and best value)
        to an uninterrupted run with the same settings.  A fingerprint
        mismatch (changed seed/space/searcher/budget) raises
        :class:`~repro.errors.CheckpointError` rather than resuming
        unsafely; with no state file yet, the run simply starts fresh.
    tie_break:
        How SURF orders equal predictions within a batch: ``"lexsort"``
        (default, scale-independent randomized ties) or ``"jitter"`` (the
        historical additive-jitter scheme, kept for resuming/replaying
        runs recorded under it).  See :class:`~repro.surf.search.SURFSearch`.
    trace:
        Write a Chrome-trace (Perfetto-loadable) span trace of every
        ``tune_*`` call to this path, plus a run-provenance
        ``manifest.json`` next to it (and next to ``checkpoint_dir``
        when set).  Tracing is pure observability: results are bitwise
        identical with it on or off, and no wall-clock field enters any
        fingerprint or checkpoint comparison.
    result_store:
        Content-addressed whole-run memoization (see
        :mod:`repro.serve.store`): a :class:`ResultStore`, a store
        directory path, or ``None`` (default) to consult
        ``REPRO_RESULT_STORE``.  A request whose (DSL, arch,
        calibration, searcher-settings) fingerprints match a stored run
        is served that run's champion and full history — bitwise
        identical, zero model evaluations — and every completed miss is
        stored for the next requester.
    """

    def __init__(
        self,
        arch: GPUArch,
        searcher: str = "surf",
        max_evaluations: int = 100,
        batch_size: int = 10,
        pool_size: int = 3000,
        max_variants: int | None = None,
        seed: int = 0,
        calibration: GPUCalibration = DEFAULT_GPU_CAL,
        noisy: bool = True,
        include_transfer: bool = True,
        per_variant: bool = False,
        batch_parallelism: int = 1,
        cache: bool | str | Path | None = None,
        elastic: int | None = None,
        spool: str | Path | None = None,
        lease_ttl: float = 30.0,
        search_workers: int | None = None,
        acquisition: str = "mean",
        faults: FaultSpec | str | None = None,
        max_retries: int = 2,
        resilient: bool | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        trace: str | Path | None = None,
        tie_break: str = "lexsort",
        result_store=None,
        backend: str = "loopnest",
    ) -> None:
        """``per_variant=True`` reproduces the paper's OCTOPI flow for
        multi-variant contractions: each algebraic version is autotuned
        with its own search budget ("OCTOPI generates and sends all
        versions to CUDA-CHiLL for autotuning") and the champions compete.
        This is what makes Eqn.(1)'s search the longest in Table II: 15
        variants × the per-version search cost.  The default (False)
        searches the union space with one budget."""
        self.arch = arch
        self.searcher_kind = searcher
        self.max_evaluations = max_evaluations
        self.batch_size = batch_size
        self.pool_size = pool_size
        self.max_variants = max_variants
        self.seed = seed
        self.model = GPUPerformanceModel(arch, calibration)
        self.noisy = noisy
        self.include_transfer = include_transfer
        self.per_variant = per_variant
        self.batch_parallelism = max(1, batch_parallelism)
        if cache is None:
            cache = os.environ.get("REPRO_EVAL_CACHE") or False
        self.cache_spec: bool | str | Path = cache
        if elastic is None:
            elastic = int(os.environ.get("REPRO_ELASTIC", "0") or 0)
        self.elastic = max(0, elastic)
        if spool is None:
            spool = os.environ.get("REPRO_SPOOL") or None
        self.spool = Path(spool) if spool else None
        self.lease_ttl = float(lease_ttl)
        self.search_workers = resolve_search_workers(search_workers)
        self.acquisition = acquisition
        if faults is None:
            faults = os.environ.get("REPRO_FAULTS", "")
        if isinstance(faults, str):
            faults = FaultSpec.parse(faults, seed=seed)
        self.faults: FaultSpec = faults
        self.max_retries = max_retries
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = resume
        self.trace = Path(trace) if trace else None
        self.tie_break = tie_break
        if resilient is None:
            resilient = self.faults.any() or self.checkpoint_dir is not None
        self.resilient = bool(resilient)
        # A checkpointed run persists its evaluation cache in the run
        # directory (unless the caller pointed the cache elsewhere), so a
        # resume can serve any work the killed batch already paid for.
        if self.checkpoint_dir is not None and not self.cache_spec:
            self.cache_spec = str(CheckpointManager(self.checkpoint_dir).eval_cache_path)
        self._cache_store: EvaluationCache | None = None
        self._quarantine_store: QuarantineStore | None = None
        if result_store is None:
            result_store = os.environ.get("REPRO_RESULT_STORE") or None
        self.result_store_spec = result_store
        self._result_store_obj = None
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend

    # ------------------------------------------------------------------
    def _result_store(self):
        """The instance-wide result store, or None when disabled.

        Imported lazily: :mod:`repro.serve` wraps this module (the
        service drives Autotuners), so a top-level import would cycle.
        """
        if self.result_store_spec is None:
            return None
        if self._result_store_obj is None:
            from repro.serve.store import ResultStore

            spec = self.result_store_spec
            self._result_store_obj = (
                spec if isinstance(spec, ResultStore) else ResultStore(spec)
            )
        return self._result_store_obj

    # ------------------------------------------------------------------
    def _evaluation_cache(self) -> EvaluationCache | None:
        """The instance-wide cache store (shared across tune_* calls)."""
        if not self.cache_spec:
            return None
        if self._cache_store is None:
            path = None if self.cache_spec is True else self.cache_spec
            self._cache_store = EvaluationCache(path)
        return self._cache_store

    def _quarantine(self) -> QuarantineStore:
        """The instance-wide quarantine set (persistent with checkpoints)."""
        if self._quarantine_store is None:
            path = (
                CheckpointManager(self.checkpoint_dir).quarantine_path
                if self.checkpoint_dir is not None
                else None
            )
            self._quarantine_store = QuarantineStore(path)
        return self._quarantine_store

    def _build_evaluator(
        self,
        programs: list[TCRProgram],
        tables: list[ProgramTimingTable],
    ) -> BatchEvaluator:
        """Stack the evaluation engine, innermost first:
        model -> fault injection -> cache -> retry/quarantine -> elastic."""
        evaluator: BatchEvaluator = ConfigurationEvaluator(
            programs,
            self.model,
            seed=self.seed,
            noisy=self.noisy,
            include_transfer=self.include_transfer,
            batch_parallelism=self.batch_parallelism,
            tables=tables,
        )
        if self.faults.any():
            # Below the cache: a cached result models a rig that is not
            # re-run, so it cannot fault.
            evaluator = FaultInjectingEvaluator(evaluator, self.faults)
        store = self._evaluation_cache()
        if store is not None:
            evaluator = CachedEvaluator(evaluator, store)
        if self.resilient:
            evaluator = ResilientEvaluator(
                evaluator,
                max_retries=self.max_retries,
                quarantine=self._quarantine(),
            )
        if self.elastic_enabled:
            evaluator = ElasticBatchEvaluator(
                evaluator,
                spool=self._spool_dir(),
                workers=self.elastic,
                lease_ttl=self.lease_ttl,
            )
        return evaluator

    @property
    def elastic_enabled(self) -> bool:
        """True when evaluation runs on the coordinator/worker pool."""
        return self.elastic > 0 or self.spool is not None

    def _spool_dir(self) -> Path:
        """The run's lease-spool directory (created by the coordinator)."""
        if self.spool is not None:
            return self.spool
        if self.checkpoint_dir is not None:
            self.spool = self.checkpoint_dir / "spool"
        else:
            import tempfile

            self.spool = Path(tempfile.mkdtemp(prefix="repro-spool-"))
        return self.spool

    # ------------------------------------------------------------------
    @contextmanager
    def _observe(self, name: str):
        """Observation scope of one public ``tune_*`` call.

        With :attr:`trace` set (and no ambient tracer already active —
        e.g. the CLI installs one around workload loading so DSL-parse
        spans are captured), a fresh :class:`~repro.obs.tracer.Tracer`
        becomes ambient for the call; on exit the collected spans are
        exported as a Chrome trace, even when the run failed.  Without
        ``trace`` the ambient tracer (no-op by default) is used as-is.
        """
        ambient = get_tracer()
        created = None
        if self.trace is not None and not ambient.enabled:
            created = Tracer()
        tracer = created if created is not None else ambient
        try:
            with ExitStack() as stack:
                if created is not None:
                    stack.enter_context(use_tracer(created))
                stack.enter_context(
                    tracer.span(
                        "tune.run", category="tune",
                        workload=name, arch=self.arch.name,
                        searcher=self.searcher_kind, seed=self.seed,
                    )
                )
                yield tracer
        finally:
            if self.trace is not None:
                write_chrome_trace(tracer.finished(), self.trace)

    def run_manifest(self, name: str, programs: list[TCRProgram]) -> RunManifest:
        """The provenance manifest of a run over ``programs``."""
        from repro import __version__

        settings = {
            "max_evaluations": self.max_evaluations,
            "batch_size": self.batch_size,
            "pool_size": self.pool_size,
            "max_variants": self.max_variants,
            "noisy": self.noisy,
            "include_transfer": self.include_transfer,
            "per_variant": self.per_variant,
            "batch_parallelism": self.batch_parallelism,
            "search_workers": self.search_workers,
            "faults": self.faults.describe(),
            "max_retries": self.max_retries,
            "resilient": self.resilient,
            "tie_break": self.tie_break,
        }
        # Only a non-default acquisition changes the search course; the
        # conditional key keeps store digests of existing runs stable.
        if self.acquisition != "mean":
            settings["acquisition"] = self.acquisition
        # The backend changes which spaces exist, so it is store-key
        # RELEVANT (never in RESULT_NEUTRAL_SETTINGS); the conditional key
        # keeps pre-TTGT loop-nest digests byte-stable.
        if self.backend != "loopnest":
            settings["backend"] = self.backend
        # Elastic evaluation is bitwise-identical to serial, so the knob is
        # provenance only: recorded when on (and store-key-neutral either
        # way), absent otherwise so serial manifests keep their bytes.
        if self.elastic_enabled:
            settings["elastic"] = self.elastic
        return RunManifest(
            name=name,
            package_version=__version__,
            arch=self.arch.name,
            arch_fingerprint=fingerprint_of(self.arch),
            calibration_fingerprint=fingerprint_of(self.model.cal),
            dsl_fingerprint=format(
                stable_hash("dsl", [p.to_text() for p in programs]), "016x"
            ),
            seed=self.seed,
            searcher=self.searcher_kind,
            settings=settings,
        )

    def _write_manifests(self, name: str, programs: list[TCRProgram]) -> None:
        """Write ``manifest.json`` next to the trace and the checkpoints."""
        destinations = []
        if self.trace is not None:
            destinations.append(self.trace.parent / MANIFEST_FILENAME)
        if self.checkpoint_dir is not None:
            destinations.append(self.checkpoint_dir / MANIFEST_FILENAME)
        if not destinations:
            return
        manifest = self.run_manifest(name, programs)
        for path in destinations:
            manifest.write(path)

    # ------------------------------------------------------------------
    def tune_contraction(self, contraction: Contraction) -> TuneResult:
        """Full pipeline: OCTOPI variants, then search across all of them."""
        with self._observe(contraction.name):
            compiled = compile_contraction(
                contraction, max_variants=self.max_variants
            )
            programs = [v.program for v in compiled.variants]
            self._write_manifests(contraction.name, programs)
            return self._tune_stored(contraction.name, programs)

    def tune_program(self, program: TCRProgram) -> TuneResult:
        """Tune a fixed TCR program (single variant)."""
        with self._observe(program.name):
            self._write_manifests(program.name, [program])
            return self._tune_stored(program.name, [program])

    def tune_programs(self, name: str, programs: list[TCRProgram]) -> TuneResult:
        """Tune an explicit set of alternative programs (custom variants)."""
        with self._observe(name):
            self._write_manifests(name, programs)
            return self._tune_stored(name, programs)

    # ------------------------------------------------------------------
    def _tune_stored(self, name: str, programs: list[TCRProgram]) -> TuneResult:
        """Serve from the result store when possible; store on a miss.

        The store key is derived from the run manifest — the same
        fingerprints the provenance layer writes — so "identical
        request" means exactly "a request whose search would replay
        bitwise".  A hit reconstructs the champion and full history from
        the stored record with **zero** model evaluations (the winning
        program's timing is recomputed deterministically from the
        champion config, which no noise stream touches).
        """
        store = self._result_store()
        if store is None:
            return self._tune(name, programs)
        from repro.serve.store import StoreKey, pack_tune_record, unpack_search

        key = StoreKey.from_manifest(self.run_manifest(name, programs))
        tracer = get_tracer()
        record = store.get(key)
        if record is not None:
            tracer.event(
                "store.hit", category="store",
                workload=name, digest=key.digest(),
            )
            search = unpack_search(record["search"])
            # A fresh empty telemetry: totals() reports 0 evaluations,
            # which is literally what this request cost.
            search.telemetry = SearchTelemetry()
            best = search.best_config
            best_program = programs[best.variant_index]
            return TuneResult(
                name=name,
                arch=self.arch,
                best_config=best,
                best_program=best_program,
                timing=self.model.program_timing(best_program, best),
                search=search,
                space_size=int(record["space_size"]),
                pool_size=int(record["pool_size"]),
                variant_count=int(record["variant_count"]),
                store_hit=True,
            )
        tracer.event(
            "store.miss", category="store", workload=name, digest=key.digest()
        )
        result = self._tune(name, programs)
        store.put(key, pack_tune_record(result))
        return result

    def _run_fingerprint(self, name: str, pool, space_size: int) -> dict:
        """Identity of a run for checkpoint-resume safety.

        Everything that changes the bitwise course of a search belongs
        here: resuming under a different fingerprint is refused.
        """
        fp = {
            "name": name,
            "arch": self.arch.name,
            "searcher": self.searcher_kind,
            "seed": self.seed,
            "max_evaluations": self.max_evaluations,
            "batch_size": self.batch_size,
            "space_size": space_size,
            "pool": as_pool(pool).fingerprint(),
            "noisy": self.noisy,
            "include_transfer": self.include_transfer,
            "faults": self.faults.describe(),
            "max_retries": self.max_retries,
        }
        # "jitter" reproduces the historical selection stream exactly, so
        # its fingerprint stays byte-compatible with states written before
        # the mode existed; any other mode changes the course and is named.
        if self.tie_break != "jitter":
            fp["tie_break"] = self.tie_break
        # Same conditional-key reasoning for the acquisition rule: "mean"
        # is the historical course.  search_workers is deliberately absent:
        # the parallel path is bitwise-identical to serial, so a run may be
        # resumed under any worker count.
        if self.acquisition != "mean":
            fp["acquisition"] = self.acquisition
        # The backend decides which kernel spaces exist at all; "loopnest"
        # is the historical course and stays unnamed for byte-compatibility.
        if self.backend != "loopnest":
            fp["backend"] = self.backend
        return fp

    def _checkpointer(
        self,
        checkpoint_dir: Path | None,
        name: str,
        pool,
        space_size: int,
        evaluator: BatchEvaluator | None,
    ) -> SearchCheckpointer | None:
        """Build the per-run checkpoint handle; load prior state on resume."""
        if checkpoint_dir is None:
            return None
        manager = CheckpointManager(
            checkpoint_dir, self._run_fingerprint(name, pool, space_size)
        )
        checkpointer = SearchCheckpointer(
            manager,
            extra=(
                (lambda: {"evaluator_counters": evaluator.counters()})
                if evaluator is not None
                else None
            ),
        )
        if self.resume:
            payload = manager.load()  # raises CheckpointError on mismatch
            if payload is not None:
                checkpointer.resume_state = payload.get("searcher")
                if evaluator is not None:
                    evaluator.restore_counters(
                        payload.get("extra", {}).get("evaluator_counters", {})
                    )
        return checkpointer

    # ------------------------------------------------------------------
    def _tune(
        self,
        name: str,
        programs: list[TCRProgram],
        checkpoint_dir: Path | None = None,
    ) -> TuneResult:
        if checkpoint_dir is None:
            checkpoint_dir = self.checkpoint_dir
        if self.per_variant and len(programs) > 1:
            return self._tune_per_variant(name, programs)
        tracer = get_tracer()
        spaces = [
            decide_search_space(
                p, variant_index=i, backend=self.backend, model=self.model
            )
            for i, p in enumerate(programs)
        ]
        tuning_space = TuningSpace(spaces)
        # Every searcher scores by timing-table lookup: bitwise identical to
        # the scalar model, which stays the fallback for points a table
        # cannot index.
        tables = []
        for p, s in zip(programs, spaces):
            with tracer.span("table.build", category="table", program=p.name):
                tables.append(ProgramTimingTable.build(self.model, p, s))
        if self.searcher_kind == "sweep":
            # The separable sweep reads the tables directly — no pool, no
            # evaluator; it optimizes the noise-free modeled time.
            searcher = SeparableExhaustiveSearch(
                tables,
                include_transfer=self.include_transfer,
                tuning_space=tuning_space,
            )
            pool = []
            checkpointer = self._checkpointer(
                checkpoint_dir, name, pool, tuning_space.size(), None
            )
            with tracer.span(
                "search.run", category="search",
                searcher=self.searcher_kind, workload=name,
            ):
                result = searcher.search(
                    telemetry=SearchTelemetry(), checkpointer=checkpointer
                )
        else:
            with tracer.span("space.pool", category="space") as sp:
                rng = spawn_rng(self.seed, "pool", name, self.arch.name)
                # Ids only — configs materialize lazily per evaluation batch.
                pool = SpacePool(
                    tuning_space,
                    tuning_space.sample_ids(
                        min(self.pool_size, tuning_space.size()), rng
                    ),
                )
                if tracer.enabled:
                    sp.set(pool=len(pool), space=tuning_space.size())
            # Wall-clock accounting defaults to sequential
            # (batch_parallelism=1): the paper's ~4 s/variant search times
            # for Lg3t imply one rig timing one variant at a time, with
            # batching used for model refresh cadence.
            evaluator = self._build_evaluator(programs, tables=tables)
            searcher = _make_searcher(
                self.searcher_kind, self.batch_size, self.max_evaluations,
                self.seed, tie_break=self.tie_break,
                search_workers=self.search_workers,
                acquisition=self.acquisition,
            )
            checkpointer = self._checkpointer(
                checkpoint_dir, name, pool, tuning_space.size(), evaluator
            )
            try:
                with tracer.span(
                    "search.run", category="search",
                    searcher=self.searcher_kind, workload=name,
                ):
                    result = searcher.search(
                        pool,
                        evaluator.evaluate_batch,
                        wall_seconds=lambda: evaluator.simulated_wall_seconds,
                        telemetry=SearchTelemetry(counters=evaluator.counters),
                        checkpointer=checkpointer,
                    )
            finally:
                # The elastic evaluator owns worker processes and a spool
                # shutdown marker; release them even when the search dies.
                close = getattr(evaluator, "close", None)
                if close is not None:
                    close()
        best = result.best_config
        best_program = programs[best.variant_index]
        timing = self.model.program_timing(best_program, best)
        return TuneResult(
            name=name,
            arch=self.arch,
            best_config=best,
            best_program=best_program,
            timing=timing,
            search=result,
            space_size=tuning_space.size(),
            pool_size=len(pool),
            variant_count=len(programs),
        )

    def _tune_per_variant(self, name: str, programs: list[TCRProgram]) -> TuneResult:
        """Autotune every OCTOPI variant independently; champions compete."""
        results: list[TuneResult] = []
        tracer = get_tracer()
        for i, program in enumerate(programs):
            # Each variant's search state lives in its own subdirectory;
            # the quarantine set and eval cache stay at the run root
            # (they are instance-wide and config-keyed, so sharing is safe).
            sub_dir = (
                self.checkpoint_dir / f"v{i}"
                if self.checkpoint_dir is not None
                else None
            )
            with tracer.span("tune.variant", category="tune", variant=i):
                sub = self._tune(f"{name}_v{i}", [program], checkpoint_dir=sub_dir)
            # Re-tag the winning config — and every history entry — with the
            # real variant index: each sub-run sees its program as variant 0,
            # so without re-tagging the merged history would attribute every
            # evaluation to the first variant.
            cfg = _retag_variant(sub.best_config, i)
            search = SearchResult(
                searcher=sub.search.searcher,
                best_config=cfg,
                best_objective=sub.search.best_objective,
                history=[
                    (_retag_variant(c, i), y) for c, y in sub.search.history
                ],
                evaluations=sub.search.evaluations,
                simulated_wall_seconds=sub.search.simulated_wall_seconds,
                telemetry=sub.search.telemetry,
            )
            results.append(
                TuneResult(
                    name=sub.name,
                    arch=sub.arch,
                    best_config=cfg,
                    best_program=program,
                    timing=sub.timing,
                    search=search,
                    space_size=sub.space_size,
                    pool_size=sub.pool_size,
                    variant_count=1,
                )
            )
        winner = min(results, key=lambda r: r.seconds)
        total_wall = sum(r.search_seconds for r in results)
        total_evals = sum(r.search.evaluations for r in results)
        search = SearchResult(
            searcher=winner.search.searcher,
            best_config=winner.best_config,
            best_objective=winner.search.best_objective,
            history=[h for r in results for h in r.search.history],
            evaluations=total_evals,
            simulated_wall_seconds=total_wall,
            telemetry=SearchTelemetry.merged(r.search.telemetry for r in results),
        )
        return TuneResult(
            name=name,
            arch=self.arch,
            best_config=winner.best_config,
            best_program=winner.best_program,
            timing=winner.timing,
            search=search,
            space_size=sum(r.space_size for r in results),
            pool_size=sum(r.pool_size for r in results),
            variant_count=len(programs),
        )
