"""One benchmark process: set up, run the timed phase(s), check, report.

``run.py`` starts this script from the root of a checkout, in a fresh
interpreter, once per set-up sample.  The process imports the program
from ``src/``, runs one untimed warm-up request (on serve-mixed it also
re-opens the prefilled result store and starts the service) and prints
``READY <clock>``; the launcher's set-up time is the distance between
starting the process and that clock.  A ``probe`` stops there.  The
``main`` process goes on to the timed phase and writes its result to
``result.json`` in the run directory.

Roles:

``prefill``  serve-mixed only: tune the prefilled keys into a store
             (untimed) and record each stored champion/history digest.
``probe``    set up, report ready, exit.
``main``     set up, report ready, run the timed phase untraced; with
             ``--trace 1`` run it again under the layer wrappers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats
import workloads as wl
from layers import LAYERS, Installed, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

IDENTITY_DIR = HERE / ".work" / "identity"
REQUEST_TIMEOUT_S = 120.0


def monotonic() -> float:
    """A clock the launcher and this process share (system-wide)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    """Process CPU seconds, children included."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def code_digest() -> str:
    """Digest of the program and benchmark sources (work-identity key)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Requests


@dataclass
class Outcome:
    request: wl.Request
    latency_s: float
    result: object | None = None
    error: str | None = None
    store_hit: bool = False
    failures: list = field(default_factory=list)


def result_digest(result) -> str:
    """Digest of a result's champion and full history, as the store packs it."""
    from repro.serve.store import pack_search

    payload = json.dumps(pack_search(result.search), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def tune_one(request: wl.Request, settings: dict):
    from repro.autotune import Autotuner
    from repro.gpusim.arch import gpu_by_name
    from repro.workloads import get_workload

    tuner = Autotuner(gpu_by_name(request.arch), seed=request.seed, **settings)
    return get_workload(request.workload).tune(tuner)


def tune_phase(requests: list[wl.Request], settings: dict) -> list[Outcome]:
    outcomes = []
    for request in requests:
        start = time.perf_counter()
        try:
            result = tune_one(request, settings)
        except Exception as exc:  # counted as a failed request
            outcomes.append(
                Outcome(request, time.perf_counter() - start, error=repr(exc))
            )
            continue
        outcomes.append(Outcome(request, time.perf_counter() - start, result))
    return outcomes


def service_request(request: wl.Request):
    from repro.serve.service import TuneRequest

    settings = dict(wl.SWEEP_SETTINGS, seed=request.seed)
    return TuneRequest(request.workload, request.arch, settings)


def serve_phase(service, prepared, submitted: dict | None = None) -> list[Outcome]:
    """Closed loop: one thread per client, each submit -> wait, in lockstep.

    ``prepared`` holds one list of (request, TuneRequest) pairs per
    client, all of one length, with hits and misses in the same slots.
    The clients start each slot together, so a hit never waits behind a
    miss that holds the interpreter lock.  Without the lockstep a slower
    machine makes misses longer, more hits overlap one and wait a whole
    thread switch interval (5 ms), and a run 10-20% slower than its
    neighbours read a median latency of 5.7-6.9 ms instead of 3.1-3.5 ms.

    ``submitted`` (traced phase only) receives each request's submit
    instant, keyed by the identity of the TuneRequest object.
    """
    results: list[list[Outcome]] = [[] for _ in prepared]
    barrier = threading.Barrier(len(prepared), timeout=REQUEST_TIMEOUT_S)

    def client(index: int) -> None:
        for request, tune_request in prepared[index]:
            barrier.wait()
            start = time.perf_counter()
            if submitted is not None:
                submitted[id(tune_request)] = start
            try:
                job = service.wait(
                    service.submit(tune_request), timeout=REQUEST_TIMEOUT_S
                )
            except Exception as exc:  # counted as a failed request
                results[index].append(
                    Outcome(request, time.perf_counter() - start, error=repr(exc))
                )
                continue
            outcome = Outcome(
                request, time.perf_counter() - start, job.result,
                store_hit=job.store_hit,
            )
            if job.state != "done":
                outcome.error = f"job {job.state}: {job.error}"
            results[index].append(outcome)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(len(prepared))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o for per_client in results for o in per_client]


def timed(run):
    """Run a phase; returns (outcomes, wall seconds, CPU seconds)."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    outcomes = run()
    wall = time.perf_counter() - start
    return outcomes, wall, cpu_seconds() - cpu0


# ----------------------------------------------------------------------
# Correctness


class EinsumCheck:
    """The winning variant's program against numpy.einsum of the source.

    Results are memoized per (workload, program text): a variant is the
    same computation whichever configuration or GPU won with it.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._memo: dict = {}

    def __call__(self, workload: str, program) -> str | None:
        key = (workload, program.to_text())
        if key not in self._memo:
            self._memo[key] = self._check(workload, program)
        return self._memo[key]

    def _check(self, workload: str, program) -> str | None:
        from repro.workloads import get_workload

        source = get_workload(workload).contraction
        rng = np.random.default_rng(self.seed)
        inputs = {}
        for term in source.terms:
            if term.name not in inputs:
                inputs[term.name] = rng.standard_normal(term.shape(source.dims))
        letters = {}
        for index in [i for t in source.terms for i in t.indices] + list(
            source.output.indices
        ):
            letters.setdefault(index, "abcdefghijklmnopqrstuvwxyz"[len(letters)])
        spec = ",".join(
            "".join(letters[i] for i in t.indices) for t in source.terms
        ) + "->" + "".join(letters[i] for i in source.output.indices)
        want = np.einsum(spec, *[inputs[t.name] for t in source.terms])
        got = program.evaluate({n: inputs[n] for n in program.input_names})
        scale = max(1.0, float(np.abs(want).max()))
        if got.shape != want.shape or not np.allclose(
            got, want, rtol=1e-9, atol=1e-9 * scale
        ):
            return f"{workload}: champion program differs from numpy.einsum"
        return None


def check_outcomes(outcomes, einsum: EinsumCheck, stored: dict | None) -> None:
    """Fill each outcome's ``failures`` list (empty = correct)."""
    for o in outcomes:
        if o.error is not None:
            o.failures.append(o.error)
            continue
        result = o.result
        if not (
            math.isfinite(result.search.best_objective)
            and math.isfinite(result.gflops)
            and result.gflops > 0
        ):
            o.failures.append("champion is not finite")
            continue
        if o.request.kind in ("hit", "miss") and o.store_hit != (
            o.request.kind == "hit"
        ):
            o.failures.append(f"expected a store {o.request.kind}")
        if o.request.kind == "hit" and stored is not None:
            if result_digest(result) != stored.get(repr(o.request.key())):
                o.failures.append("hit differs from the miss that stored it")
        if o.request.workload in wl.CONTRACTION_WORKLOADS:
            problem = einsum(o.request.workload, result.best_program)
            if problem:
                o.failures.append(problem)


# ----------------------------------------------------------------------
# Work identity


def work_counts(outcomes, puts: int) -> dict:
    """Counts that must repeat exactly for a seed, from the results alone."""
    counts = {
        "requests": len(outcomes),
        "evaluations": 0,
        "fits": 0,
        "fit_rows": 0,
        "store_hits": 0,
        "store_misses": 0,
        "store_puts": puts,
    }
    for o in outcomes:
        if o.result is None:
            continue
        if o.request.kind in ("hit", "miss"):
            counts["store_hits" if o.store_hit else "store_misses"] += 1
        telemetry = o.result.search.telemetry
        if o.store_hit or telemetry is None:
            continue
        counts["evaluations"] += int(telemetry.totals()["evaluations"])
        if o.result.search.searcher == "surf":
            # One refit on the whole history after every batch.
            seen = 0
            for record in telemetry.records:
                seen += record.batch_size
                counts["fits"] += 1
                counts["fit_rows"] += seen
    return counts


def check_identity(key: dict, counts: dict) -> str | None:
    """Compare with the counts an earlier run of the same seed recorded."""
    IDENTITY_DIR.mkdir(parents=True, exist_ok=True)
    name = "{workload}-seed{seed}-sec{seconds}-{code}.json".format(**key)
    path = IDENTITY_DIR / name
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return f"work differs from an earlier run of this seed: {before} != {counts}"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return None


# ----------------------------------------------------------------------
# Set-up


class RunState:
    """One run's arguments and, on serve-mixed, its service and store."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = args.workload
        self.workdir = Path(args.workdir)
        self.service = None
        self.store = None

    def set_up(self) -> None:
        warmup = wl.warmup_request(self.workload)
        if self.workload == "serve-mixed":
            self.service, self.store = self.open_service(self.workdir / self.args.store)
            job = self.service.wait(
                self.service.submit(service_request(warmup)),
                timeout=REQUEST_TIMEOUT_S,
            )
            if job.state != "done":
                raise RuntimeError(f"warm-up request failed: {job.error}")
        else:
            tune_one(warmup, wl.warmup_settings(self.workload))

    @staticmethod
    def open_service(store_dir: Path):
        from repro.serve.service import TuningService
        from repro.serve.store import ResultStore

        store = ResultStore(store_dir)
        return TuningService(store, workers=wl.SERVE_WORKERS), store

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()

    # ------------------------------------------------------------------
    def run_phase(self, service=None, store=None, submitted=None):
        """One timed phase; returns (outcomes, wall, cpu, puts)."""
        a = self.args
        if self.workload == "serve-mixed":
            from repro.workloads import workload_names

            prepared = [
                [(r, service_request(r)) for r in stream]
                for stream in wl.serve_requests(a.seed, a.seconds, workload_names())
            ]
            before = len(store)
            outcomes, wall, cpu = timed(
                lambda: serve_phase(service, prepared, submitted)
            )
            return outcomes, wall, cpu, len(store) - before
        requests = wl.tune_requests(self.workload, a.seed, a.seconds)
        settings = wl.settings_for(self.workload)
        outcomes, wall, cpu = timed(lambda: tune_phase(requests, settings))
        return outcomes, wall, cpu, 0


# ----------------------------------------------------------------------
# Metrics


def end_to_end(outcomes, wall, cpu) -> tuple[dict, dict]:
    """(metrics, report notes): the values and how many samples back each."""
    n = len(outcomes)
    good = [o for o in outcomes if not o.failures]
    gflops = [o.result.gflops for o in good]
    metrics = {
        "requests_per_s": (n / wall, "1/s"),
        "latency_s.p50": (statistics.median(o.latency_s for o in outcomes), "s"),
        "cpu_s_per_request": (cpu / n, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "champion_gflops.gmean": (stats.gmean(gflops) if gflops else 0.0, "GFlops"),
        "sim_search_s.total": (
            math.fsum(o.result.search_seconds for o in good), "s"
        ),
    }
    notes = {name: f"n={n} requests" for name in metrics}
    notes["requests_per_s"] = f"n={n} requests in {wall:.3f} s"
    notes["peak_rss_mb"] = "n=1 process"
    notes["champion_gflops.gmean"] = f"n={len(gflops)} champions"
    notes["sim_search_s.total"] = f"n={len(good)} searches"
    return metrics, notes


def tail_line(outcomes) -> str:
    """The p99 latency when enough samples lie beyond it, else why not.

    Not in the JSON metrics: BENCHMARK.json gates every end-to-end metric
    on every workload, and a tune run (9-12 requests) cannot support a
    tail percentile.
    """
    n = len(outcomes)
    head = f"  {'latency_s.p99':34s} "
    if not stats.tail_ok(n, 99.0):
        return head + (
            f"{'-':>14s} {'s':10s} (n={n}, {stats.beyond(n, 99.0)} beyond p99: "
            f"fewer than {stats.MIN_BEYOND})"
        )
    value = stats.percentile([o.latency_s for o in outcomes], 99.0)
    return head + f"{value:14.6g} {'s':10s} (n={n}, {stats.beyond(n, 99.0)} beyond)"


def per_layer(traced, untraced_wall: float) -> dict:
    """Calls, self seconds and work counts per request, ratios, remainders."""
    tracer = traced.tracer
    n = len(traced.outcomes)
    total_wall = math.fsum(o.latency_s for o in traced.outcomes)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / n, "calls/req")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s/req")
    metrics["surf.fit.rows"] = (tracer.counts["surf.fit.rows"] / n, "rows/req")
    metrics["surf.predict.rows"] = (tracer.counts["surf.predict.rows"] / n, "rows/req")
    metrics["surf.evaluate.configs"] = (
        tracer.counts["surf.evaluate.configs"] / n, "configs/req"
    )
    metrics["autotune.request.self_s"] = (
        tracer.self_s["autotune.request"] / n, "s/req"
    )
    metrics["serve.store_open_s"] = (traced.store_open_s, "s")
    configs = tracer.counts["surf.evaluate.configs"]
    metrics["surf.useful_ratio"] = (
        tracer.counts["surf.evaluate.useful"] / configs if configs else 0.0, "ratio"
    )
    gets = tracer.calls["serve.store_get"]
    metrics["serve.hit_ratio"] = (
        tracer.counts["serve.store_get.hits"] / gets if gets else 0.0, "ratio"
    )
    metrics["serve.queue_wait_s.p50"] = (
        statistics.median(traced.queue_waits) if traced.queue_waits else 0.0, "s"
    )
    metrics["request.wall_s"] = (total_wall / n, "s/req")
    metrics["unattributed_s"] = ((total_wall - tracer.attributed_s()) / n, "s/req")
    metrics["obs.spans"] = (traced.obs_spans / n, "spans/req")
    # Same requests in both phases: the wall ratio is the throughput ratio.
    metrics["obs.tracing_overhead"] = (untraced_wall / traced.wall, "ratio")
    return metrics


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ----------------------------------------------------------------------
# Roles


def prefill(args) -> int:
    from repro.serve.store import ResultStore
    from repro.workloads import workload_names

    out = Path(args.workdir) / "prefill"
    store = ResultStore(out / "store")
    digests = {}
    for request in wl.prefill_requests(args.seed, workload_names()):
        result = tune_one(request, dict(wl.SWEEP_SETTINGS, result_store=store))
        digests[repr(request.key())] = result_digest(result)
    (out / "digests.json").write_text(json.dumps(digests))
    return 0


@dataclass
class TracedPhase:
    tracer: LayerTracer
    outcomes: list
    wall: float
    puts: int
    store_open_s: float = 0.0
    queue_waits: list = field(default_factory=list)
    #: spans and events the program's own tracer finished
    obs_spans: int = 0


def traced_phase(state: RunState) -> TracedPhase:
    """The timed phase again, on a fresh store copy, under the layer
    wrappers and with the program's own tracer (``repro.obs``) ambient,
    so the traced/untraced difference includes the program's tracing."""
    from repro.obs.tracer import Tracer, use_tracer

    tracer = LayerTracer()
    installed = Installed(tracer)
    service = store = None
    queue_waits: list = []
    submitted: dict = {}
    spans = Tracer()
    try:
        if state.workload == "serve-mixed":
            fresh = state.workdir / "store-traced"
            shutil.copytree(state.workdir / "prefill" / "store", fresh)
            service, store = RunState.open_service(fresh)
            factory = service._tuner_factory

            def timed_factory(request):
                queue_waits.append(time.perf_counter() - submitted.pop(id(request)))
                return factory(request)

            service._tuner_factory = timed_factory
        store_open_s = tracer.self_s["serve.store_open"]
        tracer.reset()
        with use_tracer(spans):
            outcomes, wall, _cpu, puts = state.run_phase(service, store, submitted)
    finally:
        installed.remove()
        if service is not None:
            service.shutdown()
    return TracedPhase(
        tracer, outcomes, wall, puts, store_open_s, queue_waits,
        len(spans.finished()),
    )


def traced_problems(state: RunState, traced: TracedPhase, outcomes, counts) -> list:
    """Traced work must equal untraced work, and the wrappers' own counts
    must equal the counts derived from the results."""
    problems = []
    if [result_digest(o.result) for o in outcomes if o.result] != [
        result_digest(o.result) for o in traced.outcomes if o.result
    ]:
        problems.append("traced champions/histories differ from untraced")
    traced_counts = work_counts(traced.outcomes, traced.puts)
    if traced_counts != counts:
        problems.append(f"traced work differs: {traced_counts} != {counts}")
    layer_counts = {
        "fits": traced.tracer.counts["surf.fit.fits"],
        "fit_rows": traced.tracer.counts["surf.fit.rows"],
        "evaluations": traced.tracer.counts["surf.evaluate.configs"],
    }
    expected = {k: counts[k] for k in layer_counts}
    if state.workload == "serve-mixed":
        # Sweep requests score whole timing tables, not evaluation batches.
        expected["evaluations"] = 0
    if layer_counts != expected:
        problems.append(f"layer counts {layer_counts} != results {expected}")
    if not traced.obs_spans:
        problems.append("the program's tracer recorded no spans")
    return problems


def main_run(args, state: RunState) -> int:
    loop_before = reference_loop_s()
    outcomes, wall, cpu, puts = state.run_phase(state.service, state.store)
    loop_after = reference_loop_s()
    state.close()
    stored = None
    if args.workload == "serve-mixed":
        stored = json.loads((state.workdir / "prefill" / "digests.json").read_text())
    einsum = EinsumCheck(args.seed)
    check_outcomes(outcomes, einsum, stored)
    counts = work_counts(outcomes, puts)
    identity = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "code": code_digest(),
    }
    problems = [p for p in [check_identity(identity, counts)] if p]
    report = [f"workload {args.workload} seed {args.seed}: {len(outcomes)} "
              f"requests, timed phase {wall:.2f} s"]

    if args.trace:
        traced = traced_phase(state)
        check_outcomes(traced.outcomes, einsum, stored)
        problems += traced_problems(state, traced, outcomes, counts)
        metrics = per_layer(traced, wall)
        n = len(traced.outcomes)
        notes = {name: f"n={n} traced requests" for name in metrics}
        report[0] += f"; traced phase {traced.wall:.2f} s"
        outcomes = outcomes + traced.outcomes
    else:
        metrics, notes = end_to_end(outcomes, wall, cpu)

    failed = [o for o in outcomes if o.failures]
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:34s} {value:14.6g} {unit:10s} ({notes[name]})")
    if not args.trace:
        report.append(tail_line(outcomes))
    report.append(
        f"  {'error_rate':34s} {len(failed) / len(outcomes):14.6g} {'ratio':10s} "
        f"(n={len(outcomes)}, {len(failed)} failed)"
    )
    for o in failed[:5]:
        report.append(f"  FAILED {o.request}: {'; '.join(o.failures)}")
    for problem in problems:
        report.append(f"  WORK-IDENTITY: {problem}")
    report.append("  work: " + json.dumps(counts, sort_keys=True))
    report.append("  env: " + json.dumps(
        dict(environment(), reference_loop_s=[loop_before, loop_after])
    ))
    print("\n".join(report), flush=True)
    result = {
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": as_json(metrics),
    }
    (state.workdir / "result.json").write_text(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prefill", "probe", "main"))
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--store", default=None,
                        help="serve-mixed: store directory inside --workdir")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The benchmark decides every knob: environment overrides of the
    # program (evaluation cache, worker counts, fault injection, result
    # store, ...) would change the work, so none reaches it.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    if args.role == "prefill":
        return prefill(args)
    state = RunState(args)
    try:
        state.set_up()
        print(f"READY {monotonic()!r}", flush=True)
        if args.role == "probe":
            return 0
        return main_run(args, state)
    finally:
        state.close()


if __name__ == "__main__":
    sys.exit(main())
