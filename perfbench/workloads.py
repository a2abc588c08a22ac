"""Seeded request lists for the three benchmark workloads.

Everything here is a pure function of the workload name, the seed and the
run length: the same arguments always give the same requests, in the same
order, so every run of a seed does identical work.  Nothing imports the
program under test; the request lists are plain data.

Each tune workload is built from *panels*.  A panel draws one request per
stratum with a balanced architecture assignment, so every run covers the
same mix of space sizes, variant counts and GPUs and only the member of
each stratum, the tuning seed and the order change with the seed.  Drawing
requests independently would let the mix (eqn1 at ~1 GFlops next to d2_*
at ~31 GFlops, 2.1 s next to 4.7 s requests) move the run-level numbers
more than any code change the benchmark is meant to catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ARCHS = ("gtx980", "k20", "c2050")

#: ``barracuda tune`` CLI defaults (SURF, 100 evals, batch 10, pool 2500).
TUNE_DEFAULT_SETTINGS = {
    "searcher": "surf",
    "max_evaluations": 100,
    "batch_size": 10,
    "pool_size": 2500,
    "backend": "loopnest",
}

#: SURF over a 10^5-configuration pool with a short evaluation budget.
BIGPOOL_SETTINGS = {
    "searcher": "surf",
    "max_evaluations": 40,
    "batch_size": 10,
    "pool_size": 100_000,
    "backend": "loopnest",
}

#: The service's tuning path: exact sweep over timing tables, per-op backend.
SWEEP_SETTINGS = {"searcher": "sweep", "backend": "auto"}

#: The 31 tunable workloads in strata of equal family and space size
#: (variant count for the contractions).  One tune-default panel takes one
#: member of each stratum.
TUNE_DEFAULT_STRATA = (
    ("eqn1",),
    ("tce_ex",),
    ("lg3", "lg3t"),
    ("s1_1", "s1_4", "s1_7"),
    ("s1_2", "s1_3", "s1_5", "s1_6", "s1_8", "s1_9"),
    ("d1_1", "d1_4", "d1_7"),
    ("d1_2", "d1_3", "d1_5", "d1_6", "d1_8", "d1_9"),
    ("d2_1", "d2_4", "d2_7"),
    ("d2_2", "d2_3", "d2_5", "d2_6", "d2_8", "d2_9"),
)

#: The only spaces with at least 10^5 configurations.
BIGPOOL_WORKLOADS = ("eqn1", "lg3", "lg3t", "tce_ex")

#: Contraction workloads: their champions are checked against numpy.einsum.
CONTRACTION_WORKLOADS = ("eqn1", "tce_ex")

#: Share of serve-mixed requests that tune a new key (one per block of 5).
MISS_EVERY = 5
SERVE_CLIENTS = 2
SERVE_WORKERS = 2

#: Nominal timed-phase seconds of one panel on a 2-CPU box, and the
#: nominal serve-mixed throughput.  They turn ``--seconds`` into a fixed
#: request count, so the work of a run never depends on the speed of
#: the machine it happens to run on.
PANEL_SECONDS = {"tune-default": 30.0, "tune-bigpool": 24.0}
SERVE_NOMINAL_RPS = 120.0

#: Seeds of the keys a serve-mixed run touches live in disjoint ranges,
#: so no two clients (and no prefill and miss) can ever share a key and
#: in-flight deduplication can never merge two requests.
_CLIENT_SEED_SPAN = 10_000_000
_MISS_SEED_OFFSET = 5_000_000
WARMUP_SEED = 99_000_000


@dataclass(frozen=True)
class Request:
    """One tuning request as the benchmark hands it to the program."""

    workload: str
    arch: str
    seed: int
    #: "tune" (tune workloads), "hit" or "miss" (serve-mixed)
    kind: str = "tune"
    client: int = 0

    def key(self) -> tuple[str, str, int]:
        return (self.workload, self.arch, self.seed)


WORKLOADS = ("tune-default", "tune-bigpool", "serve-mixed")


def settings_for(workload: str) -> dict:
    """Autotuner settings every request of ``workload`` uses."""
    return {
        "tune-default": TUNE_DEFAULT_SETTINGS,
        "tune-bigpool": BIGPOOL_SETTINGS,
        "serve-mixed": SWEEP_SETTINGS,
    }[workload]


def warmup_request(workload: str) -> Request:
    """The fixed untimed request every set-up runs (seed-independent)."""
    if workload == "tune-default":
        return Request("s1_2", "gtx980", 0)
    if workload == "tune-bigpool":
        return Request("lg3", "c2050", 0)
    if workload == "serve-mixed":
        return Request("lg3", "gtx980", WARMUP_SEED, kind="miss")
    raise ValueError(f"unknown workload {workload!r}")


#: Evaluation budget of a tune warm-up: two batches, so it fits and
#: predicts once more after the first refit, at a fraction of a request.
WARMUP_EVALUATIONS = 20


def warmup_settings(workload: str) -> dict:
    """Settings of the warm-up request: the workload's, on a small budget."""
    settings = dict(settings_for(workload))
    if settings["searcher"] == "surf":
        settings["max_evaluations"] = WARMUP_EVALUATIONS
    return settings


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _balanced_archs(rng: random.Random, count: int) -> list[str]:
    """``count`` architectures, each used ``count // 3`` or one more times."""
    archs = [ARCHS[i % len(ARCHS)] for i in range(count)]
    rng.shuffle(archs)
    return archs


def panel_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PANEL_SECONDS[workload]))


def tune_default_requests(seed: int, seconds: float) -> list[Request]:
    out: list[Request] = []
    for panel in range(panel_count("tune-default", seconds)):
        rng = _rng("tune-default", seed, panel)
        archs = _balanced_archs(rng, len(TUNE_DEFAULT_STRATA))
        batch = [
            Request(rng.choice(stratum), arch, rng.randrange(2**31))
            for stratum, arch in zip(TUNE_DEFAULT_STRATA, archs)
        ]
        rng.shuffle(batch)
        out.extend(batch)
    return out


def tune_bigpool_requests(seed: int, seconds: float) -> list[Request]:
    out: list[Request] = []
    for panel in range(panel_count("tune-bigpool", seconds)):
        rng = _rng("tune-bigpool", seed, panel)
        batch = [
            Request(name, arch, rng.randrange(2**31))
            for name in BIGPOOL_WORKLOADS
            for arch in ARCHS
        ]
        rng.shuffle(batch)
        out.extend(batch)
    return out


def _client_base(seed: int, client: int) -> int:
    return client * _CLIENT_SEED_SPAN + _rng("serve-base", seed).randrange(1000) * 1000


def prefill_requests(seed: int, names: list[str]) -> list[Request]:
    """Keys stored before any serve-mixed timing: each workload once per client."""
    out: list[Request] = []
    for client in range(SERVE_CLIENTS):
        rng = _rng("serve-prefill", seed, client)
        archs = _balanced_archs(rng, len(names))
        base = _client_base(seed, client)
        for i, (name, arch) in enumerate(zip(names, archs)):
            out.append(Request(name, arch, base + i, kind="miss", client=client))
    return out


def serve_requests(
    seed: int, seconds: float, names: list[str]
) -> list[list[Request]]:
    """Per-client request streams: 4 hits of the client's own prefilled
    keys to 1 miss of a key nobody has stored, in balanced cycles."""
    per_client = MISS_EVERY * max(
        1, round(seconds * SERVE_NOMINAL_RPS / SERVE_CLIENTS / MISS_EVERY)
    )
    prefilled = prefill_requests(seed, names)
    # One miss slot per block, the same for every client: the clients run
    # in lockstep, so a slot holds either hits only or misses only.
    slots = _rng("serve-slots", seed)
    miss_slots = [slots.randrange(MISS_EVERY) for _ in range(per_client // MISS_EVERY)]
    streams = []
    for client in range(SERVE_CLIENTS):
        rng = _rng("serve-stream", seed, client)
        own = [
            Request(r.workload, r.arch, r.seed, kind="hit", client=client)
            for r in prefilled
            if r.client == client
        ]
        hits: list[Request] = []
        misses: list[Request] = []
        miss_seed = _client_base(seed, client) + _MISS_SEED_OFFSET
        while len(hits) < per_client:
            hits.extend(rng.sample(own, len(own)))
        while len(misses) < per_client // MISS_EVERY:
            cycle = rng.sample(names, len(names))
            for name, arch in zip(cycle, _balanced_archs(rng, len(cycle))):
                misses.append(
                    Request(name, arch, miss_seed, kind="miss", client=client)
                )
                miss_seed += 1
        stream: list[Request] = []
        for block in range(per_client // MISS_EVERY):
            chunk = hits[block * (MISS_EVERY - 1):(block + 1) * (MISS_EVERY - 1)]
            chunk.insert(miss_slots[block], misses[block])
            stream.extend(chunk)
        streams.append(stream)
    return streams


def tune_requests(workload: str, seed: int, seconds: float) -> list[Request]:
    if workload == "tune-default":
        return tune_default_requests(seed, seconds)
    if workload == "tune-bigpool":
        return tune_bigpool_requests(seed, seconds)
    raise ValueError(f"{workload!r} is not a tune workload")
