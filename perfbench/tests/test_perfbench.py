"""Tests of the benchmark's own pieces.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402
import workloads as wl  # noqa: E402
from layers import Installed, LayerTracer  # noqa: E402

NAMES = [
    "eqn1", "lg3", "lg3t", "tce_ex",
    *(f"{family}_{i}" for family in ("s1", "d1", "d2") for i in range(1, 10)),
]


class TestRequestGeneration:
    def test_strata_cover_every_workload_once(self):
        members = [name for stratum in wl.TUNE_DEFAULT_STRATA for name in stratum]
        assert sorted(members) == sorted(NAMES)

    def test_strata_match_the_registry(self):
        workloads = pytest.importorskip("repro.workloads")
        assert sorted(workloads.workload_names()) == sorted(NAMES)

    @pytest.mark.parametrize("workload", ["tune-default", "tune-bigpool"])
    def test_same_seed_same_requests(self, workload):
        assert wl.tune_requests(workload, 7, 30) == wl.tune_requests(workload, 7, 30)
        assert wl.tune_requests(workload, 7, 30) != wl.tune_requests(workload, 8, 30)

    def test_tune_default_panel_is_balanced(self):
        for seed in range(20):
            panel = wl.tune_requests("tune-default", seed, 30)
            assert len(panel) == len(wl.TUNE_DEFAULT_STRATA)
            for stratum in wl.TUNE_DEFAULT_STRATA:
                assert sum(r.workload in stratum for r in panel) == 1
            assert Counter(r.arch for r in panel) == {a: 3 for a in wl.ARCHS}

    def test_bigpool_panel_is_the_full_factorial(self):
        panel = wl.tune_requests("tune-bigpool", 3, 30)
        assert sorted((r.workload, r.arch) for r in panel) == sorted(
            (w, a) for w in wl.BIGPOOL_WORKLOADS for a in wl.ARCHS
        )

    def test_run_length_scales_panels(self):
        assert len(wl.tune_requests("tune-bigpool", 1, 48)) == 24
        assert len(wl.tune_requests("tune-default", 1, 1)) == 9

    @pytest.mark.parametrize("workload", ["tune-default", "tune-bigpool"])
    def test_warmup_changes_only_the_budget(self, workload):
        warm = wl.warmup_settings(workload)
        assert warm["max_evaluations"] == wl.WARMUP_EVALUATIONS
        assert dict(warm, max_evaluations=None) == dict(
            wl.settings_for(workload), max_evaluations=None
        )
        assert wl.settings_for(workload)["max_evaluations"] > wl.WARMUP_EVALUATIONS

    def test_serve_streams(self):
        streams = wl.serve_requests(5, 10, NAMES)
        assert streams == wl.serve_requests(5, 10, NAMES)
        prefilled = {r.key(): r.client for r in wl.prefill_requests(5, NAMES)}
        seen_misses = set()
        for client, stream in enumerate(streams):
            assert len(stream) % wl.MISS_EVERY == 0
            for block in range(0, len(stream), wl.MISS_EVERY):
                kinds = [r.kind for r in stream[block:block + wl.MISS_EVERY]]
                assert kinds.count("miss") == 1
            for r in stream:
                if r.kind == "hit":
                    assert prefilled[r.key()] == client
                else:
                    assert r.key() not in prefilled
                    assert r.key() not in seen_misses
                    seen_misses.add(r.key())
        # Lockstep clients: every slot is a hit for all clients or a miss
        # for all clients.
        assert len({len(stream) for stream in streams}) == 1
        for slot in zip(*streams):
            assert len({r.kind for r in slot}) == 1
        assert wl.warmup_request("serve-mixed").key() not in prefilled
        assert wl.warmup_request("serve-mixed").key() not in seen_misses

    def test_serve_prefill_keys_are_disjoint_per_client(self):
        keys = [r.key() for r in wl.prefill_requests(9, NAMES)]
        assert len(keys) == len(set(keys)) == wl.SERVE_CLIENTS * len(NAMES)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 99) == 99
        assert stats.percentile(values, 100) == 100
        assert stats.percentile([3.0], 99) == 3.0

    def test_ten_beyond_rule(self):
        assert stats.beyond(1000, 99) == 10
        assert stats.tail_ok(1000, 99)
        assert stats.beyond(999, 99) == 9
        assert not stats.tail_ok(999, 99)
        assert not stats.tail_ok(12, 99)

    def test_spread_uses_exclusive_quartiles(self):
        s = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
        assert s["iqr_share"] == pytest.approx(1.0)
        assert s["max_over_min"] == 10.0

    def test_gmean(self):
        assert stats.gmean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            stats.gmean([1.0, 0.0])


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


class TestSelfTime:
    def test_nested_spans_and_unattributed_remainder(self):
        # request wall 0..12; outer layer 1..11 holding inner 3..6 and 7..8
        tracer = LayerTracer(clock=FakeClock(1, 3, 6, 7, 8, 11))
        outer = tracer.enter("outer")
        inner = tracer.enter("inner")
        tracer.exit(inner)
        inner = tracer.enter("inner")
        tracer.exit(inner)
        tracer.exit(outer)
        assert tracer.self_s == {"outer": 6.0, "inner": 4.0}
        assert tracer.calls == {"outer": 1, "inner": 2}
        wall = 12.0
        unattributed = wall - tracer.attributed_s()
        assert unattributed == 2.0
        assert sum(tracer.self_s.values()) + unattributed == wall

    def test_threads_keep_their_own_stacks(self):
        # client span 0..10 on one thread, worker span 2..7 on another,
        # both open at once: neither may become the other's child.
        ticks = {"client": [0.0, 10.0], "worker": [2.0, 7.0]}
        tracer = LayerTracer(
            clock=lambda: ticks[threading.current_thread().name].pop(0)
        )
        both_open = threading.Barrier(2)

        def span(layer):
            frame = tracer.enter(layer)
            both_open.wait(timeout=5)
            tracer.exit(frame)

        thread = threading.Thread(target=span, args=("worker",), name="worker")
        thread.start()
        client = threading.Thread(target=span, args=("client",), name="client")
        client.start()
        thread.join(timeout=5)
        client.join(timeout=5)
        assert not thread.is_alive() and not client.is_alive()
        assert tracer.self_s == {"client": 10.0, "worker": 5.0}


class TestInstalled:
    def _module(self):
        module = types.ModuleType("perfbench_fake_layer")

        def leaf(x):
            return x + 1

        class Base:
            def inherited(self, x):
                return module.leaf(x) * 2

        class Thing(Base):
            @classmethod
            def build(cls, x):
                return cls().inherited(x)

        module.leaf, module.Base, module.Thing = leaf, Base, Thing
        return module

    def test_wraps_and_restores(self, monkeypatch):
        module = self._module()
        monkeypatch.setitem(sys.modules, module.__name__, module)
        originals = (module.leaf, module.Thing.__dict__["build"])
        tracer = LayerTracer(clock=FakeClock(0, 1, 2, 5, 6, 10))
        installed = Installed(tracer, patches=(
            (module.__name__, None, "leaf", "leaf", None),
            (module.__name__, "Thing", "inherited", "mid",
             lambda args, result: {"mid.items": args[1], "mid.out": result}),
            (module.__name__, "Thing", "build", "top", None),
        ))
        try:
            assert module.Thing.build(3) == 8
        finally:
            installed.remove()
        assert tracer.calls == {"top": 1, "mid": 1, "leaf": 1}
        assert tracer.self_s == {"top": 5.0, "mid": 2.0, "leaf": 3.0}
        assert tracer.counts == {"mid.items": 3, "mid.out": 8}
        assert (module.leaf, module.Thing.__dict__["build"]) == originals
        assert "inherited" not in module.Thing.__dict__
        assert module.Thing.build(3) == 8
