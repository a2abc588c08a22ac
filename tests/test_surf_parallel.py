"""Tests for the simulated rig's parallel batch lanes (``--workers``).

Algorithm 2 evaluates each batch "in parallel" on the tuning rig; the
evaluator models that with ``batch_parallelism`` lanes.  The lanes shape
only the simulated search wall — never which points are evaluated or what
they score.
"""

import pytest

from repro.autotune import Autotuner
from repro.gpusim.arch import GTX980
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf.evaluator import ConfigurationEvaluator
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace


@pytest.fixture
def setup(two_op_program):
    model = GPUPerformanceModel(GTX980)
    space = TuningSpace([decide_search_space(two_op_program)])
    pool = [space.config_at(g) for g in range(space.size())]
    return two_op_program, model, pool


def _tune(program, **kw):
    return Autotuner(
        GTX980, max_evaluations=30, pool_size=300, seed=0, **kw
    ).tune_program(program)


class TestParallelBatchEvaluator:
    def test_results_identical_to_serial(self, setup):
        program, model, pool = setup
        serial = ConfigurationEvaluator([program], model, seed=0)
        par = ConfigurationEvaluator(
            [program], model, seed=0, batch_parallelism=4
        )
        assert par.evaluate_batch(pool[:12]) == serial.evaluate_batch(pool[:12])
        assert par.evaluation_count == serial.evaluation_count == 12

    def test_wall_accounting_uses_worker_lanes(self, setup):
        program, model, pool = setup
        serial = ConfigurationEvaluator([program], model, seed=0)
        par = ConfigurationEvaluator(
            [program], model, seed=0, batch_parallelism=4
        )
        serial.evaluate_batch(pool[:8])
        par.evaluate_batch(pool[:8])
        assert par.simulated_wall_seconds >= serial.simulated_wall_seconds / 4
        assert par.simulated_wall_seconds < serial.simulated_wall_seconds / 3


class TestAutotunerWorkers:
    def test_history_identical_to_serial(self, two_op_program):
        # Lanes are accounting only: 4 lanes walk the serial course.
        a = _tune(two_op_program)
        b = _tune(two_op_program, batch_parallelism=4)
        assert a.search.history == b.search.history
        assert a.best_config == b.best_config
        assert a.seconds == b.seconds

    def test_workers_shrink_simulated_wall(self, two_op_program):
        a = _tune(two_op_program)
        b = _tune(two_op_program, batch_parallelism=4)
        # 10-point batches over 4 lanes: ~3 cycles per batch vs 10 serial.
        assert b.search_seconds < a.search_seconds * 0.35

    def test_batch_parallelism_forwarded(self, two_op_program):
        # Regression: the constructor knob used to be dead from the driver
        # (never forwarded to ConfigurationEvaluator).
        a = _tune(two_op_program)
        b = _tune(two_op_program, batch_parallelism=5)
        assert b.search_seconds < a.search_seconds * 0.3
        # Accounting only — the search itself is unchanged.
        assert a.search.history == b.search.history
