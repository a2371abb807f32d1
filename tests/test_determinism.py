"""Cross-component determinism: identical seeds give identical runs.

The whole experimental methodology rests on this — virtual time plus
seeded RNG streams must make every solver bit-reproducible, and
different components must not perturb each other's streams.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import lkh_style, multilevel_clk, tour_merging
from repro.cli import main
from repro.core import solve
from repro.localsearch import chained_lk
from repro.tsp import generators


def _fresh_instance(seed=77):
    # New object each time: shared caches must not affect outcomes.
    return generators.clustered(50, rng=seed)


class TestSeedDeterminism:
    def test_clk_identical_across_fresh_instances(self):
        a = chained_lk(_fresh_instance(), max_kicks=12, rng=5)
        b = chained_lk(_fresh_instance(), max_kicks=12, rng=5)
        assert a.length == b.length
        assert a.trace == b.trace
        assert np.array_equal(a.tour.order, b.tour.order)

    def test_solve_identical_across_fresh_instances(self):
        a = solve(_fresh_instance(), budget_vsec_per_node=0.4, n_nodes=4,
                  rng=6)
        b = solve(_fresh_instance(), budget_vsec_per_node=0.4, n_nodes=4,
                  rng=6)
        assert a.best_length == b.best_length
        assert a.global_trace == b.global_trace
        assert a.reasons == b.reasons

    def test_baselines_deterministic(self):
        inst = _fresh_instance()
        assert (lkh_style(inst, budget_vsec=0.8, rng=1).length
                == lkh_style(inst, budget_vsec=0.8, rng=1).length)
        assert (multilevel_clk(inst, rng=2).length
                == multilevel_clk(inst, rng=2).length)
        assert (tour_merging(inst, n_tours=3, clk_kicks=5, rng=3).length
                == tour_merging(inst, n_tours=3, clk_kicks=5, rng=3).length)

    def test_interleaving_does_not_perturb_streams(self):
        """Running another seeded solver in between must not change a
        run's outcome (no hidden global RNG)."""
        inst = _fresh_instance()
        first = chained_lk(inst, max_kicks=8, rng=9).length
        solve(inst, budget_vsec_per_node=0.2, n_nodes=2, topology="ring",
              rng=123)  # interloper
        second = chained_lk(inst, max_kicks=8, rng=9).length
        assert first == second

    def test_numpy_global_seed_irrelevant(self):
        inst = _fresh_instance()
        np.random.seed(1)
        a = chained_lk(inst, max_kicks=6, rng=4).length
        np.random.seed(2)
        b = chained_lk(inst, max_kicks=6, rng=4).length
        assert a == b


#: CLI runs whose ``--json`` output must stay byte for byte what it was
#: when recorded: name -> (argv, best length, SHA-256 of the output).
#: Together they cover the serial and batched CLK loop, the EA node's
#: CLK calls and, with ``--cv 1 --cr 2``, its perturbation escalation
#: and restarts.  Recorded with numpy 2.4; a numpy whose streams give
#: other tours fails them, which is a determinism finding, not a reason
#: to record new values.
PINNED_PROBES = {
    "solve": (
        ["solve", "fl150", "--budget", "1", "--nodes", "4", "--seed", "3"],
        81438,
        "8d568cac5433761c293f2e7e8e148e586466b6392a1a2aefb2c7c0b941add78c",
    ),
    "clk_batched": (
        ["clk", "fl150", "--budget", "4", "--batch-width", "2", "--seed", "0"],
        81314,
        "a23ea3f9135d801109f041928b9e31e3853957ae153922bf65659e725dde1fca",
    ),
    "solve_restarts": (
        ["solve", "fl150", "--budget", "4", "--nodes", "4", "--seed", "2",
         "--cv", "1", "--cr", "2"],
        81397,
        "4c44aee2534ef6c4ee0794ca739c718a1807c3f6916e2f8f71e82e9571a1e968",
    ),
    "solve_restarts_batched": (
        ["solve", "fl150", "--budget", "4", "--nodes", "4", "--seed", "2",
         "--cv", "1", "--cr", "2", "--batch-width", "2"],
        81332,
        "6d616378d563b0896e2023e98034cb0877b9b4e0968f53889b12b829eff39123",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PROBES))
def test_pinned_probe_output_is_byte_identical(name, capsys):
    argv, length, digest = PINNED_PROBES[name]
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out)
    assert result.get("best_length", result.get("length")) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest
