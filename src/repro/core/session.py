"""Resumable, cancellable solve sessions.

:func:`repro.core.driver.solve` is the one-call batch API: it builds a
simulator and blocks until the run is over.  The service layer
(:mod:`repro.service`) needs the same run as a *session object* it can
drive a few scheduler steps at a time, interleave with other jobs on an
event loop, cancel mid-flight, and observe while it runs.  That is what
:class:`SolveSession` provides — the driver's body, split out and made
cooperative:

* :meth:`run_steps` advances the discrete-event loop by a bounded number
  of steps and returns whether the run finished — the cooperative seam
  an asyncio scheduler yields between;
* :meth:`cancel` requests termination; the next slice finalizes with
  per-node reason ``"cancelled"``;
* ``on_incumbent`` is called as ``(vsec, length, node_id)`` every time
  the network-wide best tour improves — the event stream behind
  ``stream_incumbents`` in the service (and the same improvement
  semantics as :class:`repro.core.events.EventLog`);
* :attr:`consumed_vsec` exposes total virtual CPU for tenant budget
  accounting.

Determinism contract: the schedule is a pure function of node clocks and
the injected RNG, so a session sliced into arbitrary step chunks — or
cancelled and inspected mid-run — produces **bit-identical** tours to a
one-shot :func:`~repro.core.driver.solve` with the same seed.  The
driver itself runs through a session, so the two paths cannot drift.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Optional

from ..distributed.simulator import NETWORK_PARAMS, SimulationResult, Simulator
from .node import NodeConfig

__all__ = ["RUN_PARAMS", "SolveSession", "split_run_params"]

#: The per-node run parameters: the fields of :class:`NodeConfig`.
_NODE_PARAMS = frozenset(f.name for f in fields(NodeConfig))

#: Every run parameter a session accepts by name.
RUN_PARAMS = _NODE_PARAMS | NETWORK_PARAMS


def split_run_params(params: dict) -> tuple[NodeConfig, dict]:
    """Route run parameters to a :class:`NodeConfig` and the
    :class:`~repro.distributed.simulator.Simulator` network keywords.

    Raises ``TypeError`` naming any unknown parameter, and whatever
    :class:`NodeConfig` raises for a bad value.
    """
    unknown = sorted(set(params) - RUN_PARAMS)
    if unknown:
        raise TypeError(
            f"unexpected run parameter(s) {unknown}; "
            f"known: {sorted(RUN_PARAMS)}"
        )
    config = NodeConfig(
        **{k: v for k, v in params.items() if k in _NODE_PARAMS}
    )
    network = {k: v for k, v in params.items() if k in NETWORK_PARAMS}
    return config, network


class SolveSession:
    """One distributed CLK run as a steppable object.

    ``params`` are the run parameters.  Each is declared, with its
    default, in exactly one place: a field of :class:`NodeConfig` (kick,
    ``c_v``, ``c_r``, ``inner_kicks``, ``lk_config``, ``target_length``,
    ``backbone_support``, ``free_init``, ``kick_batch_width``) or a
    network keyword of :class:`~repro.distributed.simulator.Simulator`
    (``topology``, ``latency``, ``churn``, ``dissemination``,
    ``gossip_fanout``).  An unknown name raises ``TypeError``.  The
    session owns the simulator and is the only code that drives one,
    through the ``begin``/``step``/``finalize`` seam.
    """

    def __init__(
        self,
        instance,
        budget_vsec_per_node: float,
        n_nodes: int = 8,
        *,
        rng=None,
        on_incumbent: Optional[Callable[[float, int, int], None]] = None,
        **params,
    ):
        if budget_vsec_per_node <= 0:
            raise ValueError("budget must be positive")
        config, network = split_run_params(params)
        self.instance = instance
        self.budget_vsec_per_node = float(budget_vsec_per_node)
        self.simulator = Simulator(
            instance,
            n_nodes=n_nodes,
            node_config=config,
            rng=rng,
            **network,
        )
        self.on_incumbent = on_incumbent
        self._started = False
        self._cancelled = False
        self._result: Optional[SimulationResult] = None
        self._best_length: Optional[int] = None

    # -- state ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the run has produced its result."""
        return self._result is not None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def best_length(self) -> Optional[int]:
        """Best tour length seen anywhere in the network so far."""
        return self._best_length

    @property
    def consumed_vsec(self) -> float:
        """Total virtual CPU consumed across all nodes so far."""
        return self.simulator.consumed_vsec

    def cancel(self) -> None:
        """Request cooperative termination; takes effect on the next
        :meth:`run_steps` slice (which then finalizes and returns True)."""
        self._cancelled = True

    # -- driving -------------------------------------------------------------

    def _note_progress(self, node) -> None:
        length = node.best_length
        if length is None:
            return
        if self._best_length is None or length < self._best_length:
            self._best_length = length
            if self.on_incumbent is not None:
                self.on_incumbent(node.clock, length, node.node_id)

    def run_steps(self, max_steps: Optional[int] = None) -> bool:
        """Advance the run by at most ``max_steps`` scheduler steps.

        Returns True when the run is finished (result available),
        False when more work remains.  ``max_steps=None`` runs to
        completion.  Safe to call after completion (returns True).
        """
        if self._result is not None:
            return True
        sim = self.simulator
        if not self._started:
            sim.begin(self.budget_vsec_per_node)
            self._started = True
        steps = 0
        while max_steps is None or steps < max_steps:
            if self._cancelled:
                self._result = sim.finalize("cancelled")
                return True
            node = sim.step()
            if node is None:
                self._result = sim.finalize()
                return True
            self._note_progress(node)
            steps += 1
        return False

    def run(self) -> SimulationResult:
        """Run to completion (or until cancelled) and return the result."""
        self.run_steps(None)
        return self.result()

    def result(self) -> SimulationResult:
        """The finished run's result; raises until :attr:`finished`."""
        if self._result is None:
            raise RuntimeError("session has not finished; call run_steps()")
        return self._result
