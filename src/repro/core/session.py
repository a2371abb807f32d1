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

from typing import Callable, Optional

from ..distributed.network import LatencyModel
from ..distributed.simulator import SimulationResult, Simulator
from ..localsearch.lin_kernighan import LKConfig
from .node import NodeConfig

__all__ = ["SolveSession", "build_node_config"]


def build_node_config(
    kick: str = "random_walk",
    c_v: int = 64,
    c_r: int = 256,
    inner_kicks: int = 5,
    target_length: Optional[int] = None,
    lk_config: LKConfig | None = None,
    backbone_support: float = 0.0,
    free_init: bool = False,
    kick_batch_width: int = 1,
) -> NodeConfig:
    """Assemble a :class:`NodeConfig` from :func:`solve`-style kwargs."""
    return NodeConfig(
        kick=kick,
        c_v=c_v,
        c_r=c_r,
        inner_kicks=inner_kicks,
        lk_config=lk_config or LKConfig(),
        target_length=target_length,
        backbone_support=backbone_support,
        free_init=free_init,
        kick_batch_width=kick_batch_width,
    )


class SolveSession:
    """One distributed CLK run as a steppable object.

    Accepts the same keyword surface as :func:`repro.core.driver.solve`
    (which is now a thin wrapper over this class).  The session owns a
    :class:`~repro.distributed.simulator.Simulator` and drives it
    through the ``begin``/``step``/``finalize`` seam.
    """

    def __init__(
        self,
        instance,
        budget_vsec_per_node: float,
        n_nodes: int = 8,
        kick: str = "random_walk",
        c_v: int = 64,
        c_r: int = 256,
        inner_kicks: int = 5,
        topology: str | dict = "hypercube",
        target_length: Optional[int] = None,
        lk_config: LKConfig | None = None,
        latency: LatencyModel | None = None,
        backbone_support: float = 0.0,
        free_init: bool = False,
        churn=None,
        dissemination: str = "broadcast",
        gossip_fanout: int = 3,
        kick_batch_width: int = 1,
        rng=None,
        on_incumbent: Optional[Callable[[float, int, int], None]] = None,
    ):
        if budget_vsec_per_node <= 0:
            raise ValueError("budget must be positive")
        config = build_node_config(
            kick=kick, c_v=c_v, c_r=c_r, inner_kicks=inner_kicks,
            target_length=target_length, lk_config=lk_config,
            backbone_support=backbone_support, free_init=free_init,
            kick_batch_width=kick_batch_width,
        )
        self.instance = instance
        self.budget_vsec_per_node = float(budget_vsec_per_node)
        self.simulator = Simulator(
            instance,
            n_nodes=n_nodes,
            node_config=config,
            topology=topology,
            latency=latency,
            churn=churn,
            dissemination=dissemination,
            gossip_fanout=gossip_fanout,
            rng=rng,
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
