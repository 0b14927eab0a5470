"""Per-layer host-time ledger for the simulator benchmark.

The benchmark attributes host time to the simulator's modules without
editing them.  :class:`Instrumentation` patches the public registration
points (``Transport.bind`` handlers, ``Simulator.schedule`` /
``schedule_at`` / ``timer`` / ``periodic`` callbacks, ``spawn`` process
bodies) so every callback runs inside a span of the layer whose module
defined it, and wraps a fixed set of leaf functions (message sizing,
transmission, the transport calls, metric sampling, trace bookkeeping,
the kernel's location maps and the fast-forward contracts) in spans of
their own layer.  ``Simulator.run`` is itself a ``sim.core`` span, so
the engine's own time is what the run loop spends outside callbacks.

Spans are accounted on the fly by :class:`Ledger`: a span's self time is
its duration minus the time covered by its child spans.  Only the
per-layer and per-edge totals stay in memory; they are written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Generator
from typing import Any, Callable

#: Layers reported by the benchmark, named after the simulator's modules.
#: Code from any other module (kernel daemon base class, config,
#: security, host OS, the benchmark's own harness code) is ``other``.
LAYERS = (
    "sim.core", "sim.process", "sim.trace",
    "cluster.network", "cluster.transport", "cluster.message", "cluster.metrics",
    "kernel.api", "kernel.quiesce", "kernel.group", "kernel.events",
    "kernel.bulletin", "kernel.checkpoint", "kernel.detectors", "kernel.ppm",
    "userenv.monitoring", "userenv.business",
    "other",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
_CORE = _INDEX["sim.core"]


def layer_of_module(module: str) -> str:
    """``repro.kernel.bulletin.service`` -> ``kernel.bulletin``; unknown -> ``other``."""
    parts = module.split(".")
    if len(parts) >= 3 and parts[0] == "repro":
        name = f"{parts[1]}.{parts[2]}"
        if name in _INDEX:
            return name
    return "other"


def layer_of_callback(callback: Any) -> str:
    """Layer of the module that defined ``callback``.

    A bound method is attributed to its instance's class, so a daemon's
    inherited base-class method counts for the daemon's own service.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        return layer_of_module(type(owner).__module__)
    return layer_of_module(getattr(callback, "__module__", None) or "")


class Ledger:
    """Online span accounting: calls, self time and parent->child edges.

    ``enter(layer)`` opens a span, ``exit()`` closes the innermost one.
    On close, the span's duration minus its children's durations is added
    to the layer's self time, and its whole duration is charged to the
    parent as child time.  ``clock`` is injectable so the arithmetic can
    be checked against a synthetic span set.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list] = []  # [layer index, start, child seconds]
        self.reset()

    def enter(self, layer: int) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent is not None else -1, layer)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, duration]
        else:
            edge[0] += 1
            edge[1] += duration

    def reset(self) -> None:
        """Zero the totals; only legal between spans."""
        if self._stack:
            raise RuntimeError("Ledger.reset() with open spans")
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: (parent layer index, child layer index) -> [spans, total seconds];
        #: parent -1 is "no open span".
        self.edges: dict[tuple[int, int], list] = {}

    def layers(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` for every layer."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(LAYERS)
        }

    def edge_table(self) -> list[dict[str, Any]]:
        """Parent -> child span totals, largest first."""
        rows = [
            {"parent": LAYERS[p] if p >= 0 else "-", "child": LAYERS[c],
             "spans": n, "total_s": s}
            for (p, c), (n, s) in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["total_s"])


class _TracedBody(Generator):
    """A process body whose every resumption is a span of its layer."""

    def __init__(self, body: Generator, ledger: Ledger, layer: int) -> None:
        self._body = body
        self._ledger = ledger
        self._layer = layer
        self.__name__ = getattr(body, "__name__", "proc")

    def send(self, value: Any) -> Any:
        self._ledger.enter(self._layer)
        try:
            return self._body.send(value)
        finally:
            self._ledger.exit()

    def throw(self, *args: Any) -> Any:
        self._ledger.enter(self._layer)
        try:
            return self._body.throw(*args)
        finally:
            self._ledger.exit()

    def close(self) -> None:
        self._ledger.enter(self._layer)
        try:
            self._body.close()
        finally:
            self._ledger.exit()


class Instrumentation:
    """Installs and removes the benchmark's wrappers.

    Install before the simulator, cluster and kernel are built: handlers
    and periodic callbacks are wrapped when they are registered.  Besides
    the span ledger it keeps the message ledger (messages and bytes per
    network and ``mtype`` accepted by ``Network.transmit``), the simulated
    send->arrival delay of delivered messages, and the fast-forward
    contract counts.
    """

    def __init__(self) -> None:
        self.ledger = Ledger()
        self._saved: list[tuple[Any, str, Any]] = []
        self.reset_counts()

    def reset_counts(self) -> None:
        """Start a measured phase: zero every total (no span may be open)."""
        self.ledger.reset()
        self.messages: dict[tuple[str, str], list[int]] = {}
        self.delay_sum = 0.0
        self.delivered = 0
        self.can_skip_calls = 0
        self.skips = 0

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, func: Callable, replacement: Callable) -> None:
        """Replace ``func`` in every loaded ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _leaf(self, layer: str, func: Callable) -> Callable:
        ledger = self.ledger
        index = _INDEX[layer]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            ledger.enter(index)
            try:
                return func(*args, **kwargs)
            finally:
                ledger.exit()

        return traced

    def wrap_callback(self, callback: Callable) -> Callable:
        """``callback`` inside a span of its defining layer (engine
        internals are left alone: their time is the engine's own)."""
        index = _INDEX[layer_of_callback(callback)]
        if index == _CORE:
            return callback
        ledger = self.ledger

        def traced(*args):
            ledger.enter(index)
            try:
                return callback(*args)
            finally:
                ledger.exit()

        return traced

    def install(self) -> None:
        """Patch the registration points and leaf functions."""
        from repro.cluster import message as message_mod
        from repro.cluster.metrics import ResourceModel
        from repro.cluster.network import Network
        from repro.cluster.transport import Transport
        from repro.kernel.api import PhoenixKernel
        from repro.kernel.quiesce import DetectorExportContract, WdBeatContract
        from repro.sim.core import Simulator
        from repro.sim.trace import Trace

        if self._saved:
            raise RuntimeError("instrumentation already installed")
        wrap = self.wrap_callback
        ledger = self.ledger
        leaf = self._leaf

        # Registration points: callbacks and handlers keep their layer.
        schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
        timer, periodic, spawn = Simulator.timer, Simulator.periodic, Simulator.spawn
        bind = Transport.bind

        def traced_schedule(sim, delay, callback, *args, **kwargs):
            return schedule(sim, delay, wrap(callback), *args, **kwargs)

        def traced_schedule_at(sim, when, callback, *args, **kwargs):
            return schedule_at(sim, when, wrap(callback), *args, **kwargs)

        def traced_timer(sim, delay, callback, *args, **kwargs):
            return timer(sim, delay, wrap(callback), *args, **kwargs)

        def traced_periodic(sim, interval, callback, **kwargs):
            return periodic(sim, interval, wrap(callback), **kwargs)

        def traced_spawn(sim, body, name=""):
            frame = getattr(body, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame is not None else ""
            return spawn(sim, _TracedBody(body, ledger, _INDEX[layer_of_module(module)]), name)

        def traced_bind(transport, node_id, port, handler, owner=None):
            return bind(transport, node_id, port, wrap(handler), owner)

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "timer", traced_timer)
        self._patch(Simulator, "periodic", traced_periodic)
        self._patch(Simulator, "spawn", traced_spawn)
        self._patch(Transport, "bind", traced_bind)
        self._patch(Simulator, "run", leaf("sim.core", Simulator.run))

        # Leaf functions.
        self._patch_function(message_mod.estimate_size,
                             leaf("cluster.message", message_mod.estimate_size))
        for name in ("send", "rpc", "rpc_retry"):
            self._patch(Transport, name, leaf("cluster.transport", Transport.__dict__[name]))
        self._patch(ResourceModel, "sample", leaf("cluster.metrics", ResourceModel.sample))
        for name in ("mark", "count", "observe"):
            self._patch(Trace, name, leaf("sim.trace", Trace.__dict__[name]))
        for name in ("es_locations", "db_locations"):
            self._patch(PhoenixKernel, name, leaf("kernel.api", PhoenixKernel.__dict__[name]))

        # Fast-forward contracts: spans plus the skip ratio's counts.
        quiesce = _INDEX["kernel.quiesce"]
        for contract in (WdBeatContract, DetectorExportContract):
            can_skip, account = contract.can_skip, contract.account

            def traced_can_skip(obj, now, _can_skip=can_skip):
                self.can_skip_calls += 1
                ledger.enter(quiesce)
                try:
                    return _can_skip(obj, now)
                finally:
                    ledger.exit()

            def traced_account(obj, now, _account=account):
                self.skips += 1
                ledger.enter(quiesce)
                try:
                    return _account(obj, now)
                finally:
                    ledger.exit()

            self._patch(contract, "can_skip", traced_can_skip)
            self._patch(contract, "account", traced_account)

        # Transmission: a cluster.network span, the message ledger, and a
        # cluster.transport span around delivery that also records the
        # simulated send->arrival delay.
        transmit = Network.transmit
        network_layer = _INDEX["cluster.network"]
        transport_layer = _INDEX["cluster.transport"]

        def traced_transmit(net, msg, deliver):
            def traced_deliver(arrived):
                self.delay_sum += net.sim.now - arrived.sent_at
                self.delivered += 1
                ledger.enter(transport_layer)
                try:
                    return deliver(arrived)
                finally:
                    ledger.exit()

            ledger.enter(network_layer)
            try:
                accepted = transmit(net, msg, traced_deliver)
            finally:
                ledger.exit()
            if accepted:
                row = self.messages.get((net.name, msg.mtype))
                if row is None:
                    self.messages[(net.name, msg.mtype)] = [1, msg.size]
                else:
                    row[0] += 1
                    row[1] += msg.size
            return accepted

        self._patch(Network, "transmit", traced_transmit)
