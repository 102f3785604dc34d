"""Per-layer instrumentation of the ``repro`` packages, and the metrics it yields.

:func:`install` wraps the public entry points of every simulator layer with
:class:`~trace_spans.Tracer` spans, and hooks the end of each
``Network.run_experiment`` to read the program's own counters (event-queue
stats, stepped slots, medium counters, RPL memo counters, 6P timeouts, queue
drops).  :func:`layer_metrics` turns the span summary and the counts into the
``<package>.<metric>`` figures the traced run prints, and :func:`crosschecks`
compares each wrapper count against the program counter that should match
it.  A wrapper count can only fall short, never overshoot, when the program
calls a layer through a reference bound before the wrapper was installed.
"""

from __future__ import annotations

from trace_spans import Tracer

#: Span names whose self time and call count form one per-layer metric pair.
#: ``metric -> span names``.
SPAN_GROUPS = {
    "sim.run_until": ["sim.EventQueue.run_until"],
    "net.kernel": ["net.Network.run_slots"],
    "mac.plan_slot": ["mac.TschEngine.plan_slot"],
    "mac.tx_results": ["mac.TschEngine.on_transmission_result"],
    "mac.frames_received": ["mac.TschEngine.on_frame_received"],
    "mac.duty_settle": ["mac.TschEngine.settle_duty_cycle"],
    "phy.freeze": ["phy.Medium.freeze"],
    "phy.resolve": ["phy.Medium.resolve_slot"],
    "phy.refreeze": ["phy.Medium.set_prr_scale", "phy.Medium.set_link_prr_scales"],
    "rpl.dio": ["rpl.RplEngine.process_dio"],
    "sixtop.packets": ["sixtop.SixPLayer.process_packet"],
    "schedulers.callback": ["schedulers.callback"],
    "core.game": ["core.optimal_tx_cells"],
    "kernel.bulk": [
        "kernel.NodeStateStore.settle_idle_rx",
        "kernel.NodeStateStore.account_rx_frames",
    ],
    "metrics.deliveries": ["metrics.MetricsCollector.on_data_delivered"],
    "metrics.finalize": ["metrics.MetricsCollector.finalize"],
    "faults.injected": ["metrics.MetricsCollector.on_fault_injected"],
    "experiments.build": ["experiments.Scenario.build_network"],
    "experiments.start": ["net.Network.start"],
    "experiments.cache_get": ["experiments.ResultCache.get"],
    "experiments.cache_put": ["experiments.ResultCache.put"],
    "experiments.fingerprint": ["experiments.scenario_fingerprint"],
}


# ----------------------------------------------------------------------
# hooks (called with the tracer, the positional args and, after, the result)
# ----------------------------------------------------------------------
def _events_fired(tracer, args, result) -> None:
    tracer.counts["sim.events_fired"] += result


def _register_timer(tracer, args, result) -> None:
    tracer.timers.append(args[0])


def _tx_outcome(tracer, args, result) -> None:
    plan, outcome = args[1], args[2]
    packet = plan.packet
    if packet is not None and plan.cell is not None and not packet.is_broadcast:
        if not outcome.acked:
            tracer.counts["mac.tx_failures"] += 1


def _resolved(tracer, args, results) -> None:
    counts = tracer.counts
    counts["phy.wrapper_transmissions"] += len(args[1])
    counts["phy.decoded"] += sum(1 for r in results if r.receivers)


def _before_freeze(tracer, args) -> None:
    medium = args[0]
    if not medium.frozen:
        n = len(medium.node_ids())
        tracer.counts["phy.freeze_pairs"] += n * (n - 1)


def _request_sent(tracer, args, accepted) -> None:
    if accepted:
        tracer.counts["sixtop.accepted_requests"] += 1


def _cache_lookup(tracer, args, result) -> None:
    key = "experiments.wrapper_misses" if result is None else "experiments.wrapper_hits"
    tracer.counts[key] += 1


def _cell_finished(tracer, args, result) -> None:
    """Read the program's own counters off a network that just finalized."""
    network = args[0]
    counts = tracer.counts
    counts["net.slots"] += network.clock.asn
    counts["net.stepped_slots"] += network.stepped_slots
    counts["phy.transmissions"] += network.medium.total_transmissions
    counts["phy.collisions"] += network.medium.total_collisions
    stats = network.events.stats()
    counts["sim.wheel_fired"] += sum(w["fired"] for w in stats["wheels"].values())
    for node in network.nodes.values():
        counts["rpl.parent_evaluations"] += node.rpl.parent_evaluations
        counts["rpl.evaluations_skipped"] += node.rpl.evaluations_skipped
        counts["sixtop.timeouts"] += node.sixtop.timeouts
        counts["sixtop.requests_sent"] += node.sixtop.requests_sent
        counts["mac.queue_drops"] += node.tsch.queue.drops
        counts["mac.program_frames_received"] += node.tsch.stats.frames_received
        counts["schedulers.cell_relocations"] += node.scheduler.relocation_count()
    counts["sim.idle_probe_ticks"] += sum(timer.settled_ticks for timer in tracer.timers)
    tracer.timers.clear()


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (idempotent per tracer)."""
    import repro.core.game as game
    import repro.experiments.parallel as parallel
    import repro.schedulers  # noqa: F401  (registers every scheduler class)
    from repro.core.scheduler import GtTschScheduler  # noqa: F401
    from repro.experiments.scenarios import Scenario
    from repro.kernel.state import NodeStateStore
    from repro.mac.tsch import TschEngine
    from repro.metrics.collector import MetricsCollector
    from repro.net.network import Network
    from repro.phy.medium import Medium
    from repro.rpl.engine import RplEngine
    from repro.schedulers.base import SchedulingFunction
    from repro.sim.events import EventQueue, PeriodicTimer
    from repro.sixtop.layer import SixPLayer

    wrap = tracer.wrap_method
    wrap(EventQueue, "run_until", "sim.EventQueue.run_until", after=_events_fired)
    wrap(PeriodicTimer, "__init__", "sim.PeriodicTimer.__init__", after=_register_timer)
    wrap(Network, "run_experiment", "net.Network.run_experiment", after=_cell_finished)
    wrap(Network, "run_slots", "net.Network.run_slots")
    wrap(Network, "start", "net.Network.start")
    wrap(TschEngine, "plan_slot", "mac.TschEngine.plan_slot")
    wrap(
        TschEngine,
        "on_transmission_result",
        "mac.TschEngine.on_transmission_result",
        after=_tx_outcome,
    )
    wrap(TschEngine, "on_frame_received", "mac.TschEngine.on_frame_received")
    wrap(TschEngine, "settle_duty_cycle", "mac.TschEngine.settle_duty_cycle")
    wrap(Medium, "freeze", "phy.Medium.freeze", before=_before_freeze)
    wrap(Medium, "resolve_slot", "phy.Medium.resolve_slot", after=_resolved)
    wrap(Medium, "set_prr_scale", "phy.Medium.set_prr_scale")
    wrap(Medium, "set_link_prr_scales", "phy.Medium.set_link_prr_scales")
    wrap(RplEngine, "process_dio", "rpl.RplEngine.process_dio")
    wrap(SixPLayer, "send_request", "sixtop.SixPLayer.send_request", after=_request_sent)
    wrap(SixPLayer, "process_packet", "sixtop.SixPLayer.process_packet")
    for cls in [SchedulingFunction, *_all_subclasses(SchedulingFunction)]:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("on_") and callable(value):
                wrap(cls, attr, "schedulers.callback")
    tracer.wrap_function(game, "optimal_tx_cells", "core.optimal_tx_cells")
    wrap(NodeStateStore, "settle_idle_rx", "kernel.NodeStateStore.settle_idle_rx")
    wrap(NodeStateStore, "account_rx_frames", "kernel.NodeStateStore.account_rx_frames")
    wrap(MetricsCollector, "on_data_delivered", "metrics.MetricsCollector.on_data_delivered")
    wrap(MetricsCollector, "finalize", "metrics.MetricsCollector.finalize")
    wrap(MetricsCollector, "on_fault_injected", "metrics.MetricsCollector.on_fault_injected")
    wrap(Scenario, "build_network", "experiments.Scenario.build_network")
    wrap(parallel.ResultCache, "get", "experiments.ResultCache.get", after=_cache_lookup)
    wrap(parallel.ResultCache, "put", "experiments.ResultCache.put")
    tracer.wrap_function(parallel, "scenario_fingerprint", "experiments.scenario_fingerprint")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict) -> dict[str, tuple[float, str]]:
    """``<package>.<metric> -> (value, unit)`` for one traced pass."""

    def calls(group: str) -> int:
        return sum(summary.get(name, (0, 0.0, 0.0))[0] for name in SPAN_GROUPS[group])

    def self_s(group: str) -> float:
        return sum(summary.get(name, (0, 0.0, 0.0))[2] for name in SPAN_GROUPS[group])

    c = counts
    transmissions = c["phy.transmissions"]
    evaluations = c["rpl.parent_evaluations"]
    skipped = c["rpl.evaluations_skipped"]
    accepted = c["sixtop.accepted_requests"]
    m = {
        "sim.events_fired": (c["sim.events_fired"], "count"),
        "sim.run_until_s": (self_s("sim.run_until"), "s"),
        "sim.idle_probe_ticks": (c["sim.idle_probe_ticks"], "count"),
        "net.slots": (c["net.slots"], "count"),
        "net.stepped_slots": (c["net.stepped_slots"], "count"),
        "net.step_ratio": (_ratio(c["net.stepped_slots"], c["net.slots"]), "ratio"),
        "net.kernel_self_s": (self_s("net.kernel"), "s"),
        "mac.plan_slot_calls": (calls("mac.plan_slot"), "count"),
        "mac.plan_slot_s": (self_s("mac.plan_slot"), "s"),
        "mac.tx_results": (calls("mac.tx_results"), "count"),
        "mac.tx_failures": (c["mac.tx_failures"], "count"),
        "mac.frames_received": (calls("mac.frames_received"), "count"),
        "mac.duty_settle_calls": (calls("mac.duty_settle"), "count"),
        "mac.duty_settle_s": (self_s("mac.duty_settle"), "s"),
        "mac.queue_drops": (c["mac.queue_drops"], "count"),
        "phy.freeze_s": (self_s("phy.freeze"), "s"),
        "phy.freeze_pairs": (c["phy.freeze_pairs"], "count"),
        "phy.resolve_calls": (calls("phy.resolve"), "count"),
        "phy.resolve_s": (self_s("phy.resolve"), "s"),
        "phy.transmissions": (transmissions, "count"),
        "phy.collisions": (c["phy.collisions"], "count"),
        "phy.delivery_ratio": (_ratio(c["phy.decoded"], c["phy.wrapper_transmissions"]), "ratio"),
        "phy.refreeze_calls": (calls("phy.refreeze"), "count"),
        "phy.refreeze_s": (self_s("phy.refreeze"), "s"),
        "rpl.dio_processed": (calls("rpl.dio"), "count"),
        "rpl.dio_s": (self_s("rpl.dio"), "s"),
        "rpl.parent_evaluations": (evaluations, "count"),
        "rpl.evaluations_skipped": (skipped, "count"),
        "rpl.memo_skip_ratio": (_ratio(skipped, evaluations + skipped), "ratio"),
        "sixtop.requests": (accepted, "count"),
        "sixtop.packets": (calls("sixtop.packets"), "count"),
        "sixtop.timeouts": (c["sixtop.timeouts"], "count"),
        "sixtop.success_ratio": (_ratio(accepted - c["sixtop.timeouts"], accepted), "ratio"),
        "schedulers.callbacks": (calls("schedulers.callback"), "count"),
        "schedulers.callback_s": (self_s("schedulers.callback"), "s"),
        "schedulers.cell_relocations": (c["schedulers.cell_relocations"], "count"),
        "core.game_solves": (calls("core.game"), "count"),
        "core.game_s": (self_s("core.game"), "s"),
        "kernel.bulk_calls": (calls("kernel.bulk"), "count"),
        "kernel.bulk_s": (self_s("kernel.bulk"), "s"),
        "metrics.deliveries": (calls("metrics.deliveries"), "count"),
        "metrics.finalize_s": (self_s("metrics.finalize"), "s"),
        "faults.injected": (calls("faults.injected"), "count"),
        "experiments.build_s": (self_s("experiments.build"), "s"),
        "experiments.start_s": (self_s("experiments.start"), "s"),
        "experiments.cache_hits": (c["experiments.program_hits"], "count"),
        "experiments.cache_misses": (c["experiments.program_misses"], "count"),
        "experiments.cache_get_s": (self_s("experiments.cache_get"), "s"),
        "experiments.cache_put_s": (self_s("experiments.cache_put"), "s"),
        "experiments.fingerprint_s": (self_s("experiments.fingerprint"), "s"),
    }
    return {name: (float(value), unit) for name, (value, unit) in m.items()}


def crosschecks(summary: dict, counts: dict) -> list[tuple[str, float, float, str]]:
    """``(what, wrapper count, program count, relation)`` pairs to report."""

    def calls(name: str) -> int:
        return summary.get(name, (0, 0.0, 0.0))[0]

    c = counts
    return [
        ("mac.frames_received", calls("mac.TschEngine.on_frame_received"),
         c["mac.program_frames_received"], "equal"),
        ("phy.transmissions", c["phy.wrapper_transmissions"], c["phy.transmissions"], "equal"),
        ("phy.resolve_calls<=net.stepped_slots", calls("phy.Medium.resolve_slot"),
         c["net.stepped_slots"], "at most"),
        ("sim.wheel_fired<=sim.events_fired", c["sim.wheel_fired"],
         c["sim.events_fired"], "at most"),
        ("rpl.dio_processed>=rpl.evaluations_skipped", calls("rpl.RplEngine.process_dio"),
         c["rpl.evaluations_skipped"], "at least"),
        ("sixtop.requests<=requests_sent(incl. retries)", c["sixtop.accepted_requests"],
         c["sixtop.requests_sent"], "at most"),
        ("experiments.cache_hits", c["experiments.wrapper_hits"],
         c["experiments.program_hits"], "equal"),
        ("experiments.cache_misses", c["experiments.wrapper_misses"],
         c["experiments.program_misses"], "equal"),
    ]
