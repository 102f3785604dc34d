"""Skip-equivalence and unit tests for the slot-skipping simulation kernel.

The kernel's contract is *bit-identical metrics*: for any scenario, running
with ``fast=True`` (horizon heap, audience dispatch + bulk-accounted runs)
must finalize exactly the same :class:`NetworkMetrics` as the naive
slot-by-slot reference loop (``fast=False``), for every scheduler, because
skipped slots provably fire no callbacks, draw no random numbers and touch
nothing but integer duty-cycle counters.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.experiments.scenarios import GT_TSCH, MINIMAL, MSF, ORCHESTRA, traffic_load_scenario
from repro.mac.cell import Cell, CellOption
from repro.mac.tsch import TschEngine, next_offset_occurrence
from repro.net.network import Network
from repro.net.node import Node
from repro.schedulers.minimal import MinimalScheduler, MinimalSchedulerConfig
from tests.golden import assert_matches_golden
from tests.golden.cells import (
    ALL_REGISTERED,
    ARRIVAL_CASES,
    DESYNC_CASES,
    DYNAMIC_CASES,
    FAULT_CASES,
    HIGH_LOAD_CASES,
    arrival_scenario,
    cell_id,
    dynamic_scenario,
    fault_scenario,
    run_cell,
)


def _assert_equivalent(family: str, scheduler: str, seed: int):
    """Run one golden cell on both loops; they must agree, and match the file.

    Returns both runs' ``(network, metrics)`` for family-specific checks.
    """
    naive_net, naive = run_cell(family, scheduler, seed, fast=False)
    fast_net, fast = run_cell(family, scheduler, seed, fast=True)
    assert dataclasses.asdict(fast) == dataclasses.asdict(naive)
    # The clocks, MAC counters and medium statistics agree as well.
    assert fast_net.clock.asn == naive_net.clock.asn
    assert fast_net.medium.total_transmissions == naive_net.medium.total_transmissions
    assert fast_net.medium.total_collisions == naive_net.medium.total_collisions
    for node_id in naive_net.nodes:
        assert dataclasses.asdict(fast_net.nodes[node_id].tsch.stats) == (
            dataclasses.asdict(naive_net.nodes[node_id].tsch.stats)
        )
    assert_matches_golden(cell_id(family, scheduler, seed), fast)
    return (naive_net, naive), (fast_net, fast)


class TestSkipEquivalence:
    """Fast kernel vs naive loop: finalized metrics must be bit-identical."""

    @pytest.mark.parametrize("scheduler", ALL_REGISTERED)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_metrics_bit_identical(self, scheduler, seed):
        _assert_equivalent("skip", scheduler, seed)

    def test_fast_flag_defaults_on(self):
        assert Network().fast is True
        assert Network(fast=False).fast is False


class TestHighLoadEquivalence:
    """The 165 ppm end of the Fig. 8 axis, where CSMA back-off, queue drops
    and slots with several decoders peak."""

    @pytest.mark.parametrize(
        "scheduler,seed", [pytest.param(s, seed, id=case) for s, seed, case in HIGH_LOAD_CASES]
    )
    def test_metrics_bit_identical_at_165_ppm(self, scheduler, seed):
        (_, naive), _ = _assert_equivalent("load165", scheduler, seed)
        assert naive.queue_loss_total + naive.mac_drop_total > 0


class TestUnnamedBacklogListens:
    """A backlogged audience member the horizon heap did not name decides
    its slot from the listen tables alone.

    The dispatch asks ``TschEngine.listen_channel`` of every audience member
    outside the heap's transmitters, backlog or not.  Wrapping that query,
    each backlogged caller is also planned in full at the same ASN, from the
    CSMA state it held before the dispatch credited an armed deferral's
    losing pass: the plan must be the query's channel (or sleep), never a
    transmission, and must leave the CSMA windows and the deferral record
    exactly where the dispatch left them.
    """

    @pytest.mark.parametrize("scheduler", [GT_TSCH, MSF, ORCHESTRA])
    def test_full_plan_agrees_with_the_listen_tables(self, scheduler, monkeypatch):
        query = TschEngine.listen_channel
        absorb = TschEngine.absorb_deferred_pass
        plan_slot = TschEngine.plan_slot
        before_absorb: dict = {}
        checked = {"plain": 0, "deferred": 0}

        def absorbing(engine, asn):
            before_absorb[engine] = (asn, copy.deepcopy(engine.csma._states), engine._csma_deferral)
            absorb(engine, asn)

        def checked_query(engine, asn):
            channel = query(engine, asn)
            saved = before_absorb.pop(engine, None)
            if len(engine.queue):
                after = (copy.deepcopy(engine.csma._states), engine._csma_deferral)
                if saved is not None:
                    assert saved[0] == asn
                    engine.csma._states, engine._csma_deferral = saved[1], saved[2]
                plan = plan_slot(engine, asn)
                where = (scheduler, engine.node_id, asn)
                assert plan.action != "tx", where
                assert (plan.channel if plan.action == "rx" else None) == channel, where
                assert (engine.csma._states, engine._csma_deferral) == after, where
                checked["deferred" if saved else "plain"] += 1
            return channel

        monkeypatch.setattr(TschEngine, "absorb_deferred_pass", absorbing)
        monkeypatch.setattr(TschEngine, "listen_channel", checked_query)
        _, metrics = run_cell("load165", scheduler, 1, fast=True)
        # The full plans changed nothing the run could observe.
        assert_matches_golden(cell_id("load165", scheduler, 1), metrics)
        assert checked["plain"] > 0 and checked["deferred"] > 0
        print(f"[unnamed-backlog] {scheduler}: {checked}")


class TestFaultEquivalence:
    """Fault injection composes with the fast kernel bit-identically.

    Every injected fault (node crash, warm rejoin, link-degradation epoch,
    parent loss) mutates schedules, queues and the frozen medium mid-run;
    each mutation routes through the kernel's settlement barriers, so
    ``fast=True`` must still finalize exactly the reference loop's metrics.
    The plan exercises all four fault classes inside the measurement window.
    """

    @pytest.mark.parametrize(
        "scheduler,seed", [pytest.param(s, seed, id=case) for s, seed, case in FAULT_CASES]
    )
    def test_metrics_bit_identical_under_faults(self, scheduler, seed):
        # The short windows must still contain every fault class.
        plan = fault_scenario(scheduler, seed).faults
        assert plan is not None
        assert len(plan.crashes) >= 1
        assert len(plan.rejoins) >= 1
        assert len(plan.link_epochs) >= 1
        assert len(plan.parent_losses) >= 1
        (naive_net, naive), (fast_net, _) = _assert_equivalent("fault", scheduler, seed)
        # The run actually injected the whole plan and measured recovery.
        assert naive.faults_injected == 4
        assert naive.time_to_reconverge_s > 0.0
        # The epoch closed: the medium is back to its pristine tables.
        assert naive_net.medium.prr_scale == 1.0
        assert fast_net.medium.prr_scale == 1.0


class TestDynamicEquivalence:
    """The full dynamic-network stack composes with the fast kernel bit-identically.

    Everything PR 9 adds runs at once: every non-root node boots
    unsynchronised (cold-start EB scan -> sync -> RPL join), one node is
    absent from slot 0 and powers on mid-window (arrival churn), and a
    seeded three-epoch per-link PRR drift schedule perturbs the medium on
    top of the legacy crash/rejoin/degrade/parent-loss plan.  Scan windows
    settle in bulk, arrivals pre-mark state before slot 0, and epoch
    transitions re-scale the frozen tables -- each through the kernel's
    settlement barriers, so ``fast=True`` must still finalize exactly the
    reference loop's metrics.
    """

    @pytest.mark.parametrize(
        "scheduler,seed", [pytest.param(s, seed, id=case) for s, seed, case in DYNAMIC_CASES]
    )
    def test_metrics_bit_identical_under_dynamics(self, scheduler, seed):
        plan = dynamic_scenario(scheduler, seed).faults
        assert plan is not None
        assert len(plan.crashes) >= 1
        assert len(plan.rejoins) >= 1
        assert len(plan.link_epochs) >= 1
        assert len(plan.parent_losses) >= 1
        assert len(plan.arrivals) == 1
        (naive_net, naive), (fast_net, _) = _assert_equivalent("dynamic", scheduler, seed)
        # The whole dynamic plan fired: 4 legacy faults + 1 arrival + 3
        # link-drift epoch transitions.
        assert naive.faults_injected == 8
        # The drift restore barrier fired: pristine per-link tables again.
        assert not naive_net.medium.in_link_epoch
        assert not fast_net.medium.in_link_epoch
        assert naive_net.medium.prr_scale == 1.0
        assert fast_net.medium.prr_scale == 1.0


class TestArrivalEquivalence:
    """A synchronised late arrival composes with the fast kernel bit-identically.

    The warm-start fault plan plus one node that is absent from slot 0 and
    powers on mid-window with its clock already synchronised: its stack
    boots at once with no DODAG state and waits for a solicited DIO.  This is
    the one boot path the cold-start cells of ``TestDynamicEquivalence``
    never take.
    """

    @pytest.mark.parametrize(
        "scheduler,seed", [pytest.param(s, seed, id=case) for s, seed, case in ARRIVAL_CASES]
    )
    def test_metrics_bit_identical_across_an_arrival(self, scheduler, seed):
        scenario = arrival_scenario(scheduler, seed)
        assert not scenario.contiki.cold_start_join
        assert len(scenario.faults.arrivals) == 1
        (_, naive), _ = _assert_equivalent("arrival", scheduler, seed)
        # 4 legacy faults + 1 arrival.
        assert naive.faults_injected == 5


class TestDesyncEquivalence:
    """Keepalive desyncs compose with the fast kernel bit-identically.

    No fault plan here: the keepalive window is short enough that nodes
    lose synchronisation on their own, tear their stack down to the MAC and
    re-scan for a beacon.  Every step of that teardown goes through the
    kernel's settlement barriers, so both loops must still agree.
    """

    @pytest.mark.parametrize(
        "scheduler,seed", [pytest.param(s, seed, id=case) for s, seed, case in DESYNC_CASES]
    )
    def test_metrics_bit_identical_across_desyncs(self, scheduler, seed, monkeypatch):
        desyncs = []
        desynchronise = Node._desynchronise

        def record(node):
            desyncs.append((node.node_id, node.event_queue.now))
            desynchronise(node)

        monkeypatch.setattr(Node, "_desynchronise", record)
        _assert_equivalent("desync", scheduler, seed)
        # Each loop desynced the same five nodes at the same instants.
        assert len(desyncs) == 10
        assert desyncs[:5] == desyncs[5:]


class TestJumpRule:
    """The kernel jumps only to slots that need visiting.

    Every jump target is a slot the loop then steps, a slot boundary that
    fires at least one timer, or the end of the run; anything else is a
    wasted loop iteration.  Work counts, not clocks, so the gate is exact.
    """

    @pytest.mark.parametrize("scheduler", [GT_TSCH, MSF, ORCHESTRA])
    def test_every_jump_lands_on_work_or_the_end(self, scheduler, monkeypatch):
        from repro.sim.events import EventQueue

        network = traffic_load_scenario(
            rate_ppm=60.0, scheduler=scheduler, seed=1, measurement_s=6.0, warmup_s=8.0
        ).build_network()
        targets: list[int] = []
        stepped: set = set()
        fired: set = set()
        ends: set = set()
        jump = Network._jump_slots
        step = Network._step_slot_dispatch
        run_until = EventQueue.run_until
        run_slots = Network.run_slots

        def record_jump(self, target_asn):
            targets.append(target_asn)
            jump(self, target_asn)

        def record_step(self):
            stepped.add(self.clock.asn)
            step(self)

        def record_events(self, time):
            count = run_until(self, time)
            if count and self is network.events:
                fired.add(network.clock.asn)
            return count

        def record_run(self, num_slots, fast=None):
            ends.add(self.clock.asn + num_slots)
            run_slots(self, num_slots, fast)

        monkeypatch.setattr(Network, "_jump_slots", record_jump)
        monkeypatch.setattr(Network, "_step_slot_dispatch", record_step)
        monkeypatch.setattr(EventQueue, "run_until", record_events)
        monkeypatch.setattr(Network, "run_slots", record_run)
        network.run_experiment(warmup_s=8.0, measurement_s=6.0, drain_s=2.0)
        assert targets and stepped and fired
        wasted = [asn for asn in targets if asn not in stepped | fired | ends]
        assert not wasted, f"{len(wasted)} of {len(targets)} jumps land on no work: {wasted[:5]}"


class TestSameSlotMutation:
    """A transmitter or decoder that rewrites its schedule in its own slot.

    The kernel credits a TX or busy-RX slot against what the lazy profile
    will give that slot, which depends on the schedule left at the end of
    the slot.  Here node 2 sends to node 1 over a dedicated TX -> RX link,
    and every transmission outcome and every decoded frame toggles an RX
    cell at exactly that slot's offset of the link slotframe, so the lazy
    credit of the active slot flips between sleep and idle-listen.
    """

    LINK_HANDLE = 3
    LINK_LENGTH = 4

    def _run(self, fast: bool) -> tuple[Network, list]:
        from repro.net.packet import make_data_packet

        network = Network()
        for node_id in (1, 2, 3):
            network.add_node(
                node_id,
                position=(float(node_id), 0.0),
                scheduler=MinimalScheduler(MinimalSchedulerConfig()),
                is_root=node_id == 1,
            )
        network.start()
        links = {
            node_id: network.nodes[node_id].tsch.add_slotframe(self.LINK_HANDLE, self.LINK_LENGTH)
            for node_id in (1, 2, 3)
        }
        links[2].add_cell(Cell(slot_offset=1, channel_offset=1, options=CellOption.TX, neighbor=1))
        links[1].add_cell(Cell(slot_offset=1, channel_offset=1, options=CellOption.RX))
        toggles: list = []

        def toggle(node_id, asn, kind):
            frame = links[node_id]
            listening = [cell for cell in frame.cells_at(asn) if not cell.is_tx]
            if listening:
                frame.remove_cell(listening[0])
            else:
                frame.add_cell(
                    Cell(
                        slot_offset=asn % self.LINK_LENGTH,
                        channel_offset=1,
                        options=CellOption.RX,
                    )
                )
            toggles.append((node_id, asn, kind, not listening))

        for node_id, node in network.nodes.items():
            engine = node.tsch
            on_rx, on_tx_done = engine.rx_callback, engine.tx_done_callback

            def rx(packet, asn, node_id=node_id, on_rx=on_rx):
                toggle(node_id, asn, "rx")
                on_rx(packet, asn)

            def tx_done(packet, success, asn, node_id=node_id, on_tx_done=on_tx_done):
                toggle(node_id, asn, "tx")
                on_tx_done(packet, success, asn)

            engine.rx_callback = rx
            engine.tx_done_callback = tx_done
        for source in (2, 3):
            for _ in range(10):
                packet = make_data_packet(source, 1, created_at=0.0)
                packet.link_destination = 1
                network.nodes[source].tsch.enqueue(packet)
        network.run_slots(800, fast=fast)
        return network, toggles

    def test_meters_match_the_reference_loop(self):
        reference, reference_toggles = self._run(fast=False)
        fast, fast_toggles = self._run(fast=True)
        assert fast_toggles == reference_toggles
        kinds = {(kind, added) for _, _, kind, added in fast_toggles}
        assert kinds == {("rx", True), ("rx", False), ("tx", True), ("tx", False)}
        assert fast.stepped_slots < fast.clock.asn
        for node_id, node in reference.nodes.items():
            expected = node.tsch.duty_cycle.snapshot()
            assert fast.nodes[node_id].tsch.duty_cycle.snapshot() == expected, node_id


class TestNextOffsetOccurrence:
    def test_empty_offsets(self):
        assert next_offset_occurrence(10, 8, []) is None

    def test_same_slot_hit(self):
        assert next_offset_occurrence(16, 8, [0, 3]) == 16

    def test_wraps_to_next_frame(self):
        assert next_offset_occurrence(15, 8, [3, 6]) == 19

    def test_bisects_within_frame(self):
        assert next_offset_occurrence(17, 8, [0, 3, 6]) == 19


class TestReferenceLoop:
    def test_run_slots_naive_equals_manual_reference_stepping(self):
        """``run_slots(fast=False)`` is exactly N reference steps."""
        def build():
            return traffic_load_scenario(
                rate_ppm=60.0, scheduler=MINIMAL, seed=3, measurement_s=12.0, warmup_s=8.0
            ).build_network()

        looped = build()
        looped.run_slots(400, fast=False)
        manual = build()
        manual.start()
        for node in manual.nodes.values():
            node.tsch.reference_planner = True
        for _ in range(400):
            manual.step_slot_reference()
        assert manual.clock.asn == looped.clock.asn == 400
        for node_id in looped.nodes:
            looped_meter = looped.nodes[node_id].tsch.duty_cycle
            manual_meter = manual.nodes[node_id].tsch.duty_cycle
            assert manual_meter.snapshot() == looped_meter.snapshot()

    def test_fast_and_naive_runs_agree_slot_for_slot(self):
        """Duty-cycle totals agree after an arbitrary run length."""
        def build():
            return traffic_load_scenario(
                rate_ppm=60.0, scheduler=GT_TSCH, seed=4, measurement_s=12.0, warmup_s=8.0
            ).build_network()

        fast_net = build()
        fast_net.run_slots(777, fast=True)
        naive_net = build()
        naive_net.run_slots(777, fast=False)
        assert fast_net.clock.asn == naive_net.clock.asn == 777
        for node_id in naive_net.nodes:
            fast_meter = fast_net.nodes[node_id].tsch.duty_cycle
            naive_meter = naive_net.nodes[node_id].tsch.duty_cycle
            assert fast_meter.snapshot() == naive_meter.snapshot()


class TestParticipantDispatch:
    """The transmitter-centric dispatch kernel and its audience pass."""

    @pytest.mark.parametrize("scheduler", ALL_REGISTERED)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_scale_scenario_bit_identical(self, scheduler, seed):
        """Equivalence proof on the multi-DODAG scaling workload."""
        _, (fast_net, _) = _assert_equivalent("scale", scheduler, seed)
        # The dispatch kernel visits a strict subset of the slots.
        assert 0 < fast_net.stepped_slots < fast_net.clock.asn

    def test_backlog_index_tracks_queue_contents(self):
        scenario = traffic_load_scenario(
            rate_ppm=0.0, scheduler=MINIMAL, seed=5, measurement_s=5.0, warmup_s=5.0
        )
        network = scenario.build_network()
        network.start()
        node = network.nodes[1]
        assert node.node_id not in network._backlogged
        from repro.net.packet import make_data_packet

        packet = make_data_packet(1, 0, created_at=0.0)
        packet.link_destination = 0
        node.tsch.enqueue(packet)
        assert network._backlogged[node.node_id] is node
        node.tsch._dequeue(packet)
        assert node.node_id not in network._backlogged

    def test_collect_transmitters_names_only_matching_nodes(self):
        from repro.mac.cell import Cell as MacCell, CellOption as MacCellOption
        from repro.net.packet import make_data_packet
        from repro.schedulers.minimal import MinimalScheduler, MinimalSchedulerConfig

        network = Network()
        for node_id in (1, 2, 3):
            network.add_node(
                node_id,
                position=(float(node_id), 0.0),
                scheduler=MinimalScheduler(MinimalSchedulerConfig()),
                is_root=node_id == 1,
            )
        # Node 2 can send to node 1 at offset 4 of 8; node 3 has no TX cell.
        frame = network.nodes[2].tsch.add_slotframe(0, 8)
        frame.add_cell(
            MacCell(slot_offset=4, channel_offset=0, options=MacCellOption.TX, neighbor=1)
        )
        packet = make_data_packet(2, 1, created_at=0.0)
        packet.link_destination = 1
        network.nodes[2].tsch.enqueue(packet)
        other = make_data_packet(3, 1, created_at=0.0)
        other.link_destination = 1
        network.nodes[3].tsch.enqueue(other)
        assert network._collect_transmitters(4) == [network.nodes[2]]
        # Popped entries are recomputed on the next query.
        assert network._next_risky_asn(5, 100) == 12
        assert network._collect_transmitters(5) == []

    def test_idle_listen_channel_offset_matches_plan(self):
        """The audience pass's listen decision, read from the slotframes'
        listen tables (``TschEngine.listen_channel``), equals the reference
        plan of an empty-queue node: on Orchestra's fresh schedule, beyond
        one hyperperiod of its coprime 8/31/41 slotframes (10,168 slots),
        and on GT-TSCH and MSF schedules that 6P has rewritten during
        warm-up."""
        hyperperiod = 8 * 31 * 41
        cases = [
            (ORCHESTRA, 0.0, 0, [*range(120), *range(hyperperiod - 40, hyperperiod + 80)]),
            (GT_TSCH, 120.0, 2500, range(2500, 2700)),
            (MSF, 120.0, 2500, range(2500, 2700)),
        ]
        for scheduler, rate, warmup_slots, asns in cases:
            network = traffic_load_scenario(
                rate_ppm=rate, scheduler=scheduler, seed=6, measurement_s=20.0, warmup_s=6.0
            ).build_network()
            network.start()
            network.run_slots(warmup_slots)
            if warmup_slots:
                # 6P transactions have rewritten the schedules.
                assert sum(node.sixtop.requests_sent for node in network.nodes.values())
            for node in network.nodes.values():
                engine = node.tsch
                engine.flush_queue()
                engine.reference_planner = True
                for asn in asns:
                    plan = engine.plan_slot(asn)
                    channel = engine.listen_channel(asn)
                    if plan.action == "rx":
                        assert channel == plan.channel, (scheduler, node.node_id, asn)
                    else:
                        assert plan.action == "sleep"
                        assert channel is None, (scheduler, node.node_id, asn)
                    assert engine.listens_lazily(asn) == (channel is not None)

    def test_timer_mutations_across_a_jump_settle_under_the_live_schedule(self):
        """Timers mutate a schedule at slots 10, 20 and 30, and no slot
        between them is stepped: each barrier must settle the window behind
        it under the schedule the previous barrier left."""

        def run(fast):
            network = Network()
            node = network.add_node(
                1,
                position=(0.0, 0.0),
                scheduler=MinimalScheduler(MinimalSchedulerConfig()),
            )
            frame = node.tsch.add_slotframe(5, 4)
            slot = network.clock.slot_duration_s
            for asn, offset in ((10, 1), (20, 2), (30, 3)):
                network.events.schedule(
                    asn * slot,
                    frame.add_cell,
                    Cell(slot_offset=offset, channel_offset=0, options=CellOption.RX),
                )
            network.run_slots(40, fast=fast)
            return network

        fast, reference = run(True), run(False)
        assert fast.stepped_slots == 0
        assert fast.nodes[1].tsch.duty_cycle.snapshot() == (
            reference.nodes[1].tsch.duty_cycle.snapshot()
        )

    def test_deferred_duty_cycle_settles_on_schedule_change(self):
        """A mid-run schedule mutation settles the pre-mutation window, so
        idle-listen accounting never mixes two schedules."""
        from repro.mac.cell import Cell as MacCell, CellOption as MacCellOption
        from repro.schedulers.minimal import MinimalScheduler, MinimalSchedulerConfig

        network = Network()
        node = network.add_node(
            1,
            position=(0.0, 0.0),
            scheduler=MinimalScheduler(MinimalSchedulerConfig()),
            is_root=True,
        )
        engine = node.tsch
        frame = engine.add_slotframe(5, 4)
        cell = frame.add_cell(
            MacCell(slot_offset=1, channel_offset=0, options=MacCellOption.RX)
        )
        network.run_slots(8)
        # Removing the RX cell settles [0, 8) under the old profile first.
        frame.remove_cell(cell)
        meter = engine.duty_cycle
        listened_before = meter.idle_listen_slots
        network.run_slots(8)
        assert engine.duty_accounted_asn == 16
        # The removed cell no longer listens; only the minimal scheduler's
        # own shared cell (offset 0 mod 7, i.e. ASN 14) does in [8, 16).
        assert meter.idle_listen_slots == listened_before + 1
        assert meter.total_slots == 16


class TestContentionPruning:
    """Shared-cell CSMA pruning: deferral records and their bulk settlement.

    The pruned kernel against the per-slot countdown of the reference loop
    is covered by the fast-vs-reference suites above.
    """

    def _blocked_minimal_node(self):
        """A two-node minimal network with node 2 backlogged and in back-off."""
        from repro.net.packet import make_data_packet

        network = Network()
        for node_id in (1, 2):
            network.add_node(
                node_id,
                position=(float(node_id), 0.0),
                scheduler=MinimalScheduler(MinimalSchedulerConfig()),
                is_root=node_id == 1,
            )
        network.start()
        node = network.nodes[2]
        packet = make_data_packet(2, 1, created_at=0.0)
        packet.link_destination = 1
        node.tsch.enqueue(packet)
        return network, node

    def test_deferral_names_the_post_backoff_occurrence(self):
        network, node = self._blocked_minimal_node()
        engine = node.tsch
        engine.csma._state(1).window = 3
        # Shared cell at offset 0 mod 7: three losing passes at 7, 14, 21,
        # transmit at 28 (ASN 0 already passed nothing -- cursor starts at 1).
        assert engine.plan_csma_deferral(1) == 28
        assert engine._csma_deferral is not None
        # The armed record is returned as-is until something invalidates it.
        assert engine.plan_csma_deferral(5) == 28

    def test_settle_credits_exactly_the_elapsed_passes(self):
        network, node = self._blocked_minimal_node()
        engine = node.tsch
        engine.csma._state(1).window = 3
        engine.plan_csma_deferral(1)
        engine.settle_csma(15)  # passes at 7 and 14 elapsed
        assert engine.csma.window(1) == 1
        assert engine._csma_deferral is None

    def test_plan_slot_settles_before_scanning(self):
        network, node = self._blocked_minimal_node()
        engine = node.tsch
        engine.csma._state(1).window = 3
        engine.plan_csma_deferral(1)
        # Planning the slot at ASN 14 credits the pass at 7 first, then the
        # scan itself counts this slot's pass down: window 3 -> 2 -> 1.
        plan = engine.plan_slot(14)
        assert plan.action != "tx"
        assert engine.csma.window(1) == 1

    def test_broadcast_pending_disables_deferral(self):
        from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType

        network, node = self._blocked_minimal_node()
        engine = node.tsch
        engine.csma._state(1).window = 3
        eb = Packet(
            ptype=PacketType.EB,
            source=2,
            destination=BROADCAST_ADDRESS,
            link_source=2,
            link_destination=BROADCAST_ADDRESS,
        )
        engine.enqueue(eb)
        # A broadcast bypasses CSMA on the shared cell, so the node may
        # transmit at the very next occurrence: no deferral.
        assert engine.plan_csma_deferral(1) is None

    def test_quiet_destination_disables_deferral(self):
        network, node = self._blocked_minimal_node()
        engine = node.tsch
        engine.csma._state(1).window = 3
        engine.add_quiet_neighbor(1)
        assert engine.plan_csma_deferral(1) is None

    def test_quiet_mutation_settles_an_armed_deferral(self):
        mutations = {
            "add": lambda engine: engine.add_quiet_neighbor(1),
            "discard": lambda engine: engine.discard_quiet_neighbor(5),
            "clear": lambda engine: engine.clear_quiet_neighbors(),
        }
        for name, mutate in mutations.items():
            network, node = self._blocked_minimal_node()
            engine = node.tsch
            engine.csma._state(1).window = 3
            engine.add_quiet_neighbor(5)  # a bystander: the deferral towards 1 still arms
            assert engine.plan_csma_deferral(1) == 28
            network.clock.asn = 15
            # Calls that change no membership notify nobody.
            version = engine.queue_version
            engine.add_quiet_neighbor(5)
            engine.discard_quiet_neighbor(6)
            assert engine.queue_version == version and engine._csma_deferral is not None
            mutate(engine)
            # The mutation reported through the queue hook settled passes 7, 14.
            assert engine._csma_deferral is None, name
            assert engine.csma.window(1) == 1
        version = engine.queue_version
        engine.clear_quiet_neighbors()  # already empty after the last mutation
        assert engine.queue_version == version

    def test_dedicated_unshared_cell_disables_deferral(self):
        """GT-TSCH-style dedicated TX cells transmit regardless of back-off."""
        from repro.mac.cell import Cell as MacCell, CellOption as MacCellOption

        network, node = self._blocked_minimal_node()
        engine = node.tsch
        frame = engine.get_slotframe(MinimalScheduler.SLOTFRAME_HANDLE)
        frame.add_cell(
            MacCell(slot_offset=3, channel_offset=0, options=MacCellOption.TX, neighbor=1)
        )
        engine.csma._state(1).window = 3
        assert engine.schedule_profile().shared_contention_progressions(1) is None
        assert engine.plan_csma_deferral(1) is None

    def test_horizon_heap_uses_the_deferred_occurrence(self):
        network, node = self._blocked_minimal_node()
        engine = node.tsch
        engine.csma._state(1).window = 2
        # Horizons are derived from the clock's slot: from ASN 1 the losing
        # passes land at 7 and 14, so the heap names 21.
        network.clock.asn = 1
        engine.mark_queue_mutated()
        assert network._next_risky_asn(1, 10_000) == 21
