"""View-coherence tests for the struct-of-arrays node-state store.

The store's contract (``docs/soa.md``) is coherence *by construction*: the
object classes hold no copies of the hot state -- their attributes are
properties over the store columns -- so any mutation through the object views
(``warm_start``, ``evict_neighbor``, the fault injector's crash/rejoin
barriers) must be immediately visible in the arrays, and any bulk array write
must be immediately visible through the objects.  These tests pin that
contract on live networks, including across fault barriers, plus the
standalone-object path (``LocalBacking`` -> ``bind``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.scenarios import (
    MINIMAL,
    traffic_load_scenario,
)
from repro.faults import FaultPlan, LinkDegradation, NodeCrash, NodeRejoin, ParentLoss
from repro.kernel.state import PTYPE_INDEX, LocalBacking, NodeStateStore
from repro.mac.duty_cycle import DutyCycleMeter
from repro.net.packet import PacketType, make_data_packet
from repro.rpl.rank import INFINITE_RANK

VICTIM = 3

PLAN = FaultPlan(
    crashes=(NodeCrash(time_s=10.0, node_id=VICTIM, detect_after_s=1.5),),
    rejoins=(NodeRejoin(time_s=16.0, node_id=VICTIM),),
    link_epochs=(LinkDegradation(time_s=12.0, prr_scale=0.6, duration_s=4.0),),
    parent_losses=(ParentLoss(time_s=18.0, node_id=1),),
)


def build_network(plan=None, scheduler=MINIMAL, seed=1, warm_start=True):
    scenario = traffic_load_scenario(
        rate_ppm=60.0,
        scheduler=scheduler,
        seed=seed,
        measurement_s=14.0,
        warmup_s=8.0,
    )
    scenario = replace(scenario, faults=plan, warm_start=warm_start)
    return scenario.build_network(), scenario


def run_to(network, seconds: float) -> None:
    target = network.clock.seconds_to_slots(seconds)
    if target > network.clock.asn:
        network.run_slots(target - network.clock.asn)


def assert_coherent(network) -> None:
    """Every observable view equals its backing column, for every node."""
    store = network.state
    for node in network.nodes.values():
        row = node._row
        engine = node.tsch
        meter = engine.duty_cycle
        assert node._backing is store
        assert bool(store.alive[row]) == node.alive
        assert int(store.adv_rank[row]) == node.rpl.rank
        assert int(store.joined[row]) == (
            1 if (node.rpl.is_root or node.rpl.preferred_parent is not None) else 0
        )
        assert int(store.queue_len[row]) == len(engine.queue)
        assert int(store.duty_accounted_asn[row]) == engine.duty_accounted_asn
        assert int(store.tx_slots[row]) == meter.tx_slots
        assert int(store.rx_slots[row]) == meter.rx_slots
        assert int(store.idle_listen_slots[row]) == meter.idle_listen_slots
        assert int(store.sleep_slots[row]) == meter.sleep_slots
        assert int(store.total_slots[row]) == meter.total_slots
        assert int(store.etx_version[row]) == engine.etx.version
        counts = store.ptype_counts[row]
        for ptype, index in PTYPE_INDEX.items():
            expected = sum(1 for p in engine.queue._queue if p.ptype is ptype)
            assert int(counts[index]) == expected


class TestStandaloneViews:
    """Objects built outside a network run on a private LocalBacking."""

    def test_meter_starts_on_local_backing(self):
        meter = DutyCycleMeter()
        assert isinstance(meter._backing, LocalBacking)
        meter.record_tx()
        meter.record_rx(True)
        assert meter.tx_slots == 1
        assert meter.rx_slots == 1

    def test_bind_preserves_values_and_retargets(self):
        meter = DutyCycleMeter()
        meter.record_tx()
        meter.record_sleep()
        store = NodeStateStore()
        row = store.add_row()
        meter.bind(store, row)
        assert meter._backing is store and meter._row == row
        assert meter.tx_slots == 1
        assert meter.sleep_slots == 1
        # Two-way visibility after the move.
        meter.record_tx()
        assert int(store.tx_slots[row]) == 2
        store.tx_slots[row] = 7
        assert meter.tx_slots == 7

    def test_store_growth_preserves_rows(self):
        store = NodeStateStore()
        rows = [store.add_row() for _ in range(3)]
        store.tx_horizon[rows[1]] = 42
        store.adv_rank[rows[2]] = 256.0
        version = store.layout_version
        initial_capacity = store._capacity
        for _ in range(initial_capacity + 1):
            store.add_row()
        assert store._capacity > initial_capacity
        assert store.layout_version > version
        assert int(store.tx_horizon[rows[1]]) == 42
        assert int(store.tx_horizon[rows[0]]) == -1
        assert float(store.adv_rank[rows[2]]) == 256.0


class TestLiveNetworkCoherence:
    def test_warm_start_visible_in_arrays(self):
        network, _ = build_network(warm_start=True)
        network.start()
        store = network.state
        for node in network.nodes.values():
            # warm_start presets rank/parent before the first slot runs.
            assert int(store.adv_rank[node._row]) == node.rpl.rank
            if node.rpl.is_root or node.rpl.preferred_parent is not None:
                assert int(store.joined[node._row]) == 1
        assert_coherent(network)

    def test_queue_mutations_mirrored(self):
        network, _ = build_network()
        network.start()
        node = network.nodes[1]
        store = network.state
        row = node._row
        packet = make_data_packet(1, 0, created_at=0.0)
        packet.link_destination = 0
        node.tsch.enqueue(packet)
        assert int(store.queue_len[row]) == len(node.tsch.queue)
        assert int(store.ptype_counts[row][PTYPE_INDEX[PacketType.DATA]]) >= 1
        node.tsch._dequeue(packet)
        assert int(store.queue_len[row]) == len(node.tsch.queue)

    def test_evict_neighbor_rank_change_mirrored(self):
        network, _ = build_network()
        network.start()
        run_to(network, 4.0)
        node = network.nodes[VICTIM]
        parent = node.rpl.preferred_parent
        assert parent is not None
        node.rpl.evict_neighbor(parent)
        store = network.state
        assert int(store.adv_rank[node._row]) == node.rpl.rank
        assert int(store.joined[node._row]) == (
            1 if node.rpl.preferred_parent is not None else 0
        )
        assert_coherent(network)

    def test_mid_run_and_final_coherence(self):
        network, scenario = build_network()
        run_to(network, scenario.warmup_s)
        assert_coherent(network)
        run_to(network, scenario.warmup_s + scenario.measurement_s)
        assert_coherent(network)


class TestFaultBarrierCoherence:
    def test_crash_clears_the_row(self):
        network, _ = build_network(plan=PLAN)
        run_to(network, 11.0)  # past the crash, before the rejoin
        store = network.state
        node = network.nodes[VICTIM]
        row = node._row
        assert not node.alive
        assert int(store.alive[row]) == 0
        assert int(store.joined[row]) == 0
        assert int(store.adv_rank[row]) == INFINITE_RANK
        assert int(store.queue_len[row]) == 0
        # Dead radios advertise no timer phases and no TX horizon.
        assert float(store.eb_phase[row]) == -1.0
        assert float(store.trickle_phase[row]) == -1.0
        assert float(store.traffic_phase[row]) == -1.0
        assert int(store.tx_horizon[row]) == -1
        assert [row for row in range(store.rows) if store.alive[row]] == [
            n._row for n in network.nodes.values() if n.node_id != VICTIM
        ]
        assert_coherent(network)

    def test_rejoin_restores_the_row(self):
        network, scenario = build_network(plan=PLAN)
        run_to(network, 17.0)  # past the rejoin
        store = network.state
        node = network.nodes[VICTIM]
        row = node._row
        assert node.alive
        assert int(store.alive[row]) == 1
        assert int(store.adv_rank[row]) == node.rpl.rank
        # The reboot re-armed the advertisement timers.
        assert float(store.eb_phase[row]) > network.events.now
        assert float(store.trickle_phase[row]) > network.events.now
        run_to(network, scenario.warmup_s + scenario.measurement_s)
        assert_coherent(network)
