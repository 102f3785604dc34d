"""Tests for the per-node RPL engine (parent selection, DIO/DAO handling)."""

import random

import pytest

from repro.experiments.scenarios import (
    GT_TSCH,
    ORCHESTRA,
    scale_scenario,
    traffic_load_scenario,
)
from repro.net.packet import PacketType
from repro.rpl.engine import RplConfig, RplEngine
from repro.rpl.messages import make_dao, make_dio
from repro.rpl.rank import INFINITE_RANK, MIN_HOP_RANK_INCREASE
from repro.sim.events import EventQueue


class Harness:
    """Wires an RplEngine to an in-memory outbox and a static ETX table."""

    def __init__(self, node_id=1, is_root=False, config=None):
        self.queue = EventQueue()
        self.sent = []
        self.etx_table = {}
        self.config = config or RplConfig(dio_interval_min_s=2.0, dao_delay_s=0.5)
        self.engine = RplEngine(
            node_id=node_id,
            config=self.config,
            queue=self.queue,
            rng=random.Random(1),
            send_packet=self.sent.append,
            etx_of=lambda neighbor: self.etx_table.get(neighbor, 2.0),
            is_root=is_root,
        )

    def dio_from(self, sender, rank, dodag_id=0, l_rx=None):
        packet = make_dio(sender=sender, dodag_id=dodag_id, rank=rank, l_rx=l_rx)
        self.engine.process_dio(packet)

    def sent_of_type(self, ptype):
        return [p for p in self.sent if p.ptype is ptype]


class TestParentSelection:
    def test_joins_through_first_usable_dio(self):
        h = Harness()
        h.etx_table[0] = 1.0
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE)
        assert h.engine.preferred_parent == 0
        assert h.engine.rank == 2 * MIN_HOP_RANK_INCREASE
        assert h.engine.is_joined()

    def test_prefers_lower_resulting_rank(self):
        h = Harness()
        h.etx_table[0] = 1.0
        h.etx_table[2] = 1.0
        h.dio_from(2, rank=3 * MIN_HOP_RANK_INCREASE)
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE)
        assert h.engine.preferred_parent == 0

    def test_hysteresis_prevents_marginal_switches(self):
        h = Harness()
        h.etx_table[0] = 1.2
        h.etx_table[2] = 1.0
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE)
        original = h.engine.preferred_parent
        # Candidate is only slightly better than the current parent.
        h.dio_from(2, rank=MIN_HOP_RANK_INCREASE)
        assert h.engine.preferred_parent == original

    def test_switches_when_clearly_better(self):
        h = Harness()
        h.etx_table[0] = 4.0
        h.etx_table[2] = 1.0
        h.dio_from(0, rank=2 * MIN_HOP_RANK_INCREASE)
        h.dio_from(2, rank=MIN_HOP_RANK_INCREASE)
        assert h.engine.preferred_parent == 2
        assert h.engine.parent_switches == 1

    def test_never_selects_a_child_as_parent(self):
        h = Harness()
        h.etx_table[5] = 1.0
        dao = make_dao(sender=5, parent=1, dodag_id=0, rank=768)
        h.engine.process_dao(dao)
        h.dio_from(5, rank=MIN_HOP_RANK_INCREASE)
        assert h.engine.preferred_parent is None

    def test_parent_change_callback_fires(self):
        h = Harness()
        changes = []
        h.engine.on_parent_changed = lambda old, new: changes.append((old, new))
        h.etx_table[0] = 1.0
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE)
        assert changes == [(None, 0)]

    def test_infinite_rank_neighbors_ignored(self):
        h = Harness()
        h.dio_from(0, rank=INFINITE_RANK)
        assert h.engine.preferred_parent is None

    def test_roots_never_select_parents(self):
        h = Harness(node_id=0, is_root=True)
        h.dio_from(3, rank=MIN_HOP_RANK_INCREASE)
        assert h.engine.preferred_parent is None
        assert h.engine.rank == h.config.root_rank


class TestNeighborTable:
    def test_dio_populates_neighbor(self):
        h = Harness()
        h.dio_from(4, rank=512, l_rx=6)
        neighbor = h.engine.neighbors[4]
        assert neighbor.rank == 512
        assert neighbor.l_rx == 6

    def test_parent_l_rx(self):
        h = Harness()
        h.etx_table[0] = 1.0
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE, l_rx=9)
        assert h.engine.parent_l_rx() == 9

    def test_parent_l_rx_without_parent_is_zero(self):
        h = Harness()
        assert h.engine.parent_l_rx() == 0

    def test_l_rx_survives_dios_without_option(self):
        h = Harness()
        h.dio_from(4, rank=512, l_rx=6)
        h.dio_from(4, rank=512)
        assert h.engine.neighbors[4].l_rx == 6


class TestChildren:
    def test_dao_adds_child_once(self):
        h = Harness()
        added = []
        h.engine.on_child_added = added.append
        dao = make_dao(sender=9, parent=1, dodag_id=0, rank=1024)
        h.engine.process_dao(dao)
        h.engine.process_dao(dao)
        assert h.engine.children == {9}
        assert added == [9]

    def test_remove_child(self):
        h = Harness()
        removed = []
        h.engine.on_child_removed = removed.append
        h.engine.process_dao(make_dao(sender=9, parent=1, dodag_id=0, rank=1024))
        h.engine.remove_child(9)
        assert h.engine.children == set()
        assert removed == [9]

    def test_own_dao_ignored(self):
        h = Harness(node_id=1)
        h.engine.process_dao(make_dao(sender=1, parent=1, dodag_id=0, rank=1024))
        assert h.engine.children == set()


class TestControlTraffic:
    def test_root_emits_dios(self):
        h = Harness(node_id=0, is_root=True)
        h.engine.start()
        h.queue.run_until(30.0)
        dios = h.sent_of_type(PacketType.DIO)
        assert dios
        assert all(p.payload["rank"] == h.config.root_rank for p in dios)

    def test_dio_carries_scheduler_fields(self):
        h = Harness(node_id=0, is_root=True)
        h.engine.dio_extra_provider = lambda: {"l_rx": 7, "foo": 1}
        h.engine.start()
        h.queue.run_until(10.0)
        dio = h.sent_of_type(PacketType.DIO)[0]
        assert dio.payload["l_rx"] == 7
        assert dio.payload["foo"] == 1

    def test_joining_triggers_dao(self):
        h = Harness()
        h.etx_table[0] = 1.0
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE)
        h.queue.run_until(2.0)
        daos = h.sent_of_type(PacketType.DAO)
        assert daos
        assert daos[0].link_destination == 0

    def test_periodic_dao_refresh(self):
        h = Harness(config=RplConfig(dio_interval_min_s=2.0, dao_delay_s=0.5, dao_period_s=5.0))
        h.etx_table[0] = 1.0
        h.dio_from(0, rank=MIN_HOP_RANK_INCREASE)
        h.queue.run_until(12.0)
        assert len(h.sent_of_type(PacketType.DAO)) >= 2

    def test_non_root_does_not_advertise_before_joining(self):
        h = Harness()
        h.engine.start()
        h.queue.run_until(10.0)
        assert h.sent_of_type(PacketType.DIO) == []


class TestWarmStart:
    def test_warm_start_presets_state_and_sends_dao(self):
        h = Harness()
        changes = []
        h.engine.on_parent_changed = lambda old, new: changes.append((old, new))
        h.engine.warm_start(parent=0, rank=768, dodag_id=0)
        assert h.engine.preferred_parent == 0
        assert h.engine.rank == 768
        assert changes == [(None, 0)]
        h.queue.run_until(2.0)
        assert h.sent_of_type(PacketType.DAO)

    def test_warm_start_root(self):
        h = Harness(node_id=0, is_root=True)
        h.engine.warm_start(parent=None, rank=256, dodag_id=0)
        assert h.engine.trickle.running
        assert h.engine.preferred_parent is None

    def test_normalised_rank_and_hops(self):
        h = Harness()
        h.engine.warm_start(parent=0, rank=768, dodag_id=0)
        assert h.engine.normalised_rank() == pytest.approx(0.5)
        assert h.engine.hop_distance() == pytest.approx(2.0)


class TestEviction:
    """``evict_neighbor``: the fault path's detach-and-reselect primitive."""

    def joined_with_backup(self):
        """Parent 1 at rank 256, backup candidate 2 at rank 4 * 256."""
        h = Harness(node_id=99)
        h.dio_from(1, rank=MIN_HOP_RANK_INCREASE, dodag_id=1)
        h.dio_from(2, rank=4 * MIN_HOP_RANK_INCREASE, dodag_id=1)
        assert h.engine.preferred_parent == 1
        return h

    def test_evicting_the_parent_detaches_and_readopts(self):
        h = self.joined_with_backup()
        switches = []
        h.engine.on_parent_changed = lambda old, new: switches.append((old, new))
        h.engine.evict_neighbor(1)
        assert switches[0] == (1, None)
        # The surviving neighbor (rank 4*256) is adopted as replacement.
        assert h.engine.preferred_parent == 2
        assert 1 not in h.engine.neighbors

    def test_sole_parent_eviction_detaches_then_fresh_dio_readopts(self):
        h = Harness(node_id=99)
        h.dio_from(1, rank=MIN_HOP_RANK_INCREASE, dodag_id=1)
        h.engine.evict_neighbor(1)
        assert h.engine.preferred_parent is None
        assert h.engine.rank == INFINITE_RANK
        assert h.engine.neighbors == {}
        evaluations = h.engine.parent_evaluations
        h.dio_from(1, rank=MIN_HOP_RANK_INCREASE, dodag_id=1)
        assert h.engine.preferred_parent == 1
        assert h.engine.rank < INFINITE_RANK
        assert h.engine.parent_evaluations == evaluations + 1

    def test_a_child_is_never_adopted_as_replacement_parent(self):
        h = self.joined_with_backup()
        h.engine.process_dao(make_dao(sender=2, parent=99, dodag_id=1, rank=1280))
        assert h.engine.children == {2}
        h.engine.evict_neighbor(1)
        assert h.engine.preferred_parent is None
        h.dio_from(2, rank=4 * MIN_HOP_RANK_INCREASE, dodag_id=1)
        assert h.engine.preferred_parent is None


class TestDetach:
    """``detach`` and ``forget``: silent teardown, no callback, no traffic."""

    def joined_with_a_child(self):
        h = Harness(node_id=99)
        h.dio_from(1, rank=MIN_HOP_RANK_INCREASE, dodag_id=1)
        h.engine.process_dao(make_dao(sender=5, parent=99, dodag_id=1, rank=1280))
        h.queue.run_until(1.0)
        calls = []
        h.engine.on_parent_changed = lambda old, new: calls.append(("parent", old, new))
        h.engine.on_child_removed = lambda child: calls.append(("child", child))
        assert h.engine.preferred_parent == 1
        assert h.engine.trickle.running
        return h, calls

    def test_detach_drops_every_piece_of_dodag_state_silently(self):
        h, calls = self.joined_with_a_child()
        h.sent.clear()
        h.engine.detach()
        assert h.engine.preferred_parent is None
        assert h.engine.rank == INFINITE_RANK
        assert h.engine.dodag_id is None
        assert h.engine.neighbors == {}
        assert h.engine.children == set()
        assert not h.engine.is_joined()
        assert calls == []
        # Nothing is advertised afterwards: Trickle still ticks but has no
        # rank to advertise, and the DAO refresh finds no parent.
        assert h.engine.trickle.running
        h.queue.run_until(120.0)
        assert h.sent == []

    def test_detached_engine_joins_again_through_a_dio(self):
        h, _calls = self.joined_with_a_child()
        h.engine.detach()
        h.dio_from(2, rank=MIN_HOP_RANK_INCREASE, dodag_id=1)
        assert h.engine.preferred_parent == 2
        assert h.engine.trickle.running

    def test_root_keeps_its_dodag(self):
        h = Harness(node_id=0, is_root=True)
        h.engine.start()
        h.engine.detach()
        assert h.engine.dodag_id == 0
        assert h.engine.rank == INFINITE_RANK

    def test_forgetting_the_parent_detaches_silently(self):
        h, calls = self.joined_with_a_child()
        h.engine.forget(1)
        assert h.engine.preferred_parent is None
        assert h.engine.rank == INFINITE_RANK
        assert h.engine.dodag_id is None
        assert 1 not in h.engine.neighbors
        assert h.engine.children == {5}
        assert calls == []

    def test_forgetting_a_child_keeps_the_route(self):
        h, calls = self.joined_with_a_child()
        rank = h.engine.rank
        h.engine.forget(5)
        assert h.engine.children == set()
        assert h.engine.preferred_parent == 1
        assert h.engine.rank == rank
        assert calls == []

    def test_forgetting_a_stranger_changes_nothing(self):
        h, calls = self.joined_with_a_child()
        neighbors = dict(h.engine.neighbors)
        h.engine.forget(42)
        assert h.engine.neighbors == neighbors
        assert h.engine.preferred_parent == 1
        assert h.engine.children == {5}
        assert calls == []


class TestEveryDioEvaluates:
    """Every non-root DIO reception runs parent selection: an exact,
    clock-free count over two whole runs.  Each total equals the runs'
    former evaluations plus the receptions the deleted rank memo skipped
    (493 + 180 and 22 + 2)."""

    @pytest.mark.parametrize(
        "build,evaluations",
        [
            pytest.param(
                lambda: scale_scenario(100, GT_TSCH, warmup_s=5.0, measurement_s=5.0),
                673,
                id="scale100-GT-TSCH",
            ),
            pytest.param(
                lambda: traffic_load_scenario(
                    165, ORCHESTRA, seed=1, warmup_s=10.0, measurement_s=10.0
                ),
                24,
                id="load165-Orchestra",
            ),
        ],
    )
    def test_parent_evaluations(self, build, evaluations):
        scenario = build()
        network = scenario.build_network()
        network.run_experiment(scenario.warmup_s, scenario.measurement_s)
        engines = [node.rpl for node in network.nodes.values()]
        assert sum(engine.parent_evaluations for engine in engines) == evaluations
        assert all(engine.evaluations_skipped == 0 for engine in engines)
