"""Tests for the per-node TSCH engine (cell selection, ACKs, retransmissions)."""

import random

import pytest

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.mac.tsch import TschConfig, TschEngine
from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType, make_data_packet
from repro.phy.medium import TransmissionResult


def make_engine(node_id=0, **config_kwargs) -> TschEngine:
    return TschEngine(node_id, TschConfig(**config_kwargs), random.Random(1))


def data_packet(destination=1, source=0):
    packet = make_data_packet(source, destination, created_at=0.0)
    packet.link_destination = destination
    return packet


def broadcast_packet(source=0, ptype=PacketType.EB):
    return Packet(
        ptype=ptype,
        source=source,
        destination=BROADCAST_ADDRESS,
        link_source=source,
        link_destination=BROADCAST_ADDRESS,
    )


def make_result(engine, plan, acked=True, collided=False):
    intent = engine.build_intent(plan)
    return TransmissionResult(intent=intent, delivered=acked, acked=acked, collided=collided)


class TestSlotframeManagement:
    def test_add_and_get_slotframe(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 16)
        assert engine.get_slotframe(0) is sf
        assert engine.add_slotframe(0, 16) is sf

    def test_conflicting_length_rejected(self):
        engine = make_engine()
        engine.add_slotframe(0, 16)
        with pytest.raises(ValueError):
            engine.add_slotframe(0, 32)

    def test_remove_and_clear(self):
        engine = make_engine()
        engine.add_slotframe(0, 16)
        engine.add_slotframe(1, 8)
        engine.remove_slotframe(0)
        assert engine.get_slotframe(0) is None
        engine.clear_schedule()
        assert engine.get_slotframe(1) is None

    def test_schedule_hook_runs_before_the_change_and_the_version_bump(self):
        """The network settles a node's deferred window from
        ``on_schedule_change``, so the hook must see the old schedule, the
        old version and a profile that describes them; the version bumps
        once the hook has returned."""
        engine = make_engine()
        seen = []
        engine.on_schedule_change = lambda: seen.append(
            (
                engine.schedule_version,
                len(engine.slotframes),
                len(engine.all_cells()),
                engine.schedule_profile().has_rx,
            )
        )
        frame = engine.add_slotframe(0, 10)
        cell = frame.add_cell(Cell(slot_offset=3, channel_offset=0, options=CellOption.RX))
        frame.remove_cell(cell)
        frame.add_cell(Cell(slot_offset=4, channel_offset=0, options=CellOption.RX))
        engine.remove_slotframe(0)
        engine.add_slotframe(1, 5)
        engine.clear_schedule()
        assert seen == [
            (0, 0, 0, False),  # add_slotframe(0)
            (1, 1, 0, False),  # add_cell
            (2, 1, 1, True),  # remove_cell
            (3, 1, 0, False),  # add_cell
            (4, 1, 1, True),  # remove_slotframe(0)
            (5, 0, 0, False),  # add_slotframe(1)
            (6, 1, 0, False),  # clear_schedule
        ]
        assert engine.schedule_version == 7
        # No request in between: the next profile is rebuilt for version 7.
        assert engine.schedule_profile().version == 7
        assert not engine.schedule_profile().has_rx


class TestEnqueue:
    def test_enqueue_sets_time_and_tracks_attempts(self):
        engine = make_engine()
        packet = data_packet()
        assert engine.enqueue(packet, now=1.25)
        assert packet.enqueued_at == 1.25
        assert engine.queue_length() == 1
        assert engine.data_queue_length() == 1

    def test_enqueue_respects_capacity(self):
        engine = make_engine(queue_capacity=2)
        assert engine.enqueue(data_packet())
        assert engine.enqueue(data_packet())
        assert not engine.enqueue(data_packet())


class TestPlanSlot:
    def test_sleep_without_cells(self):
        engine = make_engine()
        assert engine.plan_slot(0).action == "sleep"

    def test_sleep_when_no_cell_at_offset(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(3, 0, CellOption.TX, neighbor=1))
        assert engine.plan_slot(4).action == "sleep"

    def test_tx_preferred_when_packet_pending(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(3, 2, CellOption.TX, neighbor=1))
        engine.enqueue(data_packet(destination=1))
        plan = engine.plan_slot(3)
        assert plan.is_tx
        assert plan.packet.link_destination == 1
        assert plan.channel == engine.hopping.channel_for(3, 2)

    def test_tx_cell_without_matching_packet_falls_back_to_rx(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(3, 0, CellOption.TX, neighbor=1))
        sf.add_cell(Cell(3, 1, CellOption.RX, neighbor=2))
        engine.enqueue(data_packet(destination=9))
        plan = engine.plan_slot(3)
        assert plan.is_rx
        assert plan.cell.neighbor == 2

    def test_rx_cell_listens_when_idle(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(5, 1, CellOption.RX | CellOption.ALWAYS_ON, neighbor=None))
        plan = engine.plan_slot(5)
        assert plan.is_rx
        assert plan.channel == engine.hopping.channel_for(5, 1)

    def test_broadcast_cell_sends_broadcast_first(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(
            Cell(0, 0, CellOption.TX | CellOption.RX | CellOption.BROADCAST, neighbor=None)
        )
        engine.enqueue(broadcast_packet())
        plan = engine.plan_slot(0)
        assert plan.is_tx
        assert plan.packet.is_broadcast

    def test_plain_broadcast_cell_does_not_carry_unicast(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(
            Cell(0, 0, CellOption.TX | CellOption.RX | CellOption.BROADCAST, neighbor=None)
        )
        engine.enqueue(data_packet(destination=1))
        plan = engine.plan_slot(0)
        assert plan.is_rx  # listens instead of sending the unicast frame

    def test_shared_broadcast_cell_carries_unicast_fallback(self):
        """Orchestra's common cell accepts unicast when no broadcast is pending."""
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(
            Cell(
                0,
                0,
                CellOption.TX | CellOption.RX | CellOption.SHARED | CellOption.BROADCAST,
                neighbor=None,
            )
        )
        engine.enqueue(data_packet(destination=1))
        plan = engine.plan_slot(0)
        assert plan.is_tx
        assert not plan.packet.is_broadcast

    def test_purpose_priority_breaks_ties(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(2, 1, CellOption.TX, neighbor=1, purpose=CellPurpose.UNICAST_DATA))
        sf.add_cell(Cell(2, 2, CellOption.TX, neighbor=1, purpose=CellPurpose.UNICAST_6P))
        engine.enqueue(data_packet(destination=1))
        plan = engine.plan_slot(2)
        assert plan.cell.purpose is CellPurpose.UNICAST_6P

    def test_lower_slotframe_handle_wins(self):
        engine = make_engine()
        low = engine.add_slotframe(0, 10)
        high = engine.add_slotframe(1, 10)
        high.add_cell(Cell(2, 2, CellOption.TX, neighbor=1))
        low.add_cell(Cell(2, 1, CellOption.TX, neighbor=1))
        engine.enqueue(data_packet(destination=1))
        assert engine.plan_slot(2).cell.slotframe_handle == 0

    def test_shared_cell_respects_backoff(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(1, 0, CellOption.TX | CellOption.RX | CellOption.SHARED, neighbor=1))
        engine.enqueue(data_packet(destination=1))
        engine.csma.on_transmission_failure(1)
        engine.csma._state(1).window = 2
        plan = engine.plan_slot(1)
        assert plan.is_rx  # backing off, so it listens instead
        assert engine.csma.window(1) == 1

    def test_quiet_shared_neighbor_suppresses_data_but_not_control(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(1, 0, CellOption.TX | CellOption.RX | CellOption.SHARED, neighbor=1))
        engine.add_quiet_neighbor(1)
        engine.enqueue(data_packet(destination=1))
        assert engine.plan_slot(1).is_rx
        sixp = Packet(
            ptype=PacketType.SIXP, source=0, destination=1, link_source=0, link_destination=1
        )
        engine.enqueue(sixp)
        plan = engine.plan_slot(1)
        assert plan.is_tx
        assert plan.packet.ptype is PacketType.SIXP


class TestActiveCells:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_gather_and_sort(self, seed):
        """Three slotframes with coprime lengths, mutated at random."""
        rng = random.Random(seed)
        engine = make_engine()
        # Created out of handle order: planning precedence is by handle.
        frames = [engine.add_slotframe(handle, size) for handle, size in ((2, 7), (0, 11), (1, 13))]
        merged = 0
        for _ in range(8):
            for _ in range(12):
                frame = rng.choice(frames)
                installed = list(frame.all_cells())
                if installed and rng.random() < 0.3:
                    frame.remove_cell(rng.choice(installed))
                    continue
                options = rng.choice([CellOption.TX, CellOption.RX, CellOption.TX | CellOption.RX])
                frame.add_cell(
                    Cell(
                        slot_offset=rng.randrange(frame.length),
                        channel_offset=rng.randrange(4),
                        options=options,
                        neighbor=rng.choice([None, 1, 2]),
                        purpose=rng.choice(list(CellPurpose)),
                    )
                )
            for asn in rng.sample(range(7 * 11 * 13), 100):
                fast = engine._active_cells(asn)
                engine.reference_planner = True
                reference = engine._active_cells(asn)
                engine.reference_planner = False
                assert [id(c) for c in fast] == [id(c) for c in reference], asn
                merged += len({cell.slotframe_handle for cell in fast}) > 1
        assert merged  # some ASNs drew cells from several slotframes


class TestTransmissionOutcome:
    def _tx_setup(self, max_retries=2):
        engine = make_engine(max_retries=max_retries)
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(1, 0, CellOption.TX, neighbor=1))
        packet = data_packet(destination=1)
        engine.enqueue(packet)
        return engine, packet

    def test_ack_removes_packet_and_updates_stats(self):
        engine, packet = self._tx_setup()
        plan = engine.plan_slot(1)
        engine.on_transmission_result(plan, make_result(engine, plan, acked=True), asn=1)
        assert engine.queue_length() == 0
        assert engine.stats.unicast_acked == 1
        assert engine.etx.etx(1) < 2.0

    def test_failed_attempt_keeps_packet_for_retry(self):
        engine, packet = self._tx_setup(max_retries=2)
        plan = engine.plan_slot(1)
        engine.on_transmission_result(plan, make_result(engine, plan, acked=False), asn=1)
        assert engine.queue_length() == 1
        assert packet.retransmissions == 1
        assert engine.stats.mac_drops == 0

    def test_packet_dropped_after_retry_budget(self):
        engine, packet = self._tx_setup(max_retries=2)
        dropped = []
        engine.tx_done_callback = lambda p, ok, asn: dropped.append((p, ok))
        for asn in (1, 11, 21):  # 1 initial attempt + 2 retries
            plan = engine.plan_slot(asn)
            engine.on_transmission_result(plan, make_result(engine, plan, acked=False), asn)
        assert engine.queue_length() == 0
        assert engine.stats.mac_drops == 1
        assert dropped == [(packet, False)]
        assert engine.etx.etx(1) > 2.0

    def test_tx_done_callback_on_success(self):
        engine, packet = self._tx_setup()
        done = []
        engine.tx_done_callback = lambda p, ok, asn: done.append(ok)
        plan = engine.plan_slot(1)
        engine.on_transmission_result(plan, make_result(engine, plan, acked=True), 1)
        assert done == [True]

    def test_collision_counted(self):
        engine, _ = self._tx_setup()
        plan = engine.plan_slot(1)
        engine.on_transmission_result(
            plan, make_result(engine, plan, acked=False, collided=True), 1
        )
        assert engine.stats.collisions_observed == 1

    def test_broadcast_is_fire_and_forget(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(
            Cell(0, 0, CellOption.TX | CellOption.BROADCAST, neighbor=None)
        )
        engine.enqueue(broadcast_packet())
        plan = engine.plan_slot(0)
        result = TransmissionResult(intent=engine.build_intent(plan))
        engine.on_transmission_result(plan, result, 0)
        assert engine.queue_length() == 0
        assert engine.stats.broadcast_sent == 1

    def test_shared_cell_failure_triggers_backoff(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 10)
        sf.add_cell(Cell(1, 0, CellOption.TX | CellOption.SHARED, neighbor=1))
        engine.enqueue(data_packet(destination=1))
        plan = engine.plan_slot(1)
        engine.on_transmission_result(plan, make_result(engine, plan, acked=False), 1)
        # The next failure may draw a non-zero window; exponent must have grown.
        assert engine.csma._state(1).exponent > engine.config.min_backoff_exponent


class TestReceptionAndAccounting:
    def test_rx_callback_invoked(self):
        engine = make_engine(node_id=1)
        received = []
        engine.rx_callback = lambda packet, asn: received.append(packet)
        packet = data_packet(destination=1, source=0)
        engine.on_frame_received(packet, asn=5)
        assert received == [packet]
        assert engine.stats.frames_received == 1

    def test_build_intent_requires_tx_plan(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.build_intent(engine.plan_slot(0))

    def test_account_slot(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 4)
        sf.add_cell(Cell(0, 0, CellOption.RX, neighbor=None))
        rx_plan = engine.plan_slot(0)
        engine.account_slot(rx_plan, frame_received=False)
        sleep_plan = engine.plan_slot(1)
        engine.account_slot(sleep_plan)
        assert engine.duty_cycle.idle_listen_slots == 1
        assert engine.duty_cycle.sleep_slots == 1

    def test_count_cells_and_all_cells(self):
        engine = make_engine()
        sf = engine.add_slotframe(0, 8)
        sf.add_cell(Cell(0, 0, CellOption.TX, neighbor=1))
        sf.add_cell(Cell(1, 0, CellOption.RX, neighbor=2))
        assert engine.count_cells(options=CellOption.TX) == 1
        assert engine.count_cells(neighbor=2) == 1
        assert len(engine.all_cells()) == 2


class TestScheduleProfile:
    """The kernel-facing derived schedule facts (see ScheduleProfile)."""

    def _engine_with_frames(self):
        engine = make_engine()
        first = engine.add_slotframe(0, 4)
        first.add_cell(Cell(slot_offset=1, channel_offset=0, options=CellOption.RX))
        second = engine.add_slotframe(1, 6)
        second.add_cell(Cell(slot_offset=1, channel_offset=0, options=CellOption.RX))
        second.add_cell(Cell(slot_offset=5, channel_offset=0, options=CellOption.RX))
        return engine

    def test_count_idle_listen_multi_frame_matches_brute_force(self):
        """The CRT inclusion-exclusion count equals slot-by-slot counting."""
        engine = self._engine_with_frames()
        profile = engine.schedule_profile()
        assert profile._rx_incexc is not None

        def brute(start, end):
            count = 0
            for asn in range(start, end):
                if asn % 4 == 1 or asn % 6 in (1, 5):
                    count += 1
            return count

        for start, end in [(0, 0), (0, 1), (0, 24), (3, 77), (120, 121), (7, 2000)]:
            assert profile.count_idle_listen(start, end) == brute(start, end)

    def test_count_idle_listen_falls_back_to_walk_when_many_progressions(self):
        engine = make_engine()
        first = engine.add_slotframe(0, 11)
        second = engine.add_slotframe(1, 13)
        for offset in range(5):
            first.add_cell(Cell(slot_offset=offset, channel_offset=0, options=CellOption.RX))
            second.add_cell(Cell(slot_offset=offset, channel_offset=0, options=CellOption.RX))
        profile = engine.schedule_profile()
        assert profile._rx_incexc is None  # 10 progressions > the 2^k cap

        def brute(start, end):
            return sum(
                1 for asn in range(start, end) if asn % 11 < 5 or asn % 13 < 5
            )

        assert profile.count_idle_listen(3, 500) == brute(3, 500)

    def test_next_tx_asn_mirrors_packet_for_cell(self):
        engine = make_engine()
        frame = engine.add_slotframe(0, 8)
        frame.add_cell(
            Cell(
                slot_offset=2,
                channel_offset=0,
                options=CellOption.TX | CellOption.SHARED | CellOption.BROADCAST,
            )
        )
        frame.add_cell(
            Cell(slot_offset=5, channel_offset=0, options=CellOption.TX, neighbor=7)
        )
        frame.add_cell(
            Cell(slot_offset=1, channel_offset=0, options=CellOption.TX, neighbor=8)
        )
        frame.add_cell(
            Cell(slot_offset=6, channel_offset=0, options=CellOption.TX | CellOption.BROADCAST)
        )
        profile = engine.schedule_profile()
        # Only the shared neighbour-less broadcast cell also carries unicast.
        assert profile.next_tx_asn(3, (False, (9,))) == 10

        def first_match(asn):
            """The first ASN at which _packet_for_cell finds a packet."""
            return next(
                (
                    candidate
                    for candidate in range(asn, asn + 8)
                    for cell in frame.cells_at(candidate)
                    if cell.is_tx and engine._packet_for_cell(cell) is not None
                ),
                None,
            )

        # At every ASN and for every queue -- broadcast and unicast mixed,
        # and several destinations -- the table-backed answer is the first
        # ASN at which the planner's _packet_for_cell finds a packet.
        queues = (
            [],
            [broadcast_packet()],
            [data_packet(7)],
            [data_packet(9)],
            [broadcast_packet(), data_packet(7)],
            [data_packet(8), broadcast_packet()],
            [data_packet(7), data_packet(8)],
            [data_packet(9), data_packet(8), data_packet(9)],
        )
        for packets in queues:
            engine.flush_queue()
            for packet in packets:
                engine.enqueue(packet)
            key = engine.queue_signature()
            for asn in range(8):
                assert profile.next_tx_asn(asn, key) == first_match(asn), (packets, asn)
        assert engine.queue_signature() == (False, (8, 9))
        assert (False, (8, 9)) in profile._tx_tables

    def test_next_tx_asn_table_follows_schedule_mutations(self):
        engine = make_engine()
        frame = engine.add_slotframe(0, 8)
        frame.add_cell(
            Cell(slot_offset=5, channel_offset=0, options=CellOption.TX, neighbor=7)
        )
        engine.enqueue(data_packet(7))
        key = engine.queue_signature()
        assert engine.schedule_profile().next_tx_asn(3, key) == 5
        # The same signature after a mutation reads the new schedule's table.
        extra = frame.add_cell(
            Cell(slot_offset=4, channel_offset=0, options=CellOption.TX, neighbor=7)
        )
        assert engine.queue_signature() is key
        assert engine.schedule_profile().next_tx_asn(3, key) == 4
        frame.remove_cell(extra)
        assert engine.schedule_profile().next_tx_asn(3, key) == 5
        frame.remove_cell(frame.cells_at(5)[0])
        assert engine.schedule_profile().next_tx_asn(3, key) is None

    def test_queue_signature_memoised_by_queue_version(self):
        engine = make_engine()
        assert engine.queue_signature() == (False, ())
        engine.enqueue(data_packet(destination=4))
        signature = engine.queue_signature()
        assert signature == (False, (4,))
        # Same queue version: the memoised tuple itself.
        assert engine.queue_signature() is signature
        engine.enqueue(data_packet(destination=2))
        engine.enqueue(broadcast_packet())
        assert engine.queue_signature() == (True, (2, 4))

    def test_settle_duty_cycle_credits_idle_listen_and_sleep(self):
        engine = self._engine_with_frames()
        engine.settle_duty_cycle(24)
        meter = engine.duty_cycle
        # Residues 1 mod 4 (6 of 24) plus 1,5 mod 6 (8 of 24) minus the
        # overlaps at 1 mod 12 and 5 mod 12 (2 each) = 10 listen slots.
        assert meter.total_slots == 24
        assert meter.idle_listen_slots == 10
        assert meter.sleep_slots == 14
        assert engine.duty_accounted_asn == 24
        # Settling again for the same ASN is a no-op.
        engine.settle_duty_cycle(24)
        assert meter.total_slots == 24
