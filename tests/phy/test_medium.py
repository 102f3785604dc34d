"""Tests for per-slot medium arbitration (collisions, ACKs, hidden terminals)."""

import math
import random

import pytest

from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType, make_data_packet
from repro.phy.medium import Medium, TransmissionIntent, TransmissionResult
from repro.phy.propagation import (
    FixedPrrModel,
    LogisticPrrModel,
    UnitDiskLossyEdgeModel,
    distance,
)


def perfect_medium(positions, interference_pairs=None):
    """A medium where every registered link is perfect (PRR 1)."""
    model = FixedPrrModel(default_prr=0.0)
    keys = list(positions.items())
    for i, (_, pa) in enumerate(keys):
        for j, (_, pb) in enumerate(keys):
            if i < j:
                model.set_link(pa, pb, 1.0)
    if interference_pairs:
        for a, b in interference_pairs:
            model.add_interference(positions[a], positions[b])
    medium = Medium(model, random.Random(1))
    for node_id, position in positions.items():
        medium.register_node(node_id, position)
    return medium


def unicast(sender, receiver, channel):
    packet = make_data_packet(sender, receiver, created_at=0.0)
    packet.link_source = sender
    packet.link_destination = receiver
    return TransmissionIntent(sender=sender, packet=packet, channel=channel)


class TestLinkQueries:
    def test_link_prr_and_neighbors(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0, 0))
        medium.register_node(1, (10, 0))
        medium.register_node(2, (200, 0))
        assert medium.link_prr(0, 1) > 0.9
        assert medium.link_prr(0, 2) == 0.0
        assert medium.neighbors_of(0) == [1]

    def test_self_link_is_zero(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0, 0))
        assert medium.link_prr(0, 0) == 0.0
        assert not medium.interferes(0, 0)

    def test_moving_a_node_invalidates_cache(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0, 0))
        medium.register_node(1, (10, 0))
        assert medium.link_prr(0, 1) > 0.0
        medium.register_node(1, (500, 0))
        assert medium.link_prr(0, 1) == 0.0


class TestSlotResolution:
    def test_single_unicast_delivery_and_ack(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, channel=15)], {1: 15})
        assert results[0].delivered
        assert results[0].acked
        assert results[0].receivers == [1]

    def test_no_delivery_when_listener_on_other_channel(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, channel=15)], {1: 20})
        assert not results[0].delivered
        assert not results[0].acked

    def test_no_delivery_when_destination_not_listening(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, channel=15)], {})
        assert not results[0].delivered

    def test_collision_when_two_senders_same_channel(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0)})
        intents = [unicast(0, 1, 15), unicast(2, 1, 15)]
        results = medium.resolve_slot(intents, {1: 15})
        assert not results[0].delivered
        assert not results[1].delivered
        assert results[0].collided or results[1].collided
        assert medium.total_collisions >= 1

    def test_no_collision_on_different_channels(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)})
        intents = [unicast(0, 1, 15), unicast(2, 3, 20)]
        results = medium.resolve_slot(intents, {1: 15, 3: 20})
        assert results[0].delivered
        assert results[1].delivered

    def test_hidden_terminal_collision(self):
        """Two senders out of each other's range still collide at the listener.

        This is interference problem 4 of Section III (the hidden-terminal
        case motivating GT-TSCH's three-hop channel uniqueness).
        """
        model = FixedPrrModel(default_prr=0.0)
        positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)}
        model.set_link(positions[0], positions[1], 1.0)
        model.set_link(positions[2], positions[1], 1.0)
        # Senders 0 and 2 cannot hear each other (no link), but both reach 1.
        medium = Medium(model, random.Random(1))
        for node_id, position in positions.items():
            medium.register_node(node_id, position)
        results = medium.resolve_slot([unicast(0, 1, 15), unicast(2, 1, 15)], {1: 15})
        assert not results[0].delivered
        assert not results[1].delivered

    def test_broadcast_reaches_all_listeners(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0)})
        packet = Packet(
            ptype=PacketType.DIO,
            source=0,
            destination=BROADCAST_ADDRESS,
            link_source=0,
            link_destination=BROADCAST_ADDRESS,
        )
        intent = TransmissionIntent(sender=0, packet=packet, channel=15, expects_ack=False)
        results = medium.resolve_slot([intent], {1: 15, 2: 15})
        assert sorted(results[0].receivers) == [1, 2]
        assert not results[0].acked

    def test_lossy_link_statistics(self):
        model = FixedPrrModel(default_prr=0.0)
        model.set_link((0.0, 0.0), (1.0, 0.0), 0.5)
        medium = Medium(model, random.Random(7))
        medium.register_node(0, (0.0, 0.0))
        medium.register_node(1, (1.0, 0.0))
        delivered = 0
        for _ in range(400):
            results = medium.resolve_slot([unicast(0, 1, 15)], {1: 15})
            delivered += int(results[0].delivered)
        assert 140 < delivered < 260  # ~50 % with generous slack

    def test_transmitter_not_in_listeners(self):
        """Half-duplex: the sender itself never appears as a receiver."""
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, 15)], {1: 15})
        assert 0 not in results[0].receivers

    def test_empty_slot(self):
        medium = perfect_medium({0: (0, 0)})
        assert medium.resolve_slot([], {0: 15}) == []

    def test_interference_only_node_does_not_decode(self):
        """A node in interference range but out of communication range corrupts
        receptions without being able to decode anything itself."""
        model = FixedPrrModel(default_prr=0.0)
        a, b, c = (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)
        model.set_link(a, b, 1.0)
        model.add_interference(c, b)  # c's energy reaches b, but no usable link
        medium = Medium(model, random.Random(1))
        medium.register_node(0, a)
        medium.register_node(1, b)
        medium.register_node(2, c)
        # c transmits to an unrelated destination on the same channel.
        intents = [unicast(0, 1, 15), unicast(2, 0, 15)]
        results = medium.resolve_slot(intents, {1: 15})
        assert not results[0].delivered


class TestFreeze:
    def _medium(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0.0, 0.0))
        medium.register_node(1, (10.0, 0.0))
        medium.register_node(2, (60.0, 0.0))   # interference range only
        medium.register_node(3, (500.0, 0.0))  # out of range entirely
        return medium

    def test_frozen_tables_match_lazy_queries(self):
        """A query on an unfrozen medium freezes it and answers as the model."""
        medium = self._medium()
        model = medium.propagation
        assert not medium.frozen
        for a in range(4):
            for b in range(4):
                pa, pb = medium.position_of(a), medium.position_of(b)
                expected_prr = 0.0 if a == b else model.prr(pa, pb)
                expected_interf = a != b and model.in_interference_range(pa, pb)
                assert medium.link_prr(a, b) == expected_prr
                assert medium.interferes(a, b) == expected_interf
        assert medium.frozen
        assert medium.neighbors_of(0) == [1]

    def test_freeze_is_idempotent_and_register_unfreezes(self):
        medium = self._medium()
        medium.freeze()
        medium.freeze()
        assert medium.frozen
        medium.register_node(4, (20.0, 0.0))
        assert not medium.frozen
        medium.freeze()
        assert medium.link_prr(0, 4) > 0.0

    def test_audience_of_is_the_interference_neighbourhood(self):
        medium = self._medium()
        medium.freeze()
        assert medium.audience_of(0) == frozenset({1, 2})
        assert medium.audience_of(3) == frozenset()


def brute_force_resolve(medium, intents, listeners):
    """Arbitrate by checking every listener against every intent.

    The medium's former general loop, kept as the oracle: listeners are
    visited in ``listeners`` order, each against every intent on its
    channel, drawing from ``medium.rng`` and bumping its counters exactly as
    ``Medium.resolve_slot`` must.
    """
    results = [TransmissionResult(intent=intent) for intent in intents]
    medium.total_transmissions += len(intents)
    per_channel = {}
    for index, intent in enumerate(intents):
        per_channel.setdefault(intent.channel, []).append(index)
    for listener, channel in listeners.items():
        indices = per_channel.get(channel)
        if not indices:
            continue
        audible = [i for i in indices if medium.interferes(intents[i].sender, listener)]
        if not audible:
            continue
        if len(audible) > 1:
            for i in audible:
                if intents[i].packet.link_destination in (listener, BROADCAST_ADDRESS):
                    results[i].collided = True
            medium.total_collisions += 1
            continue
        index = audible[0]
        intent = intents[index]
        prr = medium.link_prr(intent.sender, listener)
        if prr <= 0.0:
            continue
        if medium.rng.random() <= prr:
            results[index].receivers.append(listener)
            if intent.packet.link_destination == listener:
                results[index].delivered = True
    for result in results:
        intent = result.intent
        if not intent.expects_ack or intent.packet.is_broadcast or not result.delivered:
            continue
        reverse = medium.link_prr(intent.packet.link_destination, intent.sender)
        result.acked = medium.rng.random() <= min(1.0, reverse * medium.ack_prr_scale)
    return results


def broadcast(sender, channel):
    packet = make_data_packet(sender, BROADCAST_ADDRESS, created_at=0.0)
    packet.link_source = sender
    packet.link_destination = BROADCAST_ADDRESS
    return TransmissionIntent(sender=sender, packet=packet, channel=channel, expects_ack=False)


def _dense_fixed_model(rng, positions):
    """Random asymmetric links plus interference-only pairs (no usable link)."""
    model = FixedPrrModel(default_prr=0.0, symmetric=False)
    for a in positions:
        for b in positions:
            if a == b:
                continue
            draw = rng.random()
            if draw < 0.3:
                model.set_link(a, b, rng.choice([0.3, 0.8, 1.0]))
            elif draw < 0.5:
                model.add_interference(a, b)
    return model


#: Models under the arbitration property test.  The long logistic tail puts
#: listeners with PRR > 0 outside interference range into the sparse rows.
ARBITRATION_MODELS = {
    "unit-disk": lambda rng, positions: UnitDiskLossyEdgeModel(
        reliable_range=15.0, communication_range=25.0, interference_range=40.0
    ),
    "logistic-tail": lambda rng, positions: LogisticPrrModel(
        midpoint=20.0, steepness=0.2, interference_range=25.0, prr_floor=0.001
    ),
    "fixed": _dense_fixed_model,
}
CHANNELS = (11, 15, 20)


def _random_slot(rng, node_ids, channels):
    """Broadcast/unicast intents over ``channels``, shuffled listeners."""
    senders = rng.sample(node_ids, rng.randint(1, 6))
    intents = []
    for sender in senders:
        channel = rng.choice(channels)
        if rng.random() < 0.4:
            intents.append(broadcast(sender, channel))
        else:
            receiver = rng.choice([n for n in node_ids if n != sender])
            intents.append(unicast(sender, receiver, channel))
    others = [n for n in node_ids if n not in senders]
    chosen = rng.sample(others, rng.randint(0, len(others)))  # random order
    return intents, {listener: rng.choice(channels) for listener in chosen}


def _outcome(medium, results):
    return (
        [(r.receivers, r.delivered, r.acked, r.collided) for r in results],
        medium.total_collisions,
        medium.total_transmissions,
        # The RNG stream must be consumed identically.
        medium.rng.random(),
    )


def _assert_matches_brute_force(build, intents, listeners, freeze=True):
    medium = build()
    if freeze:
        medium.freeze()
    fast = _outcome(medium, medium.resolve_slot(intents, dict(listeners)))
    oracle = build()
    assert fast == _outcome(oracle, brute_force_resolve(oracle, intents, dict(listeners)))
    return fast


class TestArbitrationMatchesBruteForce:
    """``resolve_slot`` equals checking every listener against every intent."""

    @pytest.mark.parametrize("name", sorted(ARBITRATION_MODELS))
    @pytest.mark.parametrize("seed", range(8))
    def test_random_slots(self, name, seed):
        rng = random.Random(seed)
        node_ids = list(range(24))
        rng.shuffle(node_ids)  # registration order differs from id order
        positions = {n: (rng.uniform(0, 60), rng.uniform(0, 60)) for n in node_ids}

        def build():
            model = ARBITRATION_MODELS[name](random.Random(seed), list(positions.values()))
            medium = Medium(model, random.Random(seed + 1), ack_prr_scale=0.9)
            for node_id, position in positions.items():
                medium.register_node(node_id, position)
            return medium

        collisions = 0
        for slot in range(12):
            # Even slots put every intent and listener on one channel.
            channels = CHANNELS if slot % 2 else CHANNELS[:1]
            intents, listeners = _random_slot(rng, node_ids, channels)
            outcome = _assert_matches_brute_force(build, intents, listeners)
            collisions += outcome[1]
        assert collisions > 0  # the layouts are dense enough to collide

    def test_single_sender_with_listeners_on_several_channels(self):
        def build():
            medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)})
            medium.rng = random.Random(42)
            return medium

        outcome = _assert_matches_brute_force(
            build, [unicast(0, 1, channel=15)], {1: 15, 2: 20, 3: 15}
        )
        assert outcome[0] == [([1, 3], True, True, False)]

    @pytest.mark.parametrize("freeze", [False, True])
    def test_interference_only_pairs_collide_on_one_channel(self, freeze):
        def build():
            medium = perfect_medium(
                {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)},
                interference_pairs=[(0, 3), (1, 3), (0, 2), (1, 2)],
            )
            medium.rng = random.Random(7)
            return medium

        intents = [unicast(0, 2, channel=15), unicast(1, 3, channel=15)]
        outcome = _assert_matches_brute_force(build, intents, {2: 15, 3: 15}, freeze)
        assert outcome[0] == [([], False, False, True), ([], False, False, True)]
        assert outcome[1] == 2


def _fixed_model_with_interference(rng, positions):
    model = FixedPrrModel(default_prr=0.0, symmetric=False)
    for a in positions:
        for b in positions:
            if a != b and rng.random() < 0.1:
                model.set_link(a, b, rng.choice([0.3, 0.8, 1.0]))
            elif a != b and rng.random() < 0.05:
                model.add_interference(a, b)
    return model


#: Models under the sparse-freeze property test; FixedPrrModel gets its
#: random links and interference pairs from the layout.
SPARSE_MODELS = {
    "unit-disk": lambda rng, positions: UnitDiskLossyEdgeModel(),
    "unit-disk-short": lambda rng, positions: UnitDiskLossyEdgeModel(
        reliable_range=10.0, communication_range=20.0, interference_range=25.0
    ),
    "logistic": lambda rng, positions: LogisticPrrModel(),
    # A long tail: PRR stays above the floor well past interference range.
    "logistic-tail": lambda rng, positions: LogisticPrrModel(
        midpoint=40.0, steepness=0.1, interference_range=50.0, prr_floor=0.001
    ),
    "fixed": _fixed_model_with_interference,
}


def _layout(seed, reach):
    """Random positions plus the edge cases of the freeze grid."""
    rng = random.Random(seed)
    positions = [(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0)) for _ in range(40)]
    if math.isfinite(reach):
        # Pairs exactly ``reach`` apart and nodes on cell boundaries, on
        # both sides of the origin, plus one-ulp neighbours of a boundary.
        positions += [(k * reach, 0.0) for k in range(-2, 3)]
        positions += [(0.0, k * reach) for k in (-1, 1)]
        positions += [(reach, reach), (-reach, -reach)]
        positions += [(math.nextafter(reach, 0.0), 0.0), (math.nextafter(reach, 1e9), 0.0)]
    positions += [positions[0]]  # two nodes at one spot
    return positions


class TestSparseFreeze:
    """Frozen rows answer exactly as the model's scalar functions."""

    @pytest.mark.parametrize("name", sorted(SPARSE_MODELS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_frozen_queries_equal_model_answers(self, name, seed):
        finite = SPARSE_MODELS[name](random.Random(0), []).reach
        positions = _layout(seed, finite)
        model = SPARSE_MODELS[name](random.Random(seed), positions)
        medium = Medium(model, random.Random(0))
        ids = [100 - 3 * index for index in range(len(positions))]  # not sorted
        for node_id, position in zip(ids, positions):
            medium.register_node(node_id, position)
        medium.freeze()
        reach = model.reach
        for a, pa in zip(ids, positions):
            audience = set()
            neighbors = []
            for b, pb in zip(ids, positions):
                prr = 0.0 if a == b else model.prr(pa, pb)
                interferes = a != b and model.in_interference_range(pa, pb)
                if prr > 0.0 or interferes:
                    assert distance(pa, pb) <= reach, (a, b)
                assert medium.link_prr(a, b) == prr, (a, b)
                assert medium.interferes(a, b) == interferes, (a, b)
                if interferes:
                    audience.add(b)
                if prr > 0.0:
                    neighbors.append(b)
            assert medium.audience_of(a) == frozenset(audience)
            assert medium.neighbors_of(a) == neighbors

    def test_reach_per_model(self):
        assert UnitDiskLossyEdgeModel().reach == 70.0
        assert FixedPrrModel().reach == math.inf
        # The default logistic curve drops below its floor inside
        # interference range; a long tail pushes reach past it.
        assert LogisticPrrModel().reach == 80.0
        tail = LogisticPrrModel(
            midpoint=40.0, steepness=0.1, interference_range=50.0, prr_floor=0.001
        )
        assert tail.reach > 100.0
        assert tail.prr((0.0, 0.0), (tail.reach, 0.0)) == 0.0
        assert tail.prr((0.0, 0.0), (tail.reach - 1e-3, 0.0)) > 0.0
        assert LogisticPrrModel(steepness=0.0).reach == math.inf


class TestScaledRows:
    def _medium(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        for node_id, x in enumerate((0.0, 20.0, 40.0, 300.0)):
            medium.register_node(node_id, (x, 0.0))
        medium.freeze()
        return medium

    def test_per_link_scales_compose_with_the_scalar_scale(self):
        medium = self._medium()
        ids = medium.node_ids()
        pristine = {(a, b): medium.link_prr(a, b) for a in ids for b in ids}
        rows = {a: [0.5 + 0.1 * b for b in ids] for a in ids}
        medium.set_link_prr_scales(rows)
        medium.set_prr_scale(0.5)
        for (a, b), value in pristine.items():
            assert medium.link_prr(a, b) == value * 0.5 * rows[a][b]
        medium.set_link_prr_scales(None)
        medium.set_prr_scale(1.0)
        assert {(a, b): medium.link_prr(a, b) for a in ids for b in ids} == pristine

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({0: [1.0] * 4}, "missing sender"),
            ({a: [1.0] * 3 for a in range(4)}, "expected 4"),
            ({a: [1.0, 1.0, 0.0, 1.0] for a in range(4)}, r"\(0, 1\]"),
        ],
    )
    def test_bad_scale_rows_rejected(self, rows, message):
        medium = self._medium()
        with pytest.raises(ValueError, match=message):
            medium.set_link_prr_scales(rows)
        assert not medium.in_link_epoch

    def test_epochs_require_a_frozen_medium(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0.0, 0.0))
        with pytest.raises(RuntimeError, match="frozen"):
            medium.set_prr_scale(0.5)
