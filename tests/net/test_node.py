"""Tests for the node layer (forwarding, sink behaviour, EBs)."""


from repro.net.topology import line_topology, star_topology

from tests.conftest import make_gt_network


class TestNodeComposition:
    def test_layers_are_wired(self, gt_star_network):
        node = gt_star_network.nodes[1]
        assert node.tsch.rx_callback is not None
        assert node.tsch.tx_done_callback is not None
        assert node.sixtop.request_handler is not None
        assert node.rpl.dio_extra_provider is not None
        assert node.scheduler.node is node

    def test_warm_start_presets_parents(self, gt_star_network):
        assert gt_star_network.nodes[1].rpl.preferred_parent == 0
        assert gt_star_network.nodes[0].rpl.is_root

    def test_repr(self, gt_star_network):
        assert "root" in repr(gt_star_network.nodes[0])


class TestDataGeneration:
    def test_root_does_not_generate(self, gt_star_network):
        gt_star_network.start()
        assert gt_star_network.nodes[0].generate_data() is None

    def test_unjoined_node_does_not_generate(self):
        network = make_gt_network(star_topology(2), warm_start=False)
        network.start()
        assert network.nodes[1].generate_data() is None
        assert network.nodes[1].stats.data_generated == 0

    def test_generated_packet_is_addressed_to_root_via_parent(self, gt_star_network):
        gt_star_network.start()
        node = gt_star_network.nodes[2]
        packet = node.generate_data()
        assert packet is not None
        assert packet.destination == 0
        assert node.stats.data_generated == 1
        queued = node.tsch.queue.peek_for(0)
        assert queued is not None
        assert queued.link_destination == 0

    def test_traffic_disabled_stops_generation(self, gt_star_network):
        gt_star_network.start()
        node = gt_star_network.nodes[1]
        node.traffic_enabled = False
        assert node.generate_data() is None

    def test_sequence_numbers_increment(self, gt_star_network):
        gt_star_network.start()
        node = gt_star_network.nodes[1]
        first = node.generate_data()
        second = node.generate_data()
        assert second.app_seqno == first.app_seqno + 1


class TestForwardingAndSink:
    def test_root_delivers_to_application(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        leaf = gt_star_network.nodes[1]
        packet = leaf.generate_data()
        hop = packet.for_next_hop(leaf.node_id, root.node_id)
        root._on_mac_rx(hop, asn=10)
        assert root.stats.data_delivered_as_sink == 1

    def test_intermediate_node_forwards_towards_parent(self):
        network = make_gt_network(line_topology(3, spacing=25.0))
        network.start()
        middle = network.nodes[1]
        leaf = network.nodes[2]
        packet = leaf.generate_data()
        hop = packet.for_next_hop(leaf.node_id, middle.node_id)
        middle._on_mac_rx(hop, asn=5)
        assert middle.stats.data_forwarded == 1
        forwarded = middle.tsch.queue.peek_for(0)
        assert forwarded is not None
        assert forwarded.hops == 1
        assert forwarded.packet_id == packet.packet_id

    def test_forwarding_without_parent_counts_routing_drop(self):
        network = make_gt_network(star_topology(2), warm_start=False)
        network.start()
        node = network.nodes[1]
        # Fake a joined state without a parent to hit the no-route branch.
        node.rpl.dodag_id = 0
        node.rpl.rank = 512
        node.is_root = False
        packet = node.generate_data()
        assert packet is None or node.stats.routing_drops >= 0
        # Directly exercise the forwarding path with no parent:
        from repro.net.packet import make_data_packet

        orphan = make_data_packet(source=1, destination=0, created_at=0.0)
        assert not node._route_and_enqueue(orphan)
        assert node.stats.routing_drops >= 1


class TestControlPlane:
    def test_eb_sent_periodically_and_carries_scheduler_fields(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(5.0)
        root = gt_star_network.nodes[0]
        assert root.stats.eb_sent > 0
        # The GT-TSCH root advertises its child-facing channel in EBs.
        assert root.scheduler.own_child_channel is not None

    def test_eb_not_queued_twice(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        root._send_eb()
        before = root.stats.eb_sent
        root._send_eb()  # previous EB still queued -> skipped
        assert root.stats.eb_sent == before

    def test_unjoined_node_sends_no_ebs(self):
        network = make_gt_network(star_topology(2), warm_start=False)
        network.start()
        node = network.nodes[1]
        node._send_eb()
        assert node.stats.eb_sent == 0

    def test_dio_processing_reaches_scheduler_and_rpl(self, gt_star_network):
        gt_star_network.start()
        child = gt_star_network.nodes[1]
        from repro.rpl.messages import make_dio

        dio = make_dio(sender=0, dodag_id=0, rank=256, l_rx=7)
        child._on_mac_rx(dio, asn=3)
        assert child.rpl.neighbors[0].l_rx == 7

    def test_sixp_packet_dispatched_to_sixtop(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        child = gt_star_network.nodes[1]
        from repro.sixtop.messages import SixPCommand, SixPMessage, SixPMessageType, make_sixp_packet

        request = SixPMessage(
            message_type=SixPMessageType.REQUEST,
            command=SixPCommand.ASK_CHANNEL,
            seqnum=0,
        )
        packet = make_sixp_packet(child.node_id, root.node_id, request)
        root._on_mac_rx(packet, asn=1)
        assert root.sixtop.responses_sent == 1

    def test_queue_drop_recorded(self, gt_star_network):
        gt_star_network.start()
        node = gt_star_network.nodes[1]
        node.tsch.queue.capacity = 1
        node.generate_data()
        node.generate_data()
        assert node.stats.queue_drops >= 1

    def test_data_packet_evicted_by_a_control_frame_is_reported_lost(self, gt_star_network):
        """A DIO meeting a full queue evicts the youngest data packet: a queue loss."""
        from repro.rpl.messages import make_dio

        network = gt_star_network
        network.start()
        network.metrics.begin_measurement(network.nodes.values(), now=0.0)
        node = network.nodes[1]
        node.tsch.queue.clear()
        node.tsch.queue.capacity = 2
        first = node.generate_data()
        node.generate_data()
        assert node.tsch.queue.is_full
        losses_before = dict(network.metrics._losses)
        assert node.enqueue_packet(make_dio(sender=1, dodag_id=0, rank=512))
        assert [packet.packet_id for packet in node.tsch.queue.data_packets()] == [first.packet_id]
        assert network.metrics._losses["queue"] == losses_before["queue"] + 1
        assert node.stats.queue_drops == 1
