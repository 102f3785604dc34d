"""Tests for the scheduling-function base interface."""

from repro.faults import FaultInjector, FaultPlan, NodeCrash
from repro.net.network import Network
from repro.net.topology import star_topology
from repro.schedulers.base import SchedulingFunction
from repro.schedulers.minimal import MinimalScheduler
from repro.sixtop.messages import SixPCommand, SixPMessage, SixPMessageType, SixPReturnCode



class TestSchedulingFunctionDefaults:
    def test_default_callbacks_are_noops(self):
        sf = SchedulingFunction()
        sf.start()
        sf.on_parent_changed(None, 1)
        sf.on_child_added(2)
        sf.on_child_removed(2)
        sf.on_eb_received(None)
        sf.on_dio_received(None)
        sf.on_packet_enqueued(None)
        sf.on_tx_done(None, True)
        assert sf.eb_fields() == {}
        assert sf.dio_fields() == {}

    def test_default_sixp_handler_rejects(self):
        sf = SchedulingFunction()
        message = SixPMessage(
            message_type=SixPMessageType.REQUEST, command=SixPCommand.ADD, seqnum=0
        )
        code, fields = sf.on_sixp_request(1, message)
        assert code is SixPReturnCode.ERR
        assert fields == {}

    def test_describe_schedule_detached(self):
        assert "detached" in SchedulingFunction().describe_schedule()

    def test_describe_schedule_lists_cells(self, gt_star_network):
        gt_star_network.start()
        text = gt_star_network.nodes[0].scheduler.describe_schedule()
        assert "slotframe 0" in text
        assert "Cell(" in text


class _RoundScheduler(MinimalScheduler):
    """Minimal's cells plus a counted adaptation round, and no ``stop()``."""

    PERIOD_S = 2.0

    def __init__(self):
        super().__init__()
        self.rounds = 0

    def start(self):
        super().start()
        self.start_rounds(self.PERIOD_S, self._round_tick, "test-round")

    def _round_tick(self):
        self.rounds += 1


class TestAdaptationRound:
    """The base class arms, cancels and reports the round of ``start_rounds``."""

    VICTIM = 1

    def test_crash_cancels_the_round_without_a_stop_override(self):
        assert "stop" not in vars(_RoundScheduler)
        network = Network(seed=3)
        network.build_from_topology(
            star_topology(3), scheduler_factory=lambda node_id, is_root: _RoundScheduler()
        )
        plan = FaultPlan(crashes=(NodeCrash(time_s=5.0, node_id=self.VICTIM),))
        FaultInjector(network, plan).arm()
        scheduler = network.nodes[self.VICTIM].scheduler
        assert scheduler.load_balance_period_s() == 0.0  # no round before start
        network.start()
        assert scheduler._round.running
        network.run_seconds(5.1)  # just past the crash
        assert not network.nodes[self.VICTIM].alive
        assert not scheduler._round.running
        rounds = scheduler.rounds
        assert rounds >= 2
        network.run_seconds(5.0)
        assert scheduler.rounds == rounds
        assert scheduler.load_balance_period_s() == _RoundScheduler.PERIOD_S
        # The survivors' rounds keep running.
        assert network.nodes[2].scheduler._round.running
