"""Unit tests for the RPL candidate-rank memoisation.

The memo's contract: a reception that changes no evaluation input settles
without re-ranking anything, and an evaluation re-scores exactly the
candidates whose inputs (advertised rank / DODAG id / DODAG version, or the
per-link ETX estimate) were dirtied since they were last scored.  Everything
here drives a bare :class:`RplEngine` + :class:`EtxEstimator` pair, so each
invalidation source is exercised in isolation.
"""

import random

from repro.phy.linkstats import EtxEstimator
from repro.rpl.engine import RplConfig, RplEngine
from repro.rpl.messages import make_dio
from repro.sim.events import EventQueue


def make_engine(memo=True):
    """An engine over a fresh estimator; ``memo=False`` withholds the ETX
    state, which makes the engine re-rank on every reception."""
    estimator = EtxEstimator()
    engine = RplEngine(
        node_id=99,
        config=RplConfig(),
        queue=EventQueue(),
        rng=random.Random(7),
        send_packet=lambda packet: None,
        etx_of=estimator.etx,
        etx_state=estimator if memo else None,
    )
    return engine, estimator


def deliver_dio(engine, sender, rank, dodag_id=1, version=0, now=1.0):
    engine.process_dio(
        make_dio(sender=sender, dodag_id=dodag_id, rank=rank, version=version, now=now),
        now,
    )


def converge(engine):
    """Repeat an input-free reception until the engine reaches a fixed point."""
    parent = engine.neighbors[engine.preferred_parent]
    for _ in range(3):
        deliver_dio(engine, parent.node_id, parent.rank)


class TestInputFreeReceptionSkips:
    def test_identical_dio_skips_evaluation_entirely(self):
        engine, _ = make_engine()
        deliver_dio(engine, sender=1, rank=256)
        converge(engine)
        evals = engine.parent_evaluations
        recomputes = engine.candidate_recomputes
        skips = engine.evaluations_skipped
        deliver_dio(engine, sender=1, rank=256)
        assert engine.parent_evaluations == evals
        assert engine.candidate_recomputes == recomputes
        assert engine.evaluations_skipped == skips + 1
        # Freshness bookkeeping still happened.
        assert engine.neighbors[1].last_heard == 1.0

    def test_skip_requires_a_fixed_point(self):
        """An evaluation that moved our own rank forces the next reception
        to evaluate again (own state is a selection input); once an
        evaluation changes nothing, skipping resumes."""
        engine, estimator = make_engine()
        deliver_dio(engine, sender=1, rank=256)
        converge(engine)
        # Dirty the parent link: the next reception re-evaluates and
        # refreshes our rank (ETX moved), which is not a fixed point ...
        estimator.record_tx(1, success=False, attempts=5)
        deliver_dio(engine, sender=1, rank=256)
        evals = engine.parent_evaluations
        # ... so the following identical reception evaluates again ...
        deliver_dio(engine, sender=1, rank=256)
        assert engine.parent_evaluations == evals + 1
        # ... and only after that no-op evaluation does skipping resume.
        skips = engine.evaluations_skipped
        deliver_dio(engine, sender=1, rank=256)
        assert engine.evaluations_skipped == skips + 1


class TestPerCandidateInvalidation:
    def setup_pair(self):
        engine, estimator = make_engine()
        deliver_dio(engine, sender=1, rank=256)
        deliver_dio(engine, sender=2, rank=4 * 256)
        converge(engine)
        return engine, estimator

    def test_etx_update_dirties_exactly_the_affected_candidate(self):
        engine, estimator = self.setup_pair()
        recomputes = engine.candidate_recomputes
        estimator.record_tx(2, success=True, attempts=2)
        deliver_dio(engine, sender=1, rank=256)  # input-free DIO, dirty ETX
        assert engine.candidate_recomputes == recomputes + 1

    def test_advertised_rank_change_dirties_exactly_that_candidate(self):
        engine, _ = self.setup_pair()
        recomputes = engine.candidate_recomputes
        deliver_dio(engine, sender=2, rank=5 * 256)
        assert engine.candidate_recomputes == recomputes + 1

    def test_dodag_version_bump_dirties_exactly_that_candidate(self):
        engine, _ = self.setup_pair()
        recomputes = engine.candidate_recomputes
        deliver_dio(engine, sender=2, rank=4 * 256, version=1)
        assert engine.candidate_recomputes == recomputes + 1

    def test_new_neighbor_scores_only_itself(self):
        engine, _ = self.setup_pair()
        recomputes = engine.candidate_recomputes
        deliver_dio(engine, sender=3, rank=2 * 256)
        assert engine.candidate_recomputes == recomputes + 1

    def test_eviction_dirties_the_memo_and_drops_the_entry(self):
        engine, _ = self.setup_pair()
        evals = engine.parent_evaluations
        recomputes = engine.candidate_recomputes
        engine.evict_neighbor(2)
        assert 2 not in engine.neighbors
        # Eviction re-evaluates immediately; the surviving candidate's memo
        # is still valid, so nothing is re-scored.
        assert engine.parent_evaluations == evals + 1
        assert engine.candidate_recomputes == recomputes
        # And the now-converged state skips again.
        skips = engine.evaluations_skipped
        deliver_dio(engine, sender=1, rank=256)
        assert engine.evaluations_skipped == skips + 1

    def test_evicting_the_parent_detaches_and_readopts(self):
        engine, _ = self.setup_pair()
        assert engine.preferred_parent == 1
        switches = []
        engine.on_parent_changed = lambda old, new: switches.append((old, new))
        engine.evict_neighbor(1)
        assert switches[0] == (1, None)
        # The surviving neighbor (rank 4*256) is adopted as replacement.
        assert engine.preferred_parent == 2
        assert 1 not in engine.neighbors

    def test_children_membership_is_an_evaluation_input(self):
        engine, _ = self.setup_pair()
        from repro.rpl.messages import make_dao

        engine.process_dao(make_dao(sender=2, parent=99, dodag_id=1, rank=5 * 256, now=2.0), 2.0)
        assert 2 in engine.children
        evals = engine.parent_evaluations
        deliver_dio(engine, sender=1, rank=256)  # otherwise input-free
        assert engine.parent_evaluations == evals + 1


class TestEvictionMemoInteraction:
    """``evict_neighbor`` (the fault path's detach primitive) vs the memo.

    Fault detection evicts dead neighbors from every survivor; the memo
    must never serve a stale score for an evicted candidate, and a
    preferred-parent eviction must force re-evaluation rather than settle
    on the pre-eviction fixed point.
    """

    def setup_pair(self):
        engine, estimator = make_engine()
        deliver_dio(engine, sender=1, rank=256)
        deliver_dio(engine, sender=2, rank=4 * 256)
        converge(engine)
        return engine, estimator

    def test_evicted_then_readvertised_candidate_is_scored_fresh(self):
        """Re-adding an evicted neighbor re-scores it: no stale memo entry."""
        engine, _ = self.setup_pair()
        engine.evict_neighbor(2)
        assert 2 not in engine.neighbors
        recomputes = engine.candidate_recomputes
        deliver_dio(engine, sender=2, rank=4 * 256)
        assert 2 in engine.neighbors
        assert engine.candidate_recomputes == recomputes + 1

    def test_sole_parent_eviction_detaches_then_fresh_dio_readopts(self):
        from repro.rpl.rank import INFINITE_RANK

        engine, _ = make_engine()
        deliver_dio(engine, sender=1, rank=256)
        converge(engine)
        engine.evict_neighbor(1)
        assert engine.preferred_parent is None
        assert engine.rank == INFINITE_RANK
        assert engine.neighbors == {}
        # The re-advertising neighbor is evaluated from scratch, never
        # served from a stale memoised candidate score.
        recomputes = engine.candidate_recomputes
        evals = engine.parent_evaluations
        deliver_dio(engine, sender=1, rank=256)
        assert engine.preferred_parent == 1
        assert engine.rank < INFINITE_RANK
        assert engine.parent_evaluations == evals + 1
        assert engine.candidate_recomputes == recomputes + 1

    def test_parent_eviction_clears_the_fixed_point_skip(self):
        """After evicting the preferred parent, the next reception must
        evaluate (own rank changed with the switch), not skip."""
        engine, _ = self.setup_pair()
        assert engine.preferred_parent == 1
        engine.evict_neighbor(1)
        assert engine.preferred_parent == 2  # switched to the survivor
        evals = engine.parent_evaluations
        skips = engine.evaluations_skipped
        deliver_dio(engine, sender=2, rank=4 * 256)
        assert engine.parent_evaluations == evals + 1
        assert engine.evaluations_skipped == skips
        # Once the post-eviction state is a fixed point, skipping resumes.
        converge(engine)
        skips = engine.evaluations_skipped
        deliver_dio(engine, sender=2, rank=4 * 256)
        assert engine.evaluations_skipped == skips + 1


class TestEscapeHatch:
    """An engine without ETX state has no memo: the seed engine's behaviour."""

    def test_memo_off_rescores_every_reception(self):
        engine, _ = make_engine(memo=False)
        deliver_dio(engine, sender=1, rank=256)
        deliver_dio(engine, sender=2, rank=4 * 256)
        converge(engine)
        evals = engine.parent_evaluations
        recomputes = engine.candidate_recomputes
        deliver_dio(engine, sender=1, rank=256)
        assert engine.evaluations_skipped == 0
        assert engine.parent_evaluations == evals + 1
        # Every candidate was re-scored, exactly as the seed engine did.
        assert engine.candidate_recomputes == recomputes + 2

    def test_memo_and_escape_hatch_agree_on_state(self):
        on, estimator_on = make_engine(memo=True)
        off, estimator_off = make_engine(memo=False)
        for engine, estimator in ((on, estimator_on), (off, estimator_off)):
            deliver_dio(engine, sender=1, rank=256)
            deliver_dio(engine, sender=2, rank=3 * 256)
            estimator.record_tx(1, success=False, attempts=5)
            deliver_dio(engine, sender=2, rank=3 * 256)
            deliver_dio(engine, sender=2, rank=3 * 256)
            deliver_dio(engine, sender=1, rank=6 * 256)
            deliver_dio(engine, sender=1, rank=6 * 256)
        assert on.preferred_parent == off.preferred_parent
        assert on.rank == off.rank
        assert {n: (v.rank, v.dodag_id) for n, v in on.neighbors.items()} == {
            n: (v.rank, v.dodag_id) for n, v in off.neighbors.items()
        }
