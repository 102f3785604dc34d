"""Tests for the Nash-equilibrium analysis (Theorems 1-2 of the paper)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.game import GameWeights, PlayerState, optimal_tx_cells
from repro.core.nash import (
    best_response,
    best_response_dynamics,
    equilibrium_profile,
    is_nash_equilibrium,
    pseudo_gradient_jacobian,
    verify_concavity,
    verify_diagonal_strict_concavity,
)


def player(l_min=0.0, l_rx=10.0, rank=0.5, etx=1.5, q=2.0, q_max=8.0):
    return PlayerState(
        l_tx_min=l_min,
        l_rx_parent=l_rx,
        rank_normalised=rank,
        etx=etx,
        queue_metric=q,
        q_max=q_max,
    )


players_strategy = st.lists(
    st.builds(
        player,
        l_min=st.floats(min_value=0.0, max_value=5.0),
        l_rx=st.floats(min_value=5.0, max_value=25.0),
        rank=st.floats(min_value=0.05, max_value=1.0),
        etx=st.floats(min_value=1.0, max_value=6.0),
        q=st.floats(min_value=0.0, max_value=8.0),
        q_max=st.just(8.0),
    ),
    min_size=1,
    max_size=8,
)


class TestBestResponse:
    def test_best_response_matches_closed_form(self):
        p = player(rank=1.0, etx=1.0, q=4.0)
        weights = GameWeights(alpha=8.0, beta=1.0, gamma=4.0)
        assert best_response(p, weights) == pytest.approx(
            optimal_tx_cells(p, weights, integral=False)
        )

    @settings(deadline=None)
    @given(players_strategy)
    def test_dynamics_converge_in_one_round(self, players):
        """Payoffs are decoupled, so simultaneous best response is a fixed point."""
        result = best_response_dynamics(players)
        assert result.converged
        assert result.iterations <= 2
        expected = equilibrium_profile(players)
        assert result.profile == pytest.approx(expected)

    def test_dynamics_with_custom_initial_profile(self):
        players = [player(l_min=1.0), player(l_min=2.0)]
        result = best_response_dynamics(players, initial_profile=[9.0, 9.0])
        assert result.converged
        assert result.profile == pytest.approx(equilibrium_profile(players))

    def test_empty_player_list(self):
        result = best_response_dynamics([])
        assert result.converged
        assert result.profile == []


class TestTheorem1:
    @settings(deadline=None)
    @given(players_strategy)
    def test_payoffs_concave_over_strategy_sets(self, players):
        assert all(verify_concavity(p) for p in players)


class TestTheorem2:
    def test_jacobian_is_diagonal_with_negative_entries(self):
        players = [player(rank=0.5), player(rank=1.0), player(rank=0.25)]
        profile = [1.0, 2.0, 3.0]
        jacobian = pseudo_gradient_jacobian(players, profile)
        assert [len(row) for row in jacobian] == [3, 3, 3]
        for i, row in enumerate(jacobian):
            for j, entry in enumerate(row):
                if i == j:
                    assert entry < 0.0
                else:
                    assert entry == 0.0

    @settings(deadline=None)
    @given(players_strategy)
    def test_diagonal_strict_concavity(self, players):
        assert verify_diagonal_strict_concavity(players)

    def test_diagonal_strict_concavity_with_extra_profiles(self):
        players = [player(), player(rank=0.2)]
        assert verify_diagonal_strict_concavity(players, profiles=[[1.0, 1.0], [5.0, 5.0]])


class TestNashEquilibrium:
    @settings(deadline=None, max_examples=30)
    @given(players_strategy)
    def test_closed_form_profile_is_a_nash_equilibrium(self, players):
        profile = equilibrium_profile(players)
        assert is_nash_equilibrium(profile, players)

    def test_non_equilibrium_profile_detected(self):
        players = [player(l_min=0.0, l_rx=20.0, rank=1.0, etx=1.0, q=8.0, q_max=8.0)]
        # Requesting nothing when the optimum is the parent's maximum is not
        # an equilibrium: the player can improve unilaterally.
        assert not is_nash_equilibrium([0.0], players)

    def test_uniqueness_via_strict_concavity(self):
        """Any profile differing from the closed form on an interior optimum
        is strictly improvable, so the equilibrium is unique."""
        players = [player(l_min=0.0, l_rx=50.0, rank=1.0, etx=1.0, q=4.0, q_max=8.0)]
        weights = GameWeights(alpha=8.0, beta=1.0, gamma=4.0)
        equilibrium = equilibrium_profile(players, weights)
        for delta in (-1.0, -0.5, 0.5, 1.0):
            candidate = [equilibrium[0] + delta]
            if players[0].l_tx_min <= candidate[0] <= players[0].l_rx_parent:
                assert not is_nash_equilibrium(candidate, players, weights)

    def test_integral_equilibrium_profile(self):
        players = [player(l_min=1.0), player(l_min=3.0)]
        profile = equilibrium_profile(players, integral=True)
        assert all(value == int(value) for value in profile)
