"""Numeric verification of the game's Nash equilibrium properties.

The paper proves (Theorems 1-2) that the cell-allocation game admits a unique
Nash equilibrium: the strategy sets are compact and convex, the payoffs are
strictly concave in the player's own strategy, and the vector of payoffs is
diagonally strictly concave in the sense of Rosen (1965).  Because each
player's payoff depends only on its own strategy (the coupling between
players happens through the *constraint* ``l^rx_{p_i}``, which the parent
advertises, not through the payoff itself), the equilibrium coincides with
every player's individually optimal strategy -- Eq. (15).

This module provides the numeric counterparts used in tests and in the
analysis examples:

* :func:`verify_concavity` -- samples the second derivative over the strategy
  set (Theorem 1, Eq. (10));
* :func:`verify_diagonal_strict_concavity` -- builds the Jacobian of the
  pseudo-gradient and checks ``x^T (J + J^T) x < 0`` for random non-zero
  ``x`` (Theorem 2, Eq. (12));
* :func:`best_response_dynamics` -- iterates best responses and reports the
  fixed point, demonstrating convergence to the closed-form solution;
* :func:`is_nash_equilibrium` -- brute-force check that no player can gain by
  a unilateral deviation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.game import (
    GameWeights,
    PlayerState,
    optimal_tx_cells,
    payoff,
    payoff_second_derivative,
)
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced points from ``start`` to ``stop``, both included."""
    if num < 2:
        return [start] * num
    step = (stop - start) / (num - 1)
    return [start + index * step for index in range(num - 1)] + [stop]


@dataclass
class BestResponseResult:
    """Outcome of :func:`best_response_dynamics`."""

    profile: list[float]
    iterations: int
    converged: bool


def best_response(state: PlayerState, weights: Optional[GameWeights] = None) -> float:
    """A player's best response (continuous relaxation of Eq. (15))."""
    return optimal_tx_cells(state, weights, integral=False)


def best_response_dynamics(
    players: Sequence[PlayerState],
    weights: Optional[GameWeights] = None,
    initial_profile: Optional[Sequence[float]] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> BestResponseResult:
    """Iterate simultaneous best responses until the profile stops changing.

    For this game the dynamics converge in a single round (payoffs are
    decoupled), but the function is written generically so the test suite can
    assert that property rather than assume it.
    """
    weights = weights or GameWeights()
    profile = [
        float(p.l_tx_min) if initial_profile is None else float(initial_profile[i])
        for i, p in enumerate(players)
    ]
    for iteration in range(1, max_iterations + 1):
        updated = [best_response(player, weights) for player in players]
        delta = max(abs(a - b) for a, b in zip(profile, updated)) if players else 0.0
        profile = updated
        if delta <= tolerance:
            return BestResponseResult(profile=profile, iterations=iteration, converged=True)
    return BestResponseResult(profile=profile, iterations=max_iterations, converged=False)


def verify_concavity(
    state: PlayerState,
    weights: Optional[GameWeights] = None,
    samples: int = 32,
) -> bool:
    """Check Eq. (10): the second derivative is negative across the strategy set."""
    weights = weights or GameWeights()
    lower = state.l_tx_min
    upper = max(state.l_rx_parent, lower + 1.0)
    points = _linspace(lower, upper, samples)
    return all(payoff_second_derivative(x, state, weights) < 0.0 for x in points)


def pseudo_gradient_jacobian(
    players: Sequence[PlayerState],
    profile: Sequence[float],
    weights: Optional[GameWeights] = None,
) -> list[list[float]]:
    """Jacobian of the pseudo-gradient ``∇v(s)`` (Eq. (12)), as rows.

    Player ``i``'s payoff depends only on ``s_i``, so the Jacobian is diagonal
    with entries ``∂²v_i/∂s_i²``; the off-diagonal terms are exactly zero.
    """
    weights = weights or GameWeights()
    n = len(players)
    jacobian = [[0.0] * n for _ in range(n)]
    for i, (player, s_i) in enumerate(zip(players, profile)):
        jacobian[i][i] = payoff_second_derivative(float(s_i), player, weights)
    return jacobian


def verify_diagonal_strict_concavity(
    players: Sequence[PlayerState],
    weights: Optional[GameWeights] = None,
    profiles: Optional[Sequence[Sequence[float]]] = None,
    num_random_vectors: int = 16,
    rng: Optional[random.Random] = None,
) -> bool:
    """Rosen's condition: ``x^T (J + J^T) x < 0`` for all non-zero ``x``.

    Checked at the strategy-set corners plus (optionally) caller-provided
    profiles, with random unit probe vectors (Gaussian draws from ``rng``,
    by default a fixed-seed registry stream).  Because the Jacobian is
    diagonal with strictly negative entries, the quadratic form is negative
    definite; the numeric check documents that rather than assuming it.
    """
    weights = weights or GameWeights()
    rng = rng or RngRegistry(seed=7).stream("nash.probes")
    if not players:
        return True
    n = len(players)

    candidate_profiles: list[list[float]] = [
        [p.l_tx_min for p in players],
        [max(p.l_rx_parent, p.l_tx_min) for p in players],
        [(p.l_tx_min + max(p.l_rx_parent, p.l_tx_min)) / 2.0 for p in players],
    ]
    if profiles is not None:
        candidate_profiles.extend([list(map(float, prof)) for prof in profiles])

    for profile in candidate_profiles:
        jacobian = pseudo_gradient_jacobian(players, profile, weights)
        for _ in range(num_random_vectors):
            x = [rng.gauss(0.0, 1.0) for _ in range(n)]
            norm = math.sqrt(sum(value * value for value in x))
            if norm == 0:  # pragma: no cover - probability zero
                continue
            x = [value / norm for value in x]
            form = sum(
                x[i] * (jacobian[i][j] + jacobian[j][i]) * x[j]
                for i in range(n)
                for j in range(n)
            )
            if form >= 0.0:
                return False
    return True


def is_nash_equilibrium(
    profile: Sequence[float],
    players: Sequence[PlayerState],
    weights: Optional[GameWeights] = None,
    grid_points: int = 64,
    tolerance: float = 1e-7,
) -> bool:
    """Brute-force Nash check: no player gains by a unilateral deviation.

    Each player's strategy set is sampled on a dense grid (plus the bounds);
    the check passes when no sampled deviation improves the player's payoff
    by more than ``tolerance``.
    """
    weights = weights or GameWeights()
    for player, strategy in zip(players, profile):
        lower = player.l_tx_min
        upper = max(player.l_rx_parent, lower)
        current = payoff(float(strategy), player, weights)
        if upper == lower:
            candidates = [lower]
        else:
            candidates = _linspace(lower, upper, grid_points)
        for deviation in candidates:
            if payoff(float(deviation), player, weights) > current + tolerance:
                return False
    return True


def equilibrium_profile(
    players: Sequence[PlayerState],
    weights: Optional[GameWeights] = None,
    integral: bool = False,
) -> list[float]:
    """The unique Nash equilibrium: every player plays Eq. (15)."""
    weights = weights or GameWeights()
    return [optimal_tx_cells(player, weights, integral=integral) for player in players]
