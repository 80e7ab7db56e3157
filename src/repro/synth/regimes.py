"""Latent market-regime process.

Crypto markets alternate between pronounced bull runs, deep bears,
sideways chop, and occasional crash episodes. The simulator models this
as a four-state Markov chain whose state sets the baseline drift and
volatility of the aggregate market return. Regime persistence is what
gives the synthetic market its multi-month trends — the structure that
long-horizon forecasting exploits.
"""

from __future__ import annotations

import bisect
import enum

import numpy as np

__all__ = ["Regime", "RegimeProcess", "REGIME_DRIFT", "REGIME_VOL"]


class Regime(enum.IntEnum):
    """Market regimes, encoded as integers for fast array work."""

    BULL = 0
    BEAR = 1
    SIDEWAYS = 2
    CRASH = 3


#: Daily log-return drift per regime.
REGIME_DRIFT = {
    Regime.BULL: 0.0035,
    Regime.BEAR: -0.0038,
    Regime.SIDEWAYS: 0.0002,
    Regime.CRASH: -0.035,
}

#: Daily log-return volatility per regime.
REGIME_VOL = {
    Regime.BULL: 0.030,
    Regime.BEAR: 0.035,
    Regime.SIDEWAYS: 0.018,
    Regime.CRASH: 0.085,
}

#: Row-stochastic daily transition matrix. Regimes are sticky (bull and
#: bear last months); crashes are short-lived and usually resolve into
#: bear or sideways states.
_TRANSITIONS = np.array(
    [
        # BULL     BEAR     SIDE     CRASH
        [0.9880, 0.0035, 0.0050, 0.0035],  # from BULL
        [0.0035, 0.9898, 0.0042, 0.0025],  # from BEAR
        [0.0062, 0.0058, 0.9868, 0.0012],  # from SIDEWAYS
        [0.0400, 0.3500, 0.1100, 0.5000],  # from CRASH
    ]
)


class RegimeProcess:
    """Samples a regime path and exposes per-day drift/vol arrays."""

    def __init__(self, transitions: np.ndarray | None = None):
        matrix = (
            np.asarray(transitions, dtype=np.float64)
            if transitions is not None
            else _TRANSITIONS.copy()
        )
        if matrix.shape != (4, 4):
            raise ValueError("transition matrix must be 4x4")
        if not np.allclose(matrix.sum(axis=1), 1.0):
            raise ValueError("transition matrix rows must sum to 1")
        if (matrix < 0).any():
            raise ValueError("transition probabilities must be >= 0")
        self.transitions = matrix

    def sample(self, n_days: int, rng: np.random.Generator,
               initial: Regime = Regime.SIDEWAYS) -> np.ndarray:
        """Sample ``n_days`` of regimes as an int array."""
        return self.walk(n_days, rng, initial)[0]

    def walk(self, n_days: int, rng: np.random.Generator,
             initial: Regime = Regime.SIDEWAYS) -> tuple[np.ndarray, int]:
        """Sample ``n_days`` of regimes starting in ``initial``.

        Returns ``(path, next_state)``: the regime the day after the
        path starts in, so a later walk resumes the same chain.
        """
        if n_days < 0:
            raise ValueError("n_days must be >= 0")
        rows = np.cumsum(self.transitions, axis=1).tolist()
        path = []
        state = int(initial)
        for draw in rng.random(n_days).tolist():
            path.append(state)
            state = min(bisect.bisect_right(rows[state], draw), 3)
        return np.array(path, dtype=np.int64), state

    @staticmethod
    def drift(path: np.ndarray) -> np.ndarray:
        """Per-day baseline drift implied by a regime path."""
        lookup = np.array([REGIME_DRIFT[Regime(i)] for i in range(4)])
        return lookup[path]

    @staticmethod
    def vol(path: np.ndarray) -> np.ndarray:
        """Per-day baseline volatility implied by a regime path."""
        lookup = np.array([REGIME_VOL[Regime(i)] for i in range(4)])
        return lookup[path]
