"""Feature-engineering utilities (§5 future work).

"Feature engineering techniques could also help discover valuable
relationships between data categories" — this package provides the
building blocks: lagged copies, rolling-statistic blocks, and
cross-column interaction features, all frame-in/frame-out so they
compose with the scenario pipeline.
"""

from .engineering import (
    interaction_features,
    lag_features,
    rolling_features,
)

__all__ = [
    "interaction_features",
    "lag_features",
    "rolling_features",
]
