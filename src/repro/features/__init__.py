"""Feature-engineering utilities (§5 future work).

"Feature engineering techniques could also help discover valuable
relationships between data categories" — this package provides the
building blocks: lagged copies and cross-column interaction features,
both frame-in/frame-out so they compose with the scenario pipeline.
"""

from .engineering import (
    interaction_features,
    lag_features,
)

__all__ = [
    "interaction_features",
    "lag_features",
]
