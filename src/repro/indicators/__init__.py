"""Technical-analysis indicators derived from BTC market data.

Each indicator is one resumable form, ``*_resume(values, ..., carry)``,
that returns ``(output, carry)``; :func:`technical_indicators` builds
the paper's whole technical category from them the same way.
"""

from .momentum import (
    macd_resume,
    roc_resume,
    rsi_resume,
    stochastic_d_resume,
    stochastic_k_resume,
)
from .moving import ema_resume, sma_resume
from .suite import MA_SPANS, TECHNICAL_VARIABLES, technical_indicators
from .volatility import (
    atr_resume,
    bollinger_bands_resume,
    rolling_volatility_resume,
)

__all__ = [
    "MA_SPANS",
    "TECHNICAL_VARIABLES",
    "atr_resume",
    "bollinger_bands_resume",
    "ema_resume",
    "macd_resume",
    "roc_resume",
    "rolling_volatility_resume",
    "rsi_resume",
    "sma_resume",
    "stochastic_d_resume",
    "stochastic_k_resume",
    "technical_indicators",
]
