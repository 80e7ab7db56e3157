"""Sentiment and interest metrics.

Views of the latent sentiment process (plus interest proxies tied to
adoption and recent returns): social post volumes and polarity counts,
the fear-and-greed index (which only starts in early 2018, like the real
one), and monthly Google-trends style search-volume series. High
observation noise and fast mean reversion make these short-horizon
signals, matching §4.1's finding that their contribution decays with the
prediction window — except the monthly trends series, whose slow sampling
carries some longer-horizon information (the paper's 90-day bump).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..frame.frame import Frame
from ..frame.index import as_ordinal
from .config import SimulationConfig
from .latent import LatentMarket
from .rng import SeedBank

__all__ = ["generate_sentiment"]

_EPOCH_ORDINAL = 719163  # dt.date(1970, 1, 1).toordinal()


def generate_sentiment(config: SimulationConfig,
                       latent: LatentMarket) -> Frame:
    """All sentiment/interest metrics on the simulation index."""
    bank = SeedBank(config.seed)
    n = latent.n_days
    sent = latent.sentiment
    noise_scale = config.sentiment_noise
    draw = itertools.count()

    def noisy(base: np.ndarray, scale: float = 1.0) -> np.ndarray:
        # One numbered substream per call (deterministic call order), so
        # every noise array stays prefix-stable under dataset extension.
        rng = bank.substream("sentiment_metrics", f"noisy{next(draw)}")
        return base + rng.normal(scale=noise_scale * scale, size=n)

    columns: dict[str, np.ndarray] = {}

    # --- social media ----------------------------------------------------
    # Buzz saturates with adoption (log-like) and is dominated by noise:
    # sentiment data is an erratic, weakly level-informative view of the
    # market — which is why the paper finds sentiment-only models so much
    # worse than diverse ones (Table 6).
    buzz = np.exp(0.30 * latent.adoption + 0.25 * np.abs(sent))
    social_volume = 5.0e4 * buzz * np.exp(
        bank.substream("sentiment_metrics", "social_volume").normal(
            scale=0.55, size=n
        )
    )
    columns["social_volume"] = social_volume
    pos_raw = _squash(noisy(0.35 * sent, 0.5)) * 0.6 + 0.2
    neg_raw = _squash(noisy(-0.35 * sent, 0.5)) * 0.6 + 0.1
    neu_raw = np.full(n, 0.45)
    total_raw = pos_raw + neg_raw + neu_raw
    columns["social_posts_positive"] = social_volume * pos_raw / total_raw
    columns["social_posts_negative"] = social_volume * neg_raw / total_raw
    columns["social_posts_neutral"] = social_volume * neu_raw / total_raw
    columns["social_sentiment_score"] = noisy(sent, 1.0)
    columns["social_engagement"] = social_volume * (
        1.0 + 0.3 * _squash(noisy(sent, 0.8))
    )
    columns["news_sentiment_score"] = noisy(0.8 * sent, 0.9)
    columns["news_volume"] = 800.0 * buzz ** 0.7 * np.exp(
        bank.substream("sentiment_metrics", "news_volume").normal(
            scale=0.25, size=n
        )
    )

    # --- fear & greed (starts 2018-02) ------------------------------------
    fg = np.clip(
        50.0 + 17.0 * np.tanh(0.6 * sent)
        + bank.substream("sentiment_metrics", "fear_greed").normal(
            scale=6.0, size=n
        ),
        0.0, 100.0,
    )
    start = int(np.searchsorted(latent.index.ordinals,
                                as_ordinal(config.fear_greed_start)))
    fg_masked = fg.copy()
    fg_masked[:start] = np.nan
    columns["fear_greed_index"] = fg_masked

    # --- google trends (monthly step functions) ----------------------------
    interest = np.exp(0.8 * latent.adoption) * (
        1.0 + 0.4 * np.tanh(0.4 * sent)
    )
    month_keys = _month_ids(latent.index.ordinals)
    unique_months, month_pos = np.unique(month_keys, return_inverse=True)
    for term, scale, lag_days in (
        ("Bitcoin", 100.0, 0),
        ("Ethereum", 55.0, 5),
        ("Cryptocurrency", 70.0, 3),
        ("Blockchain", 40.0, 10),
    ):
        shifted = np.roll(interest, lag_days)
        shifted[:lag_days] = interest[0]
        monthly = _monthly_average(shifted, month_keys)
        # one sampling-noise multiplier per month keeps the step
        # structure; the per-term substream draws once (months only
        # append under extension, so the array is prefix-stable)
        month_noise = np.exp(bank.substream(
            "sentiment_metrics", f"gt_{term}"
        ).normal(scale=0.08, size=unique_months.size))
        noise_per_day = month_noise[month_pos]
        # Trends-style renormalisation against the interest peak *so
        # far* (an expanding max, not the sample max: the sample max
        # looks into the future and breaks prefix-stability).
        peak = np.maximum.accumulate(monthly)
        columns[f"gt_{term}_monthly"] = (
            scale * monthly / peak * noise_per_day
        )

    return Frame(latent.index, columns)


def _squash(values: np.ndarray) -> np.ndarray:
    """Map reals into (0, 1) smoothly."""
    return 1.0 / (1.0 + np.exp(-values))


def _month_ids(ordinals: np.ndarray) -> np.ndarray:
    """Integer id (``year * 12 + month``) per calendar month for each
    ordinal date."""
    days = np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL
    months = days.astype("datetime64[D]").astype("datetime64[M]")
    return months.astype(np.int64) + (1970 * 12 + 1)


def _monthly_average(values: np.ndarray, month_ids: np.ndarray) -> np.ndarray:
    """Replace each day with its *previous* month's average (step series).

    Google Trends reports finished periods: a month's search volume only
    becomes observable after the month ends, so days in month M carry the
    average over month M-1 (the first month repeats its own average to
    avoid fabricating pre-simulation data).
    """
    out = np.empty_like(values)
    unique = np.unique(month_ids)
    prev_avg = None
    for month in unique:
        mask = month_ids == month
        this_avg = values[mask].mean()
        out[mask] = prev_avg if prev_avg is not None else this_avg
        prev_avg = this_avg
    return out
