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
from .carry import lag_from
from .config import SimulationConfig
from .latent import LatentMarket
from .rng import Streams

__all__ = ["generate_sentiment", "simulate_sentiment"]

_EPOCH_ORDINAL = 719163  # dt.date(1970, 1, 1).toordinal()
_EMPTY = np.empty(0)

#: Google-trends terms: (term, scale, days the term's interest lags).
_TRENDS_TERMS = (
    ("Bitcoin", 100.0, 0),
    ("Ethereum", 55.0, 5),
    ("Cryptocurrency", 70.0, 3),
    ("Blockchain", 40.0, 10),
)
_MAX_TREND_LAG = max(lag for _, _, lag in _TRENDS_TERMS)


def generate_sentiment(config: SimulationConfig,
                       latent: LatentMarket) -> Frame:
    """All sentiment/interest metrics on the simulation index."""
    return simulate_sentiment(config, latent)[0]


def simulate_sentiment(config: SimulationConfig, latent: LatentMarket,
                       carry: dict | None = None):
    """:func:`generate_sentiment` over ``latent``'s days from ``carry``.

    ``latent`` covers the days after those ``carry`` was produced from
    (all of them when ``carry`` is None). Returns ``(frame, carry)``;
    for each trends term the carry holds the open month's values, the
    last closed month's average, the expanding peak and the month's
    noise, plus the interest lag tail and the streams' bit-generator
    states.
    """
    state = carry or {}
    streams = Streams(config.seed, state.get("streams"))
    n = latent.n_days
    sent = latent.sentiment
    noise_scale = config.sentiment_noise
    draw = itertools.count()

    def noisy(base: np.ndarray, scale: float = 1.0) -> np.ndarray:
        # One numbered substream per call (deterministic call order),
        # drawing one value per day.
        rng = streams.substream("sentiment_metrics", f"noisy{next(draw)}")
        return base + rng.normal(scale=noise_scale * scale, size=n)

    columns: dict[str, np.ndarray] = {}

    # --- social media ----------------------------------------------------
    # Buzz saturates with adoption (log-like) and is dominated by noise:
    # sentiment data is an erratic, weakly level-informative view of the
    # market — which is why the paper finds sentiment-only models so much
    # worse than diverse ones (Table 6).
    buzz = np.exp(0.30 * latent.adoption + 0.25 * np.abs(sent))
    social_volume = 5.0e4 * buzz * np.exp(
        streams.substream("sentiment_metrics", "social_volume").normal(
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
        streams.substream("sentiment_metrics", "news_volume").normal(
            scale=0.25, size=n
        )
    )

    # --- fear & greed (starts 2018-02) ------------------------------------
    fg = np.clip(
        50.0 + 17.0 * np.tanh(0.6 * sent)
        + streams.substream("sentiment_metrics", "fear_greed").normal(
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
    # The lagged terms hold the first day's interest for the days
    # before the simulation.
    first_interest, interest_tail = state.get("interest", (None, _EMPTY))
    month_keys = _month_ids(latent.index.ordinals)
    open_month = state.get("month")
    new_month = np.ones(n, dtype=bool)
    new_month[1:] = month_keys[1:] != month_keys[:-1]
    if n:
        new_month[0] = month_keys[0] != open_month
    # Each day's month among the carried open month (position 0) and the
    # months that start in these days.
    month_pos = np.cumsum(new_month) - new_month[0]
    carried = state.get("trends", {})
    trends = {}
    for term, scale, lag_days in _TRENDS_TERMS:
        shifted = lag_from(interest, lag_days, first_interest, interest_tail)
        prev_avg, open_values, peak, noise = carried.get(
            term, (None, _EMPTY, -np.inf, None)
        )
        monthly, (month, prev_avg, open_values) = _monthly_average(
            shifted, month_keys, (open_month, prev_avg, open_values)
        )
        # one sampling-noise multiplier per month keeps the step
        # structure; the per-term substream draws one value per month
        month_noise = np.exp(streams.substream(
            "sentiment_metrics", f"gt_{term}"
        ).normal(scale=0.08, size=int(new_month.sum())))
        if n and not new_month[0]:
            month_noise = np.concatenate(([noise], month_noise))
        noise_per_day = month_noise[month_pos]
        # Trends-style renormalisation against the interest peak *so
        # far* (an expanding max, not the sample max: the sample max
        # looks into the future).
        peaks = np.maximum.accumulate(np.concatenate(([peak], monthly)))[1:]
        columns[f"gt_{term}_monthly"] = (
            scale * monthly / peaks * noise_per_day
        )
        trends[term] = (prev_avg, open_values,
                        float(peaks[-1]) if n else peak,
                        float(month_noise[-1]) if n else noise)

    carry = {
        "streams": streams.states(),
        "month": month if n else open_month,
        "interest": (
            float(interest[0]) if first_interest is None else first_interest,
            np.concatenate((interest_tail, interest))[-_MAX_TREND_LAG:],
        ),
        "trends": trends,
    }
    return Frame(latent.index, columns), carry


def _squash(values: np.ndarray) -> np.ndarray:
    """Map reals into (0, 1) smoothly."""
    return 1.0 / (1.0 + np.exp(-values))


def _month_ids(ordinals: np.ndarray) -> np.ndarray:
    """Integer id (``year * 12 + month``) per calendar month for each
    ordinal date."""
    days = np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL
    months = days.astype("datetime64[D]").astype("datetime64[M]")
    return months.astype(np.int64) + (1970 * 12 + 1)


def _monthly_average(values: np.ndarray, month_ids: np.ndarray,
                     carry=(None, None, _EMPTY)):
    """Replace each day with its *previous* month's average (step series).

    Google Trends reports finished periods: a month's search volume only
    becomes observable after the month ends, so days in month M carry the
    average over month M-1 (the first month repeats its own average to
    avoid fabricating pre-simulation data).

    ``carry`` is ``(open month, previous month's average, open month's
    values so far)`` after the series' earlier days. Returns
    ``(averages, carry)``. A month's average is one numpy mean over all
    its values, so it is the same however its days were split.
    """
    month, prev_avg, open_values = carry
    out = np.empty_like(values)
    starts = np.flatnonzero(np.diff(month_ids)) + 1
    for lo, hi in zip(np.concatenate(([0], starts)),
                      np.concatenate((starts, [values.size]))):
        if lo == hi:
            continue
        if month_ids[lo] == month:
            open_values = np.concatenate((open_values, values[lo:hi]))
        else:
            if month is not None:
                prev_avg = open_values.mean()
            month, open_values = month_ids[lo], values[lo:hi]
        out[lo:hi] = prev_avg if prev_avg is not None else \
            open_values.mean()
    return out, (month, prev_avg, open_values)
