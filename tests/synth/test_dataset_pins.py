"""sha256 pins of the simulated dataset.

Each digest covers the feature frame's index ordinals plus every
column's name and bytes, in column order. The values were recorded
before the simulator's per-element loops were rewritten over Python
floats, so they prove the rewrite kept every byte. A change to the
simulator that moves any value must update these pins on purpose, and
bump ``SIMULATOR_FORMAT`` (and its pin below) with them: a dataset
cached, or a carry kept, by the older code is then regenerated rather
than extended with the new one.
"""

import hashlib

import pytest

from repro.cache import frame_digest
from repro.synth import SimulationConfig, generate_raw_dataset
from repro.synth.dataset import SIMULATOR_FORMAT

_PINS = [
    (SimulationConfig(seed=1),
     "0aa7724aa06d0931cf3a3a1e7ccf7127dd956c4dc353e49634b85f4fab70eb4d"),
    (SimulationConfig(seed=20240701),
     "ff406409d391008aa3547fea7106fb242736c6b216ae8adde78abd25c9fafbf5"),
    (SimulationConfig(start="2017-03-01", end="2020-02-29", seed=8,
                      n_assets=105, include_eth=True),
     "bbe38567ee7c8c20b6d0455f5c4292143550f575d66d6de01a5fe68510625045"),
]


def _features_digest(features) -> str:
    digest = hashlib.sha256(features.index.ordinals.tobytes())
    for name in features.columns:
        digest.update(name.encode())
        digest.update(features[name].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "config, expected", _PINS,
    ids=["seed1", "seed20240701", "eth_seed8"],
)
def test_generated_features_match_pin(config, expected):
    assert _features_digest(generate_raw_dataset(config).features) == expected


def test_frame_digest_pin():
    # The digest every dataset-derived cache key is built from: moving
    # how the feature frame is assembled must not move it.
    raw = generate_raw_dataset(SimulationConfig(seed=20240701))
    assert frame_digest(raw.features) == (
        "898aaeb5a9e400fb62d39e7709d807ca3d2aa963b213b08fdb2f54482614a3f7"
    )


def test_simulator_format_pin():
    # Moves with the pins above: bytes that change without a new format
    # would let a cached dataset be extended by other simulator code.
    assert SIMULATOR_FORMAT == 1
