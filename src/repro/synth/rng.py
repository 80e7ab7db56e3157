"""Deterministic seed management for the simulator.

Every stochastic component receives its own child generator spawned from a
single master seed, so (a) the full dataset is bit-reproducible and (b)
changing one component's draws does not perturb any other component.

Resuming a stream
-----------------
The simulator runs over a range of days from a carried state
(:func:`repro.synth.extend_raw_dataset` simulates only the new days), so
each stream resumes from its carried bit-generator state
(:class:`Streams`). numpy generators fill arrays sequentially, so a draw
of ``n`` values followed by a draw of ``k`` equals one draw of
``n + k``: a generator that makes one draw per day (or one per month,
for the monthly series) gives the same bytes whether its days are
simulated in one run or in several. A component that needs several
draws per day requests one substream per draw
(:meth:`SeedBank.substream`).

Stream names are hashed with sha256 over the **full** name, so
arbitrarily long substream labels ("onchain_btc/obs17") can never
collide the way a truncated byte prefix would.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["SeedBank", "Streams"]


class SeedBank:
    """Named, order-independent source of child RNGs from one master seed.

    >>> bank = SeedBank(42)
    >>> r1 = bank.generator("prices")
    >>> r2 = bank.generator("prices")
    >>> r1.integers(100) == r2.integers(100)
    True
    """

    def __init__(self, master_seed: int):
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError("master_seed must be an integer")
        self.master_seed = int(master_seed)

    def generator(self, name: str) -> np.random.Generator:
        """A fresh generator keyed by ``name`` (same name → same stream)."""
        # Hash the full name into spawn-key material so streams are
        # independent of the order in which components request them and
        # distinct names can never alias (sha256, not a byte prefix).
        digest = np.frombuffer(
            hashlib.sha256(name.encode("utf-8")).digest()[:32],
            dtype=np.uint32,
        )
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=tuple(int(v) for v in digest),
        )
        return np.random.default_rng(seq)

    def substream(self, name: str, label) -> np.random.Generator:
        """A generator for one *draw* within a component's stream family.

        ``substream("macro", "cpi")`` and ``substream("macro", "m2")``
        are independent streams; a component that makes several array
        draws per day uses one substream per draw, so each stream can
        resume from its carried state on its own (see :class:`Streams`).
        """
        return self.generator(f"{name}/{label}")


class _Unseeded(ISeedSequence):
    """Zero seed words for a bit generator whose state is overwritten
    at once: a resumed stream skips the :class:`numpy.random.SeedSequence`
    hash (and fresh OS entropy) it would never use."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


class Streams:
    """The named streams of one generator, resumable from carried states.

    ``states`` maps stream names to the bit-generator states a previous
    run over earlier days left (:meth:`states`), and every stream resumes
    where it stopped; without ``states`` every stream starts fresh from
    the :class:`SeedBank`. Every run requests the same streams, so a
    stream missing from ``states`` means they come from other code, and
    requesting it raises ``ValueError`` rather than restarting it.
    Within one run each name is one live stream.
    """

    def __init__(self, master_seed: int, states: dict | None = None):
        self._bank = SeedBank(master_seed)
        self._carried = states
        self._live: dict[str, np.random.Generator] = {}

    def generator(self, name: str) -> np.random.Generator:
        """The stream ``name``, resumed or fresh."""
        rng = self._live.get(name)
        if rng is None:
            if self._carried is None:
                rng = self._bank.generator(name)
            elif name in self._carried:
                bits = np.random.PCG64(_UNSEEDED)
                bits.state = self._carried[name]
                rng = np.random.Generator(bits)
            else:
                raise ValueError(
                    f"the carried states hold no stream {name!r}: they "
                    "were produced by another simulator format"
                )
            self._live[name] = rng
        return rng

    def substream(self, name: str, label) -> np.random.Generator:
        """The stream ``name/label`` (see :meth:`SeedBank.substream`)."""
        return self.generator(f"{name}/{label}")

    def states(self) -> dict:
        """Every stream's bit-generator state, to resume from later."""
        states = dict(self._carried or {})
        for name, rng in self._live.items():
            states[name] = rng.bit_generator.state
        return states
