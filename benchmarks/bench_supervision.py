#!/usr/bin/env python
"""Benchmark for pool supervision and artifact-integrity overhead.

Exercises the two resilience paths added by the supervised execution
layer and writes ``benchmarks/results/BENCH_supervision.json``:

- ``crash_recovery`` — a process map where one worker dies mid-run
  (``os._exit``); the supervisor must rebuild the pool and still return
  the exact serial result.  ``recovers_from_crash`` is the gate.
- ``integrity`` — framed-codec round-trips plus a flipped-byte probe;
  ``detects_bitflip`` is the gate, the encode/decode wall-clock and the
  framing overhead ratio versus bare pickle are informational.

Run directly — intentionally **not** a pytest module, because the
wall-clock numbers are host-dependent::

    PYTHONPATH=src python benchmarks/bench_supervision.py
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    from benchmarks._emit import write_bench
except ImportError:  # run directly: benchmarks/ is sys.path[0]
    from _emit import write_bench

from repro.cache.codec import (  # noqa: E402
    CorruptArtifact,
    dump_artifact,
    load_artifact,
)
from repro.parallel import ParallelMap, in_worker  # noqa: E402

N_ITEMS = 24
CODEC_REPEATS = 50


def _transform(x):
    return x * x + 1


def _crash_once(x, counter_dir=""):
    """Die hard (no unwinding) on item 5's first attempt only."""
    if x == 5 and in_worker():
        marker = Path(counter_dir) / f"{x}.attempted"
        if not marker.exists():
            marker.touch()
            os._exit(41)
    return _transform(x)


def bench_crash_recovery() -> dict:
    from functools import partial

    items = list(range(N_ITEMS))
    expected = [_transform(x) for x in items]
    with tempfile.TemporaryDirectory() as scratch:
        fn = partial(_crash_once, counter_dir=scratch)
        start = time.perf_counter()
        got = ParallelMap(3).map(fn, items)
        seconds = time.perf_counter() - start
    return {
        "recovers_from_crash": got == expected,
        "seconds": round(seconds, 3),
    }


def bench_integrity() -> dict:
    payload = {"weights": [float(i) for i in range(5_000)],
               "meta": {"window": 90, "year": 2019}}
    start = time.perf_counter()
    for _ in range(CODEC_REPEATS):
        blob = dump_artifact(payload)
        load_artifact(blob)
    framed_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(CODEC_REPEATS):
        bare = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(bare)
    bare_s = time.perf_counter() - start

    corrupted = bytearray(dump_artifact(payload))
    corrupted[len(corrupted) // 2] ^= 0x01  # a single flipped bit
    try:
        load_artifact(bytes(corrupted))
        detects = False
    except CorruptArtifact:
        detects = True
    return {
        "detects_bitflip": detects,
        "roundtrip_framed_s": round(framed_s, 4),
        "roundtrip_bare_s": round(bare_s, 4),
        "framing_overhead_ratio": round(framed_s / bare_s, 2)
        if bare_s else float("nan"),
    }


def main() -> int:
    benchmarks = {
        "crash_recovery": bench_crash_recovery(),
        "integrity": bench_integrity(),
    }
    for name, metrics in benchmarks.items():
        print(f"{name:16s} " + "  ".join(
            f"{k}={v}" for k, v in metrics.items()
        ))
    out = write_bench(
        "supervision", benchmarks,
        cpu_count=os.cpu_count(), items=N_ITEMS,
        codec_repeats=CODEC_REPEATS,
        note=("recovers_from_crash and detects_bitflip gate; the "
              "wall-clock fields are host-dependent and informational. "
              "framing_overhead_ratio is sha256 cost over bare pickle "
              "for a ~40KB artifact."),
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
