"""Shared-memory transport: publishing, by-reference pickling, lifecycle.

The headline contracts under test:

* published views are bit-exact, read-only, and pickle *by reference*
  (a few hundred bytes regardless of array size) while the segment is
  alive, degrading to a by-value copy afterwards; derived arrays
  (slices, transposes, fancy indexing) always pickle by value;
* every segment is unlinked from ``/dev/shm`` on clean close, on pool
  rebuilds after worker crashes, and even when the owning process is
  SIGKILLed (the multiprocessing resource tracker owns that case);
* attaching an unlinked segment raises :class:`SharedSegmentGone` — a
  structured error, never a segfault;
* the artifact codec materialises shared references, so cache entries
  written by workers never name a segment.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from repro.cache.codec import dump_artifact, load_artifact
from repro.parallel import (
    SharedArray,
    SharedDataset,
    SharedSegmentGone,
    shm_enabled,
)
from repro.parallel.shm import attach

pytestmark = pytest.mark.skipif(
    not shm_enabled(), reason="shared memory unsupported"
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def _big(seed=0, shape=(256, 64)):
    return np.random.default_rng(seed).normal(size=shape)


class TestPublish:
    def test_view_is_bit_exact_and_read_only(self):
        arr = _big(1)
        with SharedDataset() as ds:
            view = ds.publish(arr)
            assert isinstance(view, SharedArray)
            assert np.array_equal(view, arr)
            assert view.dtype == arr.dtype
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0] = 1.0

    def test_publish_same_object_is_deduplicated(self):
        arr = _big(2)
        with SharedDataset() as ds:
            first = ds.publish(arr)
            second = ds.publish(arr)
            assert first is second
            assert len(ds) == 1

    def test_share_below_threshold_returns_original(self):
        small = np.arange(16, dtype=np.float64)
        with SharedDataset() as ds:
            assert ds.share(small) is small
            assert len(ds) == 0

    def test_share_rejects_object_dtype(self):
        arr = np.empty(100_000, dtype=object)
        with SharedDataset() as ds:
            assert ds.share(arr) is arr

    def test_fortran_order_round_trips(self):
        arr = np.asfortranarray(_big(4))
        with SharedDataset() as ds:
            view = ds.publish(arr)
            assert view.flags.f_contiguous
            assert np.array_equal(view, arr)


class TestByReferencePickle:
    def test_pickle_is_small_and_loads_equal(self):
        arr = _big(5)  # 128 KiB of float64
        with SharedDataset() as ds:
            view = ds.publish(arr)
            blob = pickle.dumps(view, pickle.HIGHEST_PROTOCOL)
            assert len(blob) < 2048  # reference, not bytes
            loaded = pickle.loads(blob)
            assert np.array_equal(loaded, arr)
            assert not loaded.flags.writeable

    def test_derived_arrays_pickle_by_value(self):
        # Only the whole published view is shipped by reference.
        arr = _big(6)
        with SharedDataset() as ds:
            view = ds.publish(arr)
            for derived in (view[10:50], view[:, 3], view.T,
                            view[::-1], view[::2, ::3]):
                assert getattr(derived, "_shm", None) is None
                loaded = pickle.loads(
                    pickle.dumps(derived, pickle.HIGHEST_PROTOCOL))
                assert type(loaded) is np.ndarray
                assert np.array_equal(loaded, derived)

    def test_fancy_index_degrades_to_plain_array(self):
        arr = _big(7)
        with SharedDataset() as ds:
            view = ds.publish(arr)
            picked = view[np.array([3, 1, 2])]
            assert getattr(picked, "_shm", None) is None
            assert np.array_equal(
                pickle.loads(pickle.dumps(picked)), arr[[3, 1, 2]]
            )

    def test_pickle_after_close_degrades_to_value(self):
        arr = _big(8)
        ds = SharedDataset()
        view = ds.publish(arr)
        ds.close()
        # The segment is gone, but the owner's mapping is parked — the
        # view must still pickle (by value) and read back bit-exact.
        loaded = pickle.loads(pickle.dumps(view, pickle.HIGHEST_PROTOCOL))
        assert np.array_equal(loaded, arr)


class TestLifecycle:
    def test_clean_close_unlinks(self):
        ds = SharedDataset()
        view = ds.publish(_big(9))
        name = view._shm.name
        assert _segment_exists(name)
        ds.close()
        assert not _segment_exists(name)
        ds.close()  # idempotent

    def test_attach_after_unlink_raises_structured_error(self):
        ds = SharedDataset()
        view = ds.publish(_big(10))
        spec = view._shm.spec()
        ds.close()
        with pytest.raises(SharedSegmentGone) as excinfo:
            attach(spec)
        assert excinfo.value.name == spec[0]

    def test_unpickle_reference_after_close_raises_in_fresh_process(self):
        ds = SharedDataset()
        view = ds.publish(_big(11))
        blob = pickle.dumps(view, pickle.HIGHEST_PROTOCOL)
        ds.close()
        # A fresh interpreter has no parked mapping: the stale reference
        # must fail with SharedSegmentGone, never a segfault.
        script = (
            "import pickle, sys\n"
            "from repro.parallel import SharedSegmentGone\n"
            "try:\n"
            "    pickle.loads(sys.stdin.buffer.read())\n"
            "except SharedSegmentGone:\n"
            "    print('GONE')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], input=blob,
            capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"GONE" in proc.stdout

    def test_sigkill_of_owner_still_unlinks(self, tmp_path):
        """The resource tracker unlinks owned segments on owner death."""
        name_file = tmp_path / "segment-name"
        script = (
            "import numpy as np, os, signal\n"
            "from repro.parallel import SharedDataset\n"
            "ds = SharedDataset()\n"
            "view = ds.publish(np.ones((256, 64)))\n"
            f"open({str(name_file)!r}, 'w').write(view._shm.name)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == -signal.SIGKILL
        name = name_file.read_text().strip()
        deadline = time.monotonic() + 10.0
        while _segment_exists(name):
            if time.monotonic() > deadline:
                pytest.fail(f"segment {name} leaked after SIGKILL")
            time.sleep(0.1)

    def test_worker_crash_and_pool_rebuild_leak_nothing(self, tmp_path):
        from repro.parallel import ParallelMap, WorkerPool, use_pool

        marker = str(tmp_path / "crashed")
        with WorkerPool(n_jobs=2) as pool:
            shared = pool.dataset.publish(_big(12))
            name = shared._shm.name
            with use_pool(pool):
                first = ParallelMap(2).map(
                    partial(_crash_once_then_total, marker=marker,
                            shared=shared),
                    [0, 1, 2, 3],
                )
            assert _segment_exists(name)  # parent owns it across crashes
            expect = [float(shared.sum()) + i for i in range(4)]
            assert first == expect
        assert not _segment_exists(name)


def _crash_once_then_total(item, marker, shared):
    """First worker to arrive dies; retries compute from shared data."""
    from repro.parallel import in_worker

    if in_worker() and not os.path.exists(marker):
        open(marker, "w").write("x")
        os._exit(1)
    return float(shared.sum()) + item


class TestCodecSanitisation:
    def test_shared_arrays_are_materialised(self):
        arr = _big(17)
        ds = SharedDataset()
        view = ds.publish(arr)
        blob = dump_artifact({"X": view, "slice": view[5:20]})
        ds.close()
        loaded = load_artifact(blob)
        assert type(loaded["X"]) is np.ndarray
        assert np.array_equal(loaded["X"], arr)
        assert np.array_equal(loaded["slice"], arr[5:20])
