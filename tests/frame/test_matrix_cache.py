"""Allocation-regression tests for Frame's derived caches.

``to_matrix`` must materialise the full-frame matrix exactly once, and
``from_matrix`` must copy its input exactly once — the training /
cache-keying hot paths convert the same frame repeatedly, and these
guarantees are what the compiled-predict benchmark relies on. The
row-range digest memo must ride along ``append_rows`` for the rows it
already covered, and only for those.
"""

import pickle

import numpy as np
import pytest

import repro.cache.keys as keys
from repro.cache import dump_artifact, load_artifact, range_digest
from repro.frame import Frame, date_range


@pytest.fixture
def frame():
    idx = date_range("2018-01-01", periods=6)
    return Frame(idx, {"a": np.arange(6.0), "b": np.arange(6.0) * 2,
                       "c": np.arange(6.0) * 3})


class TestToMatrixCache:
    def test_full_frame_returns_same_object(self, frame):
        first = frame.to_matrix()
        assert frame.to_matrix() is first
        assert frame.to_matrix(frame.columns) is first

    def test_cached_matrix_is_read_only(self, frame):
        mat = frame.to_matrix()
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 99.0

    def test_values_match_columns(self, frame):
        mat = frame.to_matrix()
        for j, name in enumerate(frame.columns):
            assert np.array_equal(mat[:, j], frame[name])

    def test_subset_is_fresh_and_writable(self, frame):
        sub = frame.to_matrix(["b", "a"])
        assert sub.flags.writeable
        assert sub is not frame.to_matrix(["b", "a"])
        assert np.array_equal(sub[:, 0], frame["b"])

    def test_empty_selection(self, frame):
        assert frame.to_matrix([]).shape == (6, 0)

    def test_mutators_return_frames_with_fresh_cache(self, frame):
        cached = frame.to_matrix()
        derived = frame.with_column("d", np.zeros(6))
        mat = derived.to_matrix()
        assert mat is not cached
        assert mat.shape == (6, 4)


class TestFromMatrix:
    def test_columns_share_memory_with_single_copy(self, frame):
        idx = frame.index
        matrix = np.arange(18.0).reshape(6, 3)
        g = Frame.from_matrix(idx, matrix, ["x", "y", "z"])
        cached = g.to_matrix()
        for j, name in enumerate(g.columns):
            assert np.shares_memory(cached, g[name])
            assert np.array_equal(g[name], matrix[:, j])
        # the input itself was copied, not aliased
        assert not np.shares_memory(cached, matrix)

    def test_seeds_to_matrix_cache(self, frame):
        g = Frame.from_matrix(frame.index, np.zeros((6, 2)), ["x", "y"])
        assert g.to_matrix() is g.to_matrix()
        assert not g.to_matrix().flags.writeable

    def test_row_count_mismatch(self, frame):
        with pytest.raises(ValueError, match="rows"):
            Frame.from_matrix(frame.index, np.zeros((4, 2)), ["x", "y"])

    def test_width_mismatch(self, frame):
        with pytest.raises(ValueError, match="width"):
            Frame.from_matrix(frame.index, np.zeros((6, 2)), ["x"])

    def test_duplicate_names(self, frame):
        with pytest.raises(ValueError, match="duplicate"):
            Frame.from_matrix(frame.index, np.zeros((6, 2)), ["x", "x"])

    def test_round_trip_equality(self, frame):
        g = Frame.from_matrix(frame.index, frame.to_matrix(), frame.columns)
        assert g == frame


class TestPickleDropsCache:
    def test_round_trip_preserves_data_not_cache(self, frame):
        frame.to_matrix()  # populate the cache before pickling
        blob = pickle.dumps(frame)
        clone = pickle.loads(blob)
        assert clone == frame
        assert clone._matrix is None
        assert np.array_equal(clone.to_matrix(), frame.to_matrix())

    def test_pickle_size_unaffected_by_cache(self, frame):
        cold = pickle.dumps(frame)
        frame.to_matrix()
        warm = pickle.dumps(frame)
        assert len(warm) == len(cold)



class TestRowDigestMemo:
    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        real = keys.frame_digest

        def recording(frame):
            calls.append(frame.index.isoformat())
            return real(frame)

        monkeypatch.setattr(keys, "frame_digest", recording)
        return calls

    @pytest.fixture
    def grown(self, frame):
        more = Frame(date_range("2018-01-07", periods=2),
                     {n: [7.0, 8.0] for n in frame.columns})
        range_digest(frame, "2018-01-02", "2018-01-05")
        range_digest(frame, "2018-01-03", None)
        return frame.append_rows(more)

    def test_range_before_new_rows_served_from_memo(self, frame, grown,
                                                    spy):
        assert (range_digest(grown, "2018-01-02", "2018-01-05")
                == range_digest(frame, "2018-01-02", "2018-01-05"))
        assert spy == []

    def test_range_the_new_rows_enter_is_recomputed(self, grown, spy):
        digest = range_digest(grown, "2018-01-03", None)
        assert spy == [["2018-01-03", "2018-01-04", "2018-01-05",
                        "2018-01-06", "2018-01-07", "2018-01-08"]]
        fresh = Frame(grown.index, grown.to_dict())
        assert range_digest(fresh, "2018-01-03", None) == digest

    def test_other_constructors_start_empty(self, frame):
        range_digest(frame, "2018-01-02", "2018-01-05")
        assert frame._row_digests
        for derived in (frame.select(frame.columns), frame.iloc(slice(None)),
                        frame.with_prefix("p_"),
                        Frame.from_matrix(frame.index, frame.to_matrix(),
                                          frame.columns)):
            assert derived._row_digests == {}

    def test_pickle_round_trip_drops_memo(self, frame):
        cold = pickle.dumps(frame)
        range_digest(frame, "2018-01-02", "2018-01-05")
        assert pickle.dumps(frame) == cold
        clone = pickle.loads(cold)
        assert clone == frame
        assert clone._row_digests == {}

    def test_artifact_round_trip_drops_memo(self, frame):
        cold = dump_artifact(frame)
        range_digest(frame, "2018-01-02", "2018-01-05")
        assert dump_artifact(frame) == cold
        clone = load_artifact(cold)
        assert clone == frame
        assert clone._row_digests == {}
