"""Partial-results mode (``map(..., return_exceptions=True)``)."""

import pytest

from repro.parallel import ItemFailure, ParallelMap

#: The serial path and a real process fan-out, under their old ids.
PATHS = pytest.mark.parametrize("n_jobs", [1, 3], ids=["serial", "process"])


# Module-level work units: worker processes pickle them by reference.
def _boom_on_multiples_of_three(x):
    if x % 3 == 0:
        raise ValueError(f"boom at {x}")
    return x * 2


def _always_ok(x):
    return x + 1


class UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.payload = lambda: None  # lambdas never pickle


def _raise_unpicklable(x):
    raise UnpicklableError(f"weird failure at {x}")


def _raise_keyboard_interrupt(x):
    raise KeyboardInterrupt


@PATHS
class TestPartialResults:
    def test_failures_at_their_positions(self, n_jobs):
        items = list(range(1, 8))  # 3 and 6 fail
        out = ParallelMap(n_jobs).map(
            _boom_on_multiples_of_three, items, return_exceptions=True
        )
        assert len(out) == len(items)
        for index, (item, result) in enumerate(zip(items, out)):
            if item % 3 == 0:
                assert isinstance(result, ItemFailure)
                assert result.index == index
                assert result.error_type == "ValueError"
                assert f"boom at {item}" in result.message
                assert "boom at" in result.traceback
            else:
                assert result == item * 2

    def test_all_ok_matches_default_mode(self, n_jobs):
        items = list(range(9))
        with_flag = ParallelMap(n_jobs).map(
            _always_ok, items, return_exceptions=True
        )
        without = ParallelMap(n_jobs).map(_always_ok, items)
        assert with_flag == without

    def test_all_failures_still_ordered(self, n_jobs):
        out = ParallelMap(n_jobs).map(
            _boom_on_multiples_of_three, [0, 3, 6, 9],
            return_exceptions=True,
        )
        assert [f.index for f in out] == [0, 1, 2, 3]
        assert all(isinstance(f, ItemFailure) for f in out)


class TestDefaultModeUnchanged:
    @PATHS
    def test_raises_on_first_error(self, n_jobs):
        with pytest.raises(ValueError, match="boom at"):
            ParallelMap(n_jobs).map(
                _boom_on_multiples_of_three, [1, 2, 3, 4]
            )


class TestExceptionTransport:
    def test_exception_object_kept_in_process_when_picklable(self):
        out = ParallelMap(1).map(
            _boom_on_multiples_of_three, [3], return_exceptions=True
        )
        assert isinstance(out[0].exception, ValueError)

    def test_unpicklable_exception_degrades_to_strings(self):
        out = ParallelMap(2).map(
            _raise_unpicklable, [1, 2], return_exceptions=True
        )
        for failure in out:
            assert isinstance(failure, ItemFailure)
            assert failure.error_type == "UnpicklableError"
            assert "weird failure" in failure.message
            assert failure.exception is None

    def test_unpicklable_exception_kept_on_serial_path(self):
        out = ParallelMap(1).map(
            _raise_unpicklable, [1, 2], return_exceptions=True
        )
        for failure in out:
            assert isinstance(failure.exception, UnpicklableError)

    def test_str_is_informative(self):
        failure = ItemFailure(index=4, error_type="ValueError",
                              message="nope", traceback="")
        assert "item 4" in str(failure)
        assert "ValueError" in str(failure)
        assert "nope" in str(failure)

    def test_pickle_roundtrip_keeps_picklable_exception(self):
        import pickle

        failure = ItemFailure(index=2, error_type="ValueError",
                              message="nope", traceback="tb",
                              exception=ValueError("nope"))
        clone = pickle.loads(pickle.dumps(failure))
        assert (clone.index, clone.error_type, clone.message,
                clone.traceback) == (2, "ValueError", "nope", "tb")
        assert isinstance(clone.exception, ValueError)

    def test_pickle_roundtrip_degrades_unpicklable_exception(self):
        # A failure captured on the serial path may hold an
        # unpicklable exception; persisting it to a cache entry must
        # degrade the object to None, never fail the dump.
        import pickle

        failure = ItemFailure(index=0, error_type="UnpicklableError",
                              message="weird", traceback="tb",
                              exception=UnpicklableError("weird"))
        blob = pickle.dumps(failure)  # must not raise
        clone = pickle.loads(blob)
        assert clone.exception is None
        assert clone.message == "weird"  # string fields survive
        assert clone.traceback == "tb"
        # the in-memory original is untouched
        assert isinstance(failure.exception, UnpicklableError)


class TestBaseExceptionsStillPropagate:
    def test_keyboard_interrupt_not_captured_serial(self):
        with pytest.raises(KeyboardInterrupt):
            ParallelMap(1).map(_raise_keyboard_interrupt, [1],
                               return_exceptions=True)

