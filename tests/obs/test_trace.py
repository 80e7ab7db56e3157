"""Span tracer: nesting, ordering, JSON round-trip, thread safety."""

import json
import threading

import pytest

from repro.obs import (
    Span,
    Tracer,
    current_tracer,
    span,
    use_tracer,
)


class FakeClock:
    """Deterministic clock: each call advances one second."""

    def __init__(self, start=0.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_completion_order_children_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.spans] == ["b", "c", "a"]

    def test_deterministic_durations_with_fake_clock(self):
        # clock ticks: outer.start=0, inner.start=1, inner.end=2,
        # outer.end=3
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].duration == pytest.approx(1.0)
        assert by_name["outer"].duration == pytest.approx(3.0)

    def test_siblings_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            with tracer.span("left"):
                pass
            with tracer.span("right"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert (by_name["left"].parent_id
                == by_name["right"].parent_id
                == by_name["root"].span_id)

    def test_attrs_mutable_during_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", fixed=1) as record:
            record.attrs["late"] = "yes"
        (only,) = tracer.spans
        assert only.attrs == {"fixed": 1, "late": "yes"}

    def test_exception_still_records_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(clock=FakeClock(), enabled=False)
        with tracer.span("ghost") as record:
            record.attrs["x"] = 1  # still usable as a handle
        assert tracer.spans == []

    def test_clear(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x"):
            pass
        tracer.clear()
        assert len(tracer) == 0

    def test_max_spans_drops_oldest(self):
        tracer = Tracer(clock=FakeClock(), max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]

    def test_bad_max_spans_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestCurrentTracer:
    def test_use_tracer_installs_and_restores(self):
        before = current_tracer()
        mine = Tracer(clock=FakeClock())
        with use_tracer(mine):
            assert current_tracer() is mine
            with span("via-module"):
                pass
        assert current_tracer() is before
        assert [s.name for s in mine.spans] == ["via-module"]

    def test_module_span_outside_use_goes_to_default(self):
        default = current_tracer()
        start = len(default)
        with span("ambient"):
            pass
        assert len(default) == start + 1


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self):
        # to_dict -> JSON -> from_dict is how worker spans travel back
        # to the parent tracer (Tracer.absorb).
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", scenario="2017_7"):
            with tracer.span("inner", iteration=3):
                pass
        lines = [json.dumps(s.to_dict()) for s in tracer.spans]
        loaded = [Span.from_dict(json.loads(line)) for line in lines]
        assert [s.to_dict() for s in loaded] == [
            s.to_dict() for s in tracer.spans
        ]


class TestThreadSafety:
    def test_concurrent_spans_all_collected_and_nested(self):
        tracer = Tracer()
        n_threads, n_spans = 8, 50
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(n_spans):
                with tracer.span("worker", tid=tid, i=i):
                    with tracer.span("child", tid=tid):
                        pass

        threads = [
            threading.Thread(target=work, args=(t,), name=f"w{t}")
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        spans = tracer.spans
        assert len(spans) == n_threads * n_spans * 2
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)  # ids never collide
        by_id = {s.span_id: s for s in spans}
        for child in (s for s in spans if s.name == "child"):
            parent = by_id[child.parent_id]
            # each child nests under a worker span of its own thread
            assert parent.name == "worker"
            assert parent.thread == child.thread
