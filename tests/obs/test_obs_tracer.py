"""Unit tests for the span tracer, the stopwatch, and phase aggregation."""

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    aggregate_phases,
    stopwatch,
)


class TestTracer:
    def test_spans_record_in_creation_order_with_parents_and_depth(self):
        tracer = Tracer()
        with tracer.span("flush"):
            with tracer.span("flush.build"):
                pass
            with tracer.span("flush.solve"):
                with tracer.span("solve.sweep"):
                    pass
        names = [s.name for s in tracer.spans]
        assert names == ["flush", "flush.build", "flush.solve", "solve.sweep"]
        assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
        assert [s.depth for s in tracer.spans] == [0, 1, 1, 2]
        assert [s.index for s in tracer.spans] == [0, 1, 2, 3]

    def test_seconds_set_on_exit_and_zero_while_open(self):
        tracer = Tracer()
        with tracer.span("outer") as span:
            assert span.seconds == 0.0
        assert span.seconds > 0.0
        # children close before parents, so child seconds <= parent seconds
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        a, b = tracer.spans[1], tracer.spans[2]
        assert b.seconds <= a.seconds

    def test_sibling_roots_both_have_parent_minus_one(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.parent for s in tracer.spans] == [-1, -1]
        assert [s.depth for s in tracer.spans] == [0, 0]

    def test_event_records_zero_duration_span_at_current_depth(self):
        tracer = Tracer()
        with tracer.span("flush"):
            tracer.event("cache.miss")
        event = tracer.spans[1]
        assert event.name == "cache.miss"
        assert event.seconds == 0.0
        assert event.parent == 0
        assert event.depth == 1

    def test_mark_and_since_slice_one_flush(self):
        tracer = Tracer()
        with tracer.span("flush"):
            pass
        mark = tracer.mark()
        assert mark == 1
        with tracer.span("flush"):
            tracer.event("cache.hit")
        tail = tracer.since(mark)
        assert [s.name for s in tail] == ["flush", "cache.hit"]

    def test_span_survives_exception_and_pops_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("flush"):
                raise ValueError("boom")
        assert tracer.spans[0].seconds > 0.0
        assert tracer._stack == []

    def test_to_dict_is_json_ready(self):
        span = Span(name="x", start=1.0, seconds=0.5, parent=-1, index=0, depth=0)
        assert span.to_dict() == {
            "name": "x",
            "start": 1.0,
            "seconds": 0.5,
            "parent": -1,
            "index": 0,
            "depth": 0,
        }


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("flush"):
            NULL_TRACER.event("cache.hit")
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.mark() == 0
        assert NULL_TRACER.since(0) == ()
        assert NULL_TRACER.enabled is False

    def test_null_span_is_shared_and_reentrant(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b")
        assert first is second
        with first:
            with second:
                pass

    def test_null_tracer_is_stateless_singleton_shaped(self):
        assert NullTracer().spans == ()
        assert Tracer.enabled is True


class TestStopwatch:
    def test_seconds_after_exit_and_live_elapsed_inside(self):
        with stopwatch() as watch:
            inside = watch.elapsed
            assert inside >= 0.0
            assert watch.seconds == 0.0
        assert watch.seconds >= inside
        assert watch.elapsed >= watch.seconds

    def test_stopwatch_survives_exception(self):
        watch = stopwatch()
        with pytest.raises(RuntimeError):
            with watch:
                raise RuntimeError("boom")
        assert watch.seconds > 0.0


class TestAggregatePhases:
    def _span(self, name, seconds, parent, index, depth):
        return Span(
            name=name, start=0.0, seconds=seconds,
            parent=parent, index=index, depth=depth,
        )

    def test_sums_phases_directly_under_the_root_only(self):
        spans = [
            self._span("flush", 1.0, -1, 0, 0),
            self._span("flush.cache", 0.1, 0, 1, 1),
            self._span("cache.miss", 0.0, 1, 2, 2),
            self._span("flush.solve", 0.6, 0, 3, 1),
            self._span("solve.sweep", 0.5, 3, 4, 2),  # deeper: ignored
            self._span("flush.cache", 0.2, 0, 5, 1),  # repeated phase sums
        ]
        totals = aggregate_phases(spans)
        assert totals == {
            "cache": pytest.approx(0.3),
            "solve": pytest.approx(0.6),
        }

    def test_spans_before_the_root_are_ignored(self):
        spans = [
            self._span("flush.solve", 9.0, -1, 0, 0),  # stray pre-root span
            self._span("flush", 1.0, -1, 1, 0),
            self._span("flush.solve", 0.4, 1, 2, 1),
        ]
        assert aggregate_phases(spans) == {"solve": pytest.approx(0.4)}

    def test_no_root_yields_empty(self):
        spans = [self._span("flush.solve", 0.4, -1, 0, 0)]
        assert aggregate_phases(spans) == {}
        assert aggregate_phases([]) == {}

    def test_nested_root_anchor_offsets_depth(self):
        # root at depth 2 (e.g. a flush inside an outer span)
        spans = [
            self._span("flush", 1.0, 5, 6, 2),
            self._span("flush.merge", 0.25, 6, 7, 3),
        ]
        assert aggregate_phases(spans) == {"merge": pytest.approx(0.25)}

    def test_non_prefix_children_are_skipped(self):
        spans = [
            self._span("flush", 1.0, -1, 0, 0),
            self._span("fault.worker_departure", 0.0, 0, 1, 1),
            self._span("flush.commit", 0.3, 0, 2, 1),
        ]
        assert aggregate_phases(spans) == {"commit": pytest.approx(0.3)}

    def test_live_tracer_round_trip(self):
        tracer = Tracer()
        mark = tracer.mark()
        with tracer.span("flush"):
            with tracer.span("flush.build"):
                pass
            with tracer.span("flush.solve"):
                with tracer.span("solve.resolve"):
                    pass
        totals = aggregate_phases(tracer.since(mark))
        assert set(totals) == {"build", "solve"}
        flush = tracer.spans[mark]
        assert sum(totals.values()) <= flush.seconds
