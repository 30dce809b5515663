"""Unit tests for span trees, thread propagation, the trace buffer and slowlog."""

import contextvars
import json
import logging
import threading

import pytest

from repro.obs import (
    SlowRequestLog,
    TraceBuffer,
    current_span,
    stage,
    trace,
)


class TestTraceNesting:
    def test_root_span_is_recorded_via_sink(self):
        seen = []
        with trace("request", sink=seen.append, method="rank") as span:
            assert current_span() is span
        assert seen == [span]
        assert span.duration is not None and span.duration >= 0.0
        assert span.tags == {"method": "rank"}
        assert current_span() is None

    def test_children_nest_and_sink_fires_only_for_root(self):
        seen = []
        with trace("request", sink=seen.append) as root:
            with trace("rank", sink=seen.append) as inner:
                with stage("sampling"):
                    pass
        assert seen == [root]
        assert [child.name for child in root.children] == ["rank"]
        assert [child.name for child in inner.children] == ["sampling"]
        assert inner.trace_id == root.trace_id
        assert inner.parent_id == root.span_id

    def test_sink_sees_span_even_when_body_raises(self):
        seen = []
        with pytest.raises(RuntimeError):
            with trace("request", sink=seen.append):
                raise RuntimeError("boom")
        assert len(seen) == 1 and seen[0].duration is not None

    def test_sink_errors_are_swallowed(self):
        def bad_sink(_span):
            raise RuntimeError("sink broke")

        with trace("request", sink=bad_sink):
            pass  # must not raise

    def test_stage_outside_a_trace_records_nothing(self):
        with stage("sampling") as span:
            assert span is None
        assert current_span() is None

    def test_find_and_to_dict(self):
        with trace("request") as root:
            with stage("density"):
                with stage("density"):
                    pass
        assert len(root.find("density")) == 2
        tree = root.to_dict()
        assert tree["name"] == "request"
        assert tree["children"][0]["children"][0]["name"] == "density"
        json.dumps(tree)  # JSON-safe

    def test_child_seconds_bounded_by_parent(self):
        with trace("request") as root:
            with stage("a"):
                pass
            with stage("b"):
                pass
        assert 0.0 <= root.child_seconds() <= root.duration


class TestThreadPropagation:
    def test_copied_context_attaches_thread_spans_to_the_open_span(self):
        with trace("request") as root:
            with stage("density") as density:
                threads = [
                    threading.Thread(
                        target=contextvars.copy_context().run,
                        args=(self._shard, index),
                    )
                    for index in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        assert sorted(span.tags["index"] for span in density.children) == [0, 1]
        for span in density.children:
            assert span.name == "density_shard"
            assert span.trace_id == root.trace_id
            assert span.parent_id == density.span_id

    def test_thread_without_copied_context_records_nothing(self):
        with trace("request") as root:
            thread = threading.Thread(target=self._shard, args=(0,))
            thread.start()
            thread.join()
        assert root.children == []

    @staticmethod
    def _shard(index):
        with stage("density_shard", index=index):
            pass


class TestTraceBuffer:
    def test_ring_keeps_newest(self):
        buffer = TraceBuffer(maxlen=2)
        spans = []
        for index in range(3):
            with trace(f"r{index}") as span:
                pass
            buffer.record(span)
            spans.append(span)
        assert buffer.recorded == 3
        assert len(buffer) == 2
        assert buffer.spans() == spans[1:]

    def test_snapshot_limits(self):
        buffer = TraceBuffer(maxlen=8)
        for index in range(4):
            with trace(f"r{index}") as span:
                pass
            buffer.record(span)
        assert [t["name"] for t in buffer.snapshot(limit=2)] == ["r2", "r3"]
        assert buffer.snapshot(limit=0) == []
        assert len(buffer.snapshot()) == 4
        buffer.clear()
        assert len(buffer) == 0


class TestSlowRequestLog:
    def _finished_span(self, name="rank"):
        with trace(name) as span:
            pass
        return span

    def test_disabled_by_default(self):
        log = SlowRequestLog()
        assert log.enabled is False
        assert log.maybe_log(self._finished_span()) is False
        assert log.emitted == 0

    def test_emits_json_line_with_span_tree(self, caplog):
        logger = logging.getLogger("test.slowlog")
        log = SlowRequestLog(threshold_seconds=0.0, logger=logger)
        span = self._finished_span()
        with caplog.at_level(logging.WARNING, logger="test.slowlog"):
            assert log.maybe_log(span) is True
        assert log.emitted == 1
        document = json.loads(caplog.records[-1].getMessage())
        assert document["event"] == "slow_request"
        assert document["request"] == "rank"
        assert document["trace_id"] == span.trace_id
        assert document["span_tree"]["name"] == "rank"

    def test_fast_requests_stay_quiet(self):
        log = SlowRequestLog(threshold_seconds=3600.0)
        assert log.maybe_log(self._finished_span()) is False
        assert log.emitted == 0
