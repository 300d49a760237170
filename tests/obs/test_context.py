"""Request-scoped trace context: ids, nesting, determinism, hand-off."""

import contextvars
import os
import random
import sys
import threading

import pytest

from repro.obs import context as ctx


class TestIdGeneration:
    def test_ids_are_16_hex_and_distinct(self):
        a, b = ctx.new_trace_id(), ctx.new_span_id()
        assert len(a) == ctx.ID_HEX_LEN and len(b) == ctx.ID_HEX_LEN
        assert set(a + b) <= set("0123456789abcdef")
        assert a != b

    def test_deterministic_ids_replay_by_seed(self):
        with ctx.deterministic_ids(7):
            first = [ctx.new_span_id() for _ in range(4)]
        with ctx.deterministic_ids(7):
            second = [ctx.new_span_id() for _ in range(4)]
        with ctx.deterministic_ids(8):
            other = [ctx.new_span_id() for _ in range(4)]
        assert first == second
        assert first != other

    def test_deterministic_ids_restore_randomness(self):
        with ctx.deterministic_ids(0):
            seeded = ctx.new_span_id()
        assert ctx.new_span_id() != seeded  # back to the process's generator

    def test_ids_make_no_os_urandom_call(self, monkeypatch):
        def no_entropy(size):
            raise AssertionError("an id drew on os.urandom")

        monkeypatch.setattr(os, "urandom", no_entropy)
        a, b = ctx.new_span_id(), ctx.new_trace_id()
        assert len(a) == len(b) == ctx.ID_HEX_LEN and a != b
        assert set(a + b) <= set("0123456789abcdef")

    def test_ids_leave_the_global_random_state_alone(self):
        # An unseeded topology draw after random.seed(k) must replay.
        state = random.getstate()
        for _ in range(8):
            ctx.new_span_id()
        assert random.getstate() == state

    def test_threads_draw_distinct_ids(self):
        # One generator serves every thread of a server; a torn draw
        # would repeat an id.
        ids, failures = [], []
        barrier = threading.Barrier(8)

        def draw():
            try:
                barrier.wait(timeout=10)
                ids.extend([ctx.new_span_id() for _ in range(2000)])
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=draw) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(ids) == len(set(ids)) == 16000
        assert all(len(i) == ctx.ID_HEX_LEN for i in ids)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_its_own_ids(self):
        ctx.new_span_id()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its first id, then leave at once
            try:
                os.write(write_end, ctx.new_span_id().encode())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            child = os.read(read_end, 64).decode()
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert len(child) == ctx.ID_HEX_LEN
        assert child != ctx.new_span_id()

    def test_deterministic_ids_nest(self):
        with ctx.deterministic_ids(1):
            outer_first = ctx.new_span_id()
            with ctx.deterministic_ids(2):
                inner = ctx.new_span_id()
            outer_second = ctx.new_span_id()
        with ctx.deterministic_ids(1):
            replay = [ctx.new_span_id() for _ in range(2)]
        assert [outer_first, outer_second] == replay
        assert inner not in replay


class TestTraceContext:
    def test_no_context_outside_any_scope(self):
        assert ctx.current() is None
        assert ctx.current_trace_id() is None

    def test_new_trace_has_fresh_ids_and_resets(self):
        with ctx.trace_context() as tc:
            assert ctx.current() is tc
            assert ctx.current_trace_id() == tc.trace_id
            assert tc.parent_id is None
        assert ctx.current() is None

    def test_nested_scope_is_a_passthrough(self):
        with ctx.trace_context() as outer:
            with ctx.trace_context() as inner:
                assert inner is outer
            assert ctx.current() is outer

    def test_adopting_a_remote_trace_positions_at_the_parent(self):
        # The forwarded parent span id becomes the ambient position, so
        # the first local span parents directly under the remote caller.
        with ctx.trace_context(trace_id="t" * 16, parent_id="p" * 16) as tc:
            assert tc.trace_id == "t" * 16
            assert tc.span_id == "p" * 16
            child, token = ctx.enter_span()
            assert child.trace_id == "t" * 16
            assert child.parent_id == "p" * 16
            ctx.exit_span(token)

    def test_reset_survives_exceptions(self):
        try:
            with ctx.trace_context():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ctx.current() is None

    def test_to_dict_shape(self):
        with ctx.trace_context() as tc:
            doc = tc.to_dict()
        assert doc == {"trace_id": tc.trace_id, "span_id": tc.span_id,
                       "parent_id": None}


class TestSpans:
    def test_enter_span_roots_a_trace_when_none_active(self):
        span, token = ctx.enter_span()
        try:
            assert span.parent_id is None
            assert ctx.current() is span
        finally:
            ctx.exit_span(token)
        assert ctx.current() is None

    def test_nested_spans_chain_parentage(self):
        with ctx.trace_context() as tc:
            a, ta = ctx.enter_span()
            b, tb = ctx.enter_span()
            assert a.trace_id == b.trace_id == tc.trace_id
            assert a.parent_id == tc.span_id
            assert b.parent_id == a.span_id
            ctx.exit_span(tb)
            assert ctx.current() is a
            ctx.exit_span(ta)
            assert ctx.current() is tc


class TestHandOff:
    def test_copy_context_carries_the_trace_across_threads(self):
        # The executor hop in the serve tier: copy_context().run on the
        # worker thread sees the submitting request's context.
        seen = []
        with ctx.trace_context() as tc:
            snapshot = contextvars.copy_context()
        worker = threading.Thread(
            target=lambda: seen.append(snapshot.run(ctx.current_trace_id)))
        worker.start()
        worker.join()
        assert seen == [tc.trace_id]

    def test_plain_threads_do_not_inherit_the_trace(self):
        seen = []
        with ctx.trace_context():
            worker = threading.Thread(
                target=lambda: seen.append(ctx.current_trace_id()))
            worker.start()
            worker.join()
        assert seen == [None]
