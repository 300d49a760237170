"""The sampling profiler: stacks, collapsed format, lifecycle, CLI flag.

The profiler is statistical, so the tests pin what is deterministic —
the collapsed-stack format round-trip, the thread-root labelling, the
top-table accounting, the lifecycle contract (single-use, idempotent
stop, guaranteed final sample) — and only ask "did it see the busy
function at all" of the sampling itself, with a worker thread that
spins long enough to be unmissable.
"""

import sys
import threading
import time

import pytest

from repro.obs.profile import (
    MAX_HZ,
    MAX_STACK_DEPTH,
    Profile,
    SamplingProfiler,
    looks_like_collapsed,
    parse_collapsed,
    profile_wait,
    sample_profile,
)


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(range(200))


class TestSampling:
    def test_profile_sees_a_busy_named_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=_spin, args=(stop,),
                                  name="busy-worker", daemon=True)
        worker.start()
        try:
            profile = profile_wait(0.25, hz=200)
        finally:
            stop.set()
            worker.join()
        assert profile.samples > 0
        text = profile.collapsed()
        assert "thread:busy-worker" in text
        # The stack reaches the spinning function itself.
        assert any(stack[0] == "thread:busy-worker"
                   and any("_spin" in label for label in stack)
                   for stack in parse_collapsed(text))

    def test_sampler_excludes_its_own_thread(self):
        profiler = SamplingProfiler(hz=50).start()
        time.sleep(0.1)
        profile = profiler.stop()
        assert all(stack[0] != "thread:repro-profiler"
                   for stack in profile.counts)

    def test_sub_period_session_still_yields_samples(self):
        # 1 hz and an immediate stop: only the final synchronous pass
        # can have run, and it must be enough.
        profiler = SamplingProfiler(hz=1).start()
        profile = profiler.stop()
        assert profile.samples > 0
        assert any(stack[0] == "thread:MainThread"
                   for stack in profile.counts)

    def test_deep_recursion_is_depth_bounded(self):
        def recurse(depth):
            if depth == 0:
                profiler = SamplingProfiler(hz=10)
                profiler.sample_once()
                return profiler
            return recurse(depth - 1)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, MAX_STACK_DEPTH + 200))
        try:
            profiler = recurse(MAX_STACK_DEPTH + 50)
        finally:
            sys.setrecursionlimit(limit)
        stacks = [s for s in profiler._counts if s[0] == "thread:MainThread"]
        assert stacks
        # thread root + "..." marker + MAX_STACK_DEPTH frames at most.
        assert all(len(s) <= MAX_STACK_DEPTH + 2 for s in stacks)
        assert any("..." in s for s in stacks)


class TestLifecycle:
    def test_double_start_raises(self):
        profiler = SamplingProfiler(hz=10).start()
        with pytest.raises(RuntimeError):
            profiler.start()
        profiler.stop()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            SamplingProfiler(hz=10).stop()

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(hz=10).start()
        first = profiler.stop()
        assert profiler.stop() is first

    @pytest.mark.parametrize("hz", [0, -1, MAX_HZ + 1])
    def test_hz_out_of_range_raises(self, hz):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=hz)

    @pytest.mark.parametrize("hz", [1.5, "100", True])
    def test_hz_wrong_type_raises(self, hz):
        with pytest.raises(TypeError):
            SamplingProfiler(hz=hz)

    def test_context_manager_writes_even_on_raise(self, tmp_path):
        out = tmp_path / "crash.collapsed"
        with pytest.raises(RuntimeError):
            with sample_profile(hz=10, out=out):
                raise RuntimeError("boom")
        assert parse_collapsed(out.read_text())


class TestCollapsedFormat:
    def test_round_trip(self):
        counts = {("thread:MainThread", "m.f", "m.g"): 3,
                  ("thread:w", "m.h"): 1}
        profile = Profile()
        profile.counts.update(counts)
        profile.samples = 4
        assert parse_collapsed(profile.collapsed()) == counts

    def test_collapsed_is_sorted_with_trailing_newline(self):
        profile = Profile()
        profile.counts[("b",)] = 1
        profile.counts[("a",)] = 2
        assert profile.collapsed() == "a 2\nb 1\n"

    def test_empty_profile_collapses_to_empty_string(self):
        assert Profile().collapsed() == ""

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_collapsed("a;b 3\nnot a stack line\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_collapsed("a;b minus3")

    def test_frame_labels_never_contain_separators(self):
        # A pathological function name with ';' and ' ' must not corrupt
        # the format: labels are scrubbed at walk time.
        namespace = {}
        exec("def evil(): return sum(range(10))", namespace)
        namespace["evil"].__code__ = \
            namespace["evil"].__code__.replace(co_name="has;semi colon")
        done = threading.Event()

        def run():
            while not done.is_set():
                namespace["evil"]()

        worker = threading.Thread(target=run, name="evil-worker",
                                  daemon=True)
        worker.start()
        try:
            profile = profile_wait(0.2, hz=200)
        finally:
            done.set()
            worker.join()
        parse_collapsed(profile.collapsed())  # must not raise

    def test_looks_like_collapsed(self):
        assert looks_like_collapsed("a;b 3\n")
        assert not looks_like_collapsed("")
        assert not looks_like_collapsed('{"name": "span"}')
        # A JSON record is never a stack, whatever follows it, and the
        # count must end its line.
        assert not looks_like_collapsed('{"x": 1} 3\n')
        assert not looks_like_collapsed("a;b 3 ")
        assert not looks_like_collapsed("a;b 3\n" + '{"x": 1} 3\n')
        assert looks_like_collapsed("a;b 3\n\n  c;d 4\n")


class TestTopTable:
    def test_self_and_cumulative_accounting(self):
        profile = Profile()
        profile.counts[("thread:t", "m.outer", "m.inner")] = 6
        profile.counts[("thread:t", "m.outer")] = 4
        profile.samples = 10
        rows = {r["frame"]: r for r in profile.top(10)}
        assert rows["m.inner"]["self"] == 6
        assert rows["m.outer"]["self"] == 4
        assert rows["m.outer"]["cum"] == 10  # on every stack
        assert rows["m.inner"]["cum_pct"] == pytest.approx(60.0)

    def test_recursive_frames_count_once_per_stack(self):
        profile = Profile()
        profile.counts[("thread:t", "m.rec", "m.rec", "m.rec")] = 5
        profile.samples = 5
        rows = {r["frame"]: r for r in profile.top(10)}
        assert rows["m.rec"]["cum"] == 5

    def test_table_renders(self):
        profile = Profile()
        profile.counts[("thread:t", "m.f")] = 2
        profile.samples = 2
        profile.duration_s = 0.5
        text = profile.top_table(5)
        assert "m.f" in text
        assert "2 samples" in text
