"""The shipped trace validator: schema, parentage, timestamp checks."""

import json
import sys
from pathlib import Path

from repro.obs.profile import looks_like_collapsed as is_collapsed_profile
from repro.obs.tracing import validate_jsonl as validate_lines
from repro.obs.tracing import validate_span as validate

sys.path.insert(0, str(Path(__file__).parents[2] / "tools"))
try:
    from validate_trace import main as validate_trace_main
finally:
    sys.path.pop(0)


def _span(**overrides):
    span = {"name": "op", "start_s": 1.0, "duration_s": 0.5,
            "trace_id": "t" * 16, "span_id": "a" * 16,
            "parent_id": None, "pid": 42, "attrs": {}}
    span.update(overrides)
    return span


def _lines(*spans):
    return "\n".join(json.dumps(s) for s in spans)


class TestSpanSchema:
    def test_valid_span_passes(self):
        assert validate(_span()) == []

    def test_missing_trace_id_is_flagged(self):
        span = _span()
        del span["trace_id"]
        assert any("trace_id" in p for p in validate(span))

    def test_empty_ids_and_negative_durations_are_flagged(self):
        assert any("trace_id" in p for p in validate(_span(trace_id="")))
        assert any("duration_s" in p
                   for p in validate(_span(duration_s=-0.1)))

    def test_parent_and_pid_may_be_null_but_not_junk(self):
        assert validate(_span(parent_id=None, pid=None)) == []
        assert any("parent_id" in p for p in validate(_span(parent_id=7)))
        assert any("pid" in p for p in validate(_span(pid="42")))


class TestGraphInvariants:
    def test_chain_and_remote_parent_are_valid(self):
        parent = _span(span_id="a" * 16, parent_id="remote" + "0" * 10)
        child = _span(span_id="b" * 16, parent_id="a" * 16, start_s=1.2)
        assert validate_lines(_lines(parent, child)) == []

    def test_parentage_cycle_is_flagged(self):
        a = _span(span_id="a" * 16, parent_id="b" * 16)
        b = _span(span_id="b" * 16, parent_id="a" * 16)
        assert any("cycle" in p for p in validate_lines(_lines(a, b)))

    def test_duplicate_span_ids_are_flagged(self):
        problems = validate_lines(_lines(_span(), _span(start_s=2.0)))
        assert any("more than once" in p for p in problems)

    def test_child_starting_before_its_parent_is_flagged(self):
        parent = _span(span_id="a" * 16, start_s=5.0)
        child = _span(span_id="b" * 16, parent_id="a" * 16, start_s=4.0)
        problems = validate_lines(_lines(parent, child))
        assert any("before its parent" in p for p in problems)

    def test_cross_process_timestamps_are_not_compared(self):
        # perf_counter epochs differ per process: a server span may
        # "start before" its client parent on the raw numbers.
        parent = _span(span_id="a" * 16, start_s=5000.0, pid=1)
        child = _span(span_id="b" * 16, parent_id="a" * 16,
                      start_s=4.0, pid=2)
        assert validate_lines(_lines(parent, child)) == []


class TestLines:
    def test_unparseable_and_blank_lines_are_flagged(self):
        text = json.dumps(_span()) + "\n\n{nope\n"
        problems = validate_lines(text)
        assert any("blank" in p for p in problems)
        assert any("unparseable" in p for p in problems)


class TestProfileSidecars:
    def test_collapsed_profiles_are_recognized(self):
        text = ("thread:MainThread;repro.cli.main;repro.cli._cmd_sweep 42\n"
                "thread:repro-serve-plan;m.f 7\n")
        assert is_collapsed_profile(text)
        assert not is_collapsed_profile(json.dumps(_span()) + "\n")
        assert not is_collapsed_profile("")
        assert not is_collapsed_profile("just some words\nno counts here\n")

    def test_sampling_profiler_output_is_recognized(self):
        from repro.obs.profile import profile_wait

        profile = profile_wait(0.05, hz=50)
        assert is_collapsed_profile(profile.collapsed())

    def test_main_skips_profiles_passed_via_glob(self, tmp_path, capsys):
        # An artefact directory mixes span dumps and profile sidecars;
        # the validator must accept the glob and ignore the profiles.
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps(_span()) + "\n")
        profile = tmp_path / "sweep.collapsed"
        profile.write_text("thread:MainThread;m.f 3\n")
        assert validate_trace_main([str(trace), str(profile)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "1 spans" in out
