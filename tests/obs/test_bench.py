"""Bench history records and the regression-gate diff logic."""

import json

import pytest

from repro.obs.bench import (
    HISTORY_FORMAT,
    HISTORY_VERSION,
    append_history,
    diff,
    history_record,
    latest_by_bench,
    load_sidecars,
    lower_is_better,
    parse_history_lines,
    read_history,
    result_key,
    validate_records,
)


def _sidecar(bench="bench_x", rows=None):
    return {
        "benchmark": bench,
        "format": "repro-bench-summary",
        "version": 1,
        "results": rows if rows is not None else [
            {"name": "test_a", "key": "test_a", "params": {},
             "wall_clock_s": 1.0,
             "headline": {"metric": "mean_s", "value": 0.5}},
        ],
    }


def _write_sidecar(path, doc):
    path.write_text(json.dumps(doc))


class TestDirection:
    @pytest.mark.parametrize("metric", ["warm_p50_ms", "mean_s",
                                        "overhead_pct", "delay_us"])
    def test_durations_regress_upward(self, metric):
        assert lower_is_better(metric)

    @pytest.mark.parametrize("metric", ["plans_per_s", "hit_rate",
                                        "vector_speedup", "coalesce_ratio"])
    def test_rates_regress_downward(self, metric):
        assert not lower_is_better(metric)

    def test_unclassified_defaults_to_lower_better(self):
        assert lower_is_better("mystery_metric")


class TestResultKey:
    def test_precomputed_key_wins(self):
        assert result_key({"name": "t", "key": "t[x=1]"}) == "t[x=1]"

    def test_recomputed_from_sorted_params(self):
        row = {"name": "t", "params": {"b": 2, "a": 1}}
        assert result_key(row) == "t[a=1,b=2]"

    def test_no_params_is_just_the_name(self):
        assert result_key({"name": "t", "params": {}}) == "t"


class TestHistoryIO:
    def test_append_wraps_each_sidecar(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        _write_sidecar(results / "bench_x.json", _sidecar("bench_x"))
        _write_sidecar(results / "bench_y.json", _sidecar("bench_y"))
        # Foreign artefacts in the same directory are skipped.
        (results / "serve_load.json").write_text(
            json.dumps({"format": "repro-serve-load", "version": 1}))
        (results / "table.csv").write_text("a,b\n1,2\n")
        out = tmp_path / "history.jsonl"
        assert append_history(results, out, git_sha="abc123",
                              recorded_unix=100.0) == 2
        records = read_history(out)
        assert [r["bench"] for r in records] == ["bench_x", "bench_y"]
        assert all(r["format"] == HISTORY_FORMAT
                   and r["version"] == HISTORY_VERSION
                   and r["git_sha"] == "abc123" for r in records)

    def test_append_is_append_only(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        _write_sidecar(results / "bench_x.json", _sidecar())
        out = tmp_path / "history.jsonl"
        append_history(results, out, git_sha="one", recorded_unix=1.0)
        append_history(results, out, git_sha="two", recorded_unix=2.0)
        records = read_history(out)
        assert len(records) == 2
        latest = latest_by_bench(records)
        assert latest["bench_x"]["git_sha"] == "two"

    def test_read_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="line"):
            read_history(path)
        path.write_text(json.dumps({"format": "wrong"}) + "\n")
        with pytest.raises(ValueError):
            read_history(path)

    def test_record_keys_every_row(self):
        sidecar = _sidecar(rows=[{"name": "t", "params": {"n": 5},
                                  "headline": {"metric": "mean_s",
                                               "value": 1.0}}])
        record = history_record(sidecar, git_sha="sha", recorded_unix=5.0)
        assert record["results"][0]["key"] == "t[n=5]"

    def test_load_sidecars_ignores_unreadable_files(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        _write_sidecar(tmp_path / "bench_x.json", _sidecar())
        assert list(load_sidecars(tmp_path)) == ["bench_x"]


class TestValidateRecords:
    def test_appended_history_is_valid(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        _write_sidecar(results / "bench_x.json", _sidecar(rows=[
            {"name": "t", "headline": {"metric": "mean_s", "value": 1.0}}]))
        out = tmp_path / "history.jsonl"
        append_history(results, out, git_sha="abc", recorded_unix=1.0)
        records = parse_history_lines(out.read_text(), out)
        assert records == read_history(out)
        assert validate_records(records) == []

    def test_every_record_problem_is_named(self):
        record = history_record(_sidecar(), git_sha="sha", recorded_unix=1.0)
        bad = dict(record, version=2, git_sha=None,
                   results=[{"key": "", "name": "t",
                             "headline": {"metric": "x_ms", "value": True}}])
        assert validate_records([record, bad, "junk"]) == [
            "record[1]: 'version' must be 1, got 2",
            "record[1]: missing string 'git_sha'",
            "record[1].results[0]: missing non-empty string 'key'",
            "record[1].results[0]: 'headline' must carry a string "
            "'metric' and numeric 'value'",
            "record[2]: must be an object",
        ]
        assert validate_records({}) == ["expected a list of records, "
                                        "got dict"]

    def test_parse_tells_histories_from_other_documents(self):
        record = json.dumps(history_record(_sidecar(), git_sha="s"))
        assert parse_history_lines("", "h") is None
        assert parse_history_lines("{\n}\n", "h") is None
        assert parse_history_lines('{"format": "repro-metrics"}', "h") \
            is None
        assert len(parse_history_lines(f"\n{record}\n\n{record}\n",
                                       "h")) == 2
        with pytest.raises(ValueError, match=r"^h:2: unparseable: "):
            parse_history_lines(f"{record}\n{{truncated\n", "h")


class TestDiff:
    def _pair(self, base_value, current_value, metric="mean_s"):
        baseline = {"bench_x": _sidecar(rows=[
            {"name": "t", "key": "t", "params": {},
             "headline": {"metric": metric, "value": base_value}}])}
        current = {"bench_x": _sidecar(rows=[
            {"name": "t", "key": "t", "params": {},
             "headline": {"metric": metric, "value": current_value}}])}
        return current, baseline

    def test_identical_runs_pass(self):
        current, baseline = self._pair(0.5, 0.5)
        report = diff(current, baseline)
        assert report.ok
        assert len(report.compared) == 1

    def test_doubled_duration_regresses_at_default_threshold(self):
        current, baseline = self._pair(0.5, 1.0)
        report = diff(current, baseline)
        assert not report.ok
        assert report.regressions[0].metric == "mean_s"

    def test_within_threshold_is_noise(self):
        current, baseline = self._pair(0.5, 0.7)
        assert diff(current, baseline).ok

    def test_higher_better_regresses_downward(self):
        current, baseline = self._pair(100.0, 40.0, metric="plans_per_s")
        assert not diff(current, baseline).ok
        # An *increase* of a rate is never a regression.
        current, baseline = self._pair(100.0, 400.0, metric="plans_per_s")
        assert diff(current, baseline).ok

    def test_per_metric_threshold_overrides_default(self):
        current, baseline = self._pair(0.5, 0.7)
        report = diff(current, baseline, per_metric={"mean_s": 1.1})
        assert not report.ok

    def test_new_and_gone_rows_are_reported_not_failed(self):
        baseline = {"bench_x": _sidecar(rows=[
            {"name": "old", "key": "old", "params": {},
             "headline": {"metric": "mean_s", "value": 1.0}}])}
        current = {"bench_x": _sidecar(rows=[
            {"name": "new", "key": "new", "params": {},
             "headline": {"metric": "mean_s", "value": 1.0}}]),
            "bench_new": _sidecar("bench_new")}
        report = diff(current, baseline)
        assert report.ok
        assert "bench_x:new" in report.missing_in_baseline
        assert "bench_new" in report.missing_in_baseline
        assert "bench_x:old" in report.missing_in_current

    def test_zero_baseline_is_infinite_ratio(self):
        current, baseline = self._pair(0.0, 1.0)
        report = diff(current, baseline)
        assert report.compared[0].ratio == float("inf")
        assert not report.ok

    def test_bad_threshold_raises(self):
        current, baseline = self._pair(1.0, 1.0)
        with pytest.raises(ValueError):
            diff(current, baseline, threshold=0.5)
        with pytest.raises(ValueError):
            diff(current, baseline, per_metric={"mean_s": 0.9})

    def test_report_serializes(self):
        current, baseline = self._pair(0.5, 2.0)
        doc = diff(current, baseline).to_dict()
        assert doc["ok"] is False
        assert doc["regressions"] == 1
        json.dumps(doc)  # must be JSON-clean
