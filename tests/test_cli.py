"""The command-line interface, exercised through main()."""

import json
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.serialization import load_schedule
from repro.core.transparency import is_topology_transparent


class TestBuild:
    def test_build_polynomial(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["build", "-n", "16", "-d", "3", "--alpha-t", "3",
                   "--alpha-r", "6", "--family", "polynomial",
                   "-o", str(out)])
        assert rc == 0
        sched = load_schedule(out)
        assert sched.is_alpha_schedule(3, 6)
        assert is_topology_transparent(sched, 3)
        assert "family=polynomial" in capsys.readouterr().out

    def test_build_auto_family(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
                     "--alpha-r", "4", "-o", str(out)]) == 0
        assert load_schedule(out).n == 12

    def test_build_balanced(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
                     "--alpha-r", "4", "--balanced", "-o", str(out)]) == 0

    def test_build_invalid_budget(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["build", "-n", "5", "-d", "2", "--alpha-t", "4",
                   "--alpha-r", "4", "-o", str(out)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestPlan:
    def test_plan_writes_schedule(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = main(["plan", "-n", "15", "-d", "2", "--max-duty", "0.5",
                   "-o", str(out)])
        assert rc == 0
        sched = load_schedule(out)
        assert float(sched.average_duty_cycle()) <= 0.5
        assert "throughput=" in capsys.readouterr().out

    def test_plan_impossible(self, tmp_path, capsys):
        rc = main(["plan", "-n", "15", "-d", "2", "--max-duty", "0.05",
                   "-o", str(tmp_path / "p.json")])
        assert rc == 2

    def test_plan_file_is_the_provisioned_schedule(self, tmp_path, capsys):
        """Its ``meta`` carries ``balanced``, as a result line's does."""
        out = tmp_path / "p.json"
        assert main(["plan", "-n", "12", "-d", "2", "--max-duty", "0.5",
                     "--balanced", "-o", str(out)]) == 0
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"n": 12, "d": 2, "max_duty": 0.5, "balanced": true}\n')
        capsys.readouterr()
        assert main(["provision", "-i", str(requests), "--no-cache"]) == 0
        line = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == line["schedule"]


class TestVerify:
    def test_transparent(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
              "--alpha-r", "4", "-o", str(out)])
        rc = main(["verify", str(out), "-d", "2"])
        assert rc == 0
        assert "TRANSPARENT" in capsys.readouterr().out

    def test_not_transparent(self, tmp_path, capsys):
        from repro.core.schedule import Schedule
        from repro.core.serialization import save_schedule

        bad = Schedule.non_sleeping(5, [[0, 1], [2], [3]])
        path = tmp_path / "bad.json"
        save_schedule(bad, path)
        rc = main(["verify", str(path), "-d", "2"])
        assert rc == 1
        assert "witness" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent.json", "-d", "2"]) == 2


class TestAnalyze:
    def test_report_fields(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
              "--alpha-r", "4", "-o", str(out)])
        capsys.readouterr()  # drop the build line
        assert main(["analyze", str(out), "-d", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 12
        assert 0 < report["average_worst_case_throughput"] < 1
        assert report["minimum_worst_case_throughput"] > 0
        assert "worst_link_access_delay" not in report

    def test_latency_flag(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["build", "-n", "9", "-d", "2", "--alpha-t", "2",
              "--alpha-r", "4", "--family", "polynomial", "-o", str(out)])
        capsys.readouterr()  # drop the build line
        assert main(["analyze", str(out), "-d", "2", "--latency"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["worst_link_access_delay"] > 0


class TestSimulate:
    def build(self, tmp_path):
        out = tmp_path / "s.json"
        main(["build", "-n", "16", "-d", "4", "--alpha-t", "3",
              "--alpha-r", "6", "--family", "polynomial", "-o", str(out)])
        return out

    def test_saturated_grid(self, tmp_path, capsys):
        out = self.build(tmp_path)
        capsys.readouterr()  # drop the build line
        rc = main(["simulate", str(out), "--topology", "grid",
                   "--nodes", "16", "-d", "4", "--frames", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_link_throughput"] >= 1.0  # transparency, observed
        assert report["mean_latency_slots"] is None  # no queued packets

    def test_sensing_ring(self, tmp_path, capsys):
        out = self.build(tmp_path)
        capsys.readouterr()  # drop the build line
        rc = main(["simulate", str(out), "--topology", "ring",
                   "--nodes", "16", "-d", "4", "--frames", "5",
                   "--traffic", "sensing", "--period", "100"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delivery_ratio"] > 0

    def test_unit_disk_poisson(self, tmp_path, capsys):
        out = self.build(tmp_path)
        capsys.readouterr()
        rc = main(["simulate", str(out), "--topology", "unit-disk",
                   "--nodes", "16", "-d", "4", "--frames", "2",
                   "--traffic", "poisson", "--rate", "0.05", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slots"] > 0
        assert 0.0 <= report["delivery_ratio"] <= 1.0

    def test_regular_topology(self, tmp_path, capsys):
        out = self.build(tmp_path)
        capsys.readouterr()
        rc = main(["simulate", str(out), "--topology", "regular",
                   "--nodes", "16", "-d", "4", "--frames", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_link_throughput"] >= 1.0

    # The saturated grid-16 report of test_simulate_exports_engine_metrics's
    # run, every line but the energy byte for byte: the energy is a float
    # sum whose last digits depend on the order of its additions.
    GRID16_REPORT = [
        "{",
        '  "slots": 128,',
        '  "delivery_ratio": 1.0,',
        '  "collisions": 0,',
        '  "mean_link_throughput": 1.0416666666666667,',
        '  "min_link_throughput": 1.0,',
        '  "mean_latency_slots": null,',
        '  "awake_fraction": 0.3125,',
        '  "link_losses": 0,',
        '  "node_down_fraction": 0.0',
        "}",
    ]

    def test_saturated_grid16_report_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["build", "-n", "16", "-d", "4", "--alpha-t", "2",
                     "--alpha-r", "4", "-o", str(out)]) == 0
        capsys.readouterr()  # drop the build line
        assert main(["simulate", str(out), "--topology", "grid",
                     "--nodes", "16", "-d", "4", "--frames", "2"]) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert [line for line in lines
                if '"total_energy_mj"' not in line] == self.GRID16_REPORT
        assert json.loads(text)["total_energy_mj"] \
            == pytest.approx(398.63104, rel=1e-12)

    def test_non_square_grid_rejected(self, tmp_path, capsys):
        out = self.build(tmp_path)
        rc = main(["simulate", str(out), "--topology", "grid",
                   "--nodes", "15", "-d", "4"])
        assert rc == 2
        assert "square" in capsys.readouterr().err


class TestReport:
    def test_markdown_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
              "--alpha-r", "4", "-o", str(out)])
        capsys.readouterr()
        rc = main(["report", str(out), "-d", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# Schedule certificate" in text
        assert "TRANSPARENT" in text

    def test_markdown_to_file(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        md = tmp_path / "cert.md"
        main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
              "--alpha-r", "4", "-o", str(out)])
        rc = main(["report", str(out), "-d", "2", "-o", str(md)])
        assert rc == 0
        assert "Schedule certificate" in md.read_text()

    def test_non_transparent_exit_code(self, tmp_path):
        from repro.core.schedule import Schedule
        from repro.core.serialization import save_schedule

        bad = Schedule.non_sleeping(5, [[0, 1], [2], [3]])
        path = tmp_path / "bad.json"
        save_schedule(bad, path)
        assert main(["report", str(path), "-d", "2"]) == 1


class TestFamilies:
    def test_table(self, capsys):
        assert main(["families", "-n", "20", "-d", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("tdma", "polynomial", "steiner", "projective", "mols"):
            assert name in out


class TestExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "thm3_sweep" in out
        assert "fig1_example" in out
        assert "random_schedule" not in out

    def test_run_table_experiment(self, capsys):
        assert main(["experiment", "thm3_sweep"]) == 0
        assert "Theorem 3" in capsys.readouterr().out

    def test_run_tuple_experiment(self, capsys):
        assert main(["experiment", "fig1_example"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestProvision:
    @staticmethod
    def write_requests(tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_batch_to_file(self, tmp_path, capsys):
        from repro.core.serialization import schedule_from_dict

        inp = self.write_requests(tmp_path, [
            '{"n": 15, "d": 2, "max_duty": 0.4}',
            '{"n": 12, "d": 2, "max_duty": "1/2"}',
            '',  # blank lines are skipped
        ])
        out = tmp_path / "plans.jsonl"
        rc = main(["provision", "-i", str(inp), "-o", str(out),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "provisioned 2/2" in capsys.readouterr().err
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(docs) == 2
        for doc in docs:
            assert not doc["from_cache"]
            sched = schedule_from_dict(doc["schedule"])
            assert str(sched.average_duty_cycle()) == doc["duty_cycle"]

    def test_second_run_hits_plan_cache(self, tmp_path, capsys):
        inp = self.write_requests(
            tmp_path, ['{"n": 12, "d": 2, "max_duty": 0.5}'])
        out = tmp_path / "plans.jsonl"
        argv = ["provision", "-i", str(inp), "-o", str(out),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["from_cache"]
        assert "1 plan-cache hits" in capsys.readouterr().err

    def test_no_cache_leaves_no_store(self, tmp_path, capsys):
        inp = self.write_requests(
            tmp_path, ['{"n": 12, "d": 2, "max_duty": 0.5}'])
        cache = tmp_path / "cache"
        rc = main(["provision", "-i", str(inp), "-o",
                   str(tmp_path / "plans.jsonl"), "--cache-dir", str(cache),
                   "--no-cache"])
        assert rc == 0
        assert not cache.exists()

    def test_stdout_output_and_no_schedules(self, tmp_path, capsys):
        inp = self.write_requests(
            tmp_path, ['{"n": 12, "d": 2, "max_duty": 0.5}'])
        rc = main(["provision", "-i", str(inp), "--no-cache",
                   "--no-schedules"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"]
        assert "schedule" not in doc

    def test_bad_json_line_is_reported(self, tmp_path, capsys):
        inp = self.write_requests(tmp_path, ['{"n": 12,'])
        rc = main(["provision", "-i", str(inp), "--no-cache"])
        assert rc == 2
        assert ":1:" in capsys.readouterr().err

    def test_infeasible_request_sets_error_and_exit_code(
            self, tmp_path, capsys):
        inp = self.write_requests(tmp_path, [
            '{"n": 15, "d": 2, "max_duty": 0.05}',
            '{"n": 12, "d": 2, "max_duty": 0.5}',
        ])
        rc = main(["provision", "-i", str(inp), "--no-cache"])
        assert rc == 1
        captured = capsys.readouterr()
        docs = [json.loads(line) for line in captured.out.splitlines()]
        assert "duty budget" in docs[0]["error"]
        assert docs[1]["family"]
        assert "provisioned 1/2" in captured.err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["provision", "-i", str(tmp_path / "nope.jsonl"),
                   "--no-cache"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_input_files_are_closed(self, tmp_path):
        """``repro provision`` and ``repro sweep`` read their input
        through one reader that leaves no file open."""
        inp = self.write_requests(
            tmp_path, ['{"n": 12, "d": 2, "max_duty": 0.5}'])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["provision", "-i", str(inp), "--no-cache",
                         "-o", str(tmp_path / "plans.jsonl")]) == 0
            assert main(["sweep", "-i",
                         str(TestObservabilityFlags.SWEEP_SPEC),
                         "-o", str(tmp_path / "rows.jsonl")]) == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []


class TestSimulateFaults:
    def build(self, tmp_path):
        out = tmp_path / "s.json"
        main(["build", "-n", "16", "-d", "4", "--alpha-t", "3",
              "--alpha-r", "6", "--family", "polynomial", "-o", str(out)])
        return out

    def test_link_loss_flag(self, tmp_path, capsys):
        out = self.build(tmp_path)
        capsys.readouterr()  # drop the build line
        rc = main(["simulate", str(out), "--topology", "grid",
                   "--nodes", "16", "-d", "4", "--frames", "2",
                   "--link-loss", "0.3", "--fault-seed", "7"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["link_losses"] > 0
        assert report["node_down_fraction"] == 0.0

    def test_fault_plan_file_with_outage(self, tmp_path, capsys):
        out = self.build(tmp_path)
        plan = tmp_path / "faults.json"
        plan.write_text(json.dumps({"node_outages": [[5, 0, None]]}))
        capsys.readouterr()
        rc = main(["simulate", str(out), "--topology", "grid",
                   "--nodes", "16", "-d", "4", "--frames", "1",
                   "--fault-plan", str(plan)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["node_down_fraction"] == pytest.approx(1 / 16)

    def test_same_fault_seed_same_report(self, tmp_path, capsys):
        out = self.build(tmp_path)
        args = ["simulate", str(out), "--topology", "grid", "--nodes", "16",
                "-d", "4", "--frames", "2", "--link-loss", "0.2",
                "--node-crash-rate", "0.01", "--node-recover-rate", "0.1",
                "--fault-seed", "3"]
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestProvisionFaults:
    def test_stats_flag_emits_store_json(self, tmp_path, capsys):
        inp = tmp_path / "requests.jsonl"
        inp.write_text('{"n": 12, "d": 2, "max_duty": 0.5}\n')
        rc = main(["provision", "-i", str(inp), "-o",
                   str(tmp_path / "plans.jsonl"),
                   "--cache-dir", str(tmp_path / "cache"), "--stats"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert "; store:" in err[0]
        stats = json.loads(err[1])
        assert stats["stores"] > 0 and stats["corruptions"] == 0


class TestObservabilityFlags:
    """The global --log-*/--metrics-out/--trace-out/--profile flags."""

    REQUESTS = '{"n": 12, "d": 2, "max_duty": 0.5}\n'
    #: Two points; one-point shards make them two runtime tasks.
    SWEEP_SPEC = Path(__file__).parent / "data" / "sweep_golden_spec.jsonl"

    def provision(self, tmp_path, *extra):
        inp = tmp_path / "requests.jsonl"
        inp.write_text(self.REQUESTS)
        return main(["provision", "-i", str(inp),
                     "-o", str(tmp_path / "plans.jsonl"),
                     "--cache-dir", str(tmp_path / "cache"), *extra])

    def sweep(self, tmp_path, *extra):
        """``repro sweep``: the runtime's events and counters come from
        its shards."""
        return main(["sweep", "-i", str(self.SWEEP_SPEC),
                     "-o", str(tmp_path / "rows.jsonl"),
                     "--shard-size", "1", *extra])

    def test_metrics_out_writes_valid_reconciling_snapshot(self, tmp_path):
        metrics = tmp_path / "m.json"
        assert self.sweep(tmp_path, "--jobs", "2",
                          "--metrics-out", str(metrics)) == 0
        doc = json.loads(metrics.read_text())
        assert doc["format"] == "repro-metrics" and doc["version"] == 1
        completed = doc["counters"]["repro_runtime_tasks_completed_total"]
        total = sum(s["value"] for s in completed["series"])
        assert total > 0
        # each completed task was merged as one computed shard
        shards = doc["counters"]["repro_sweep_shards_total"]["series"]
        assert [s["labels"] for s in shards] == [{"result": "computed"}]
        assert shards[0]["value"] == total == 2
        from repro.obs.metrics import validate_snapshot as validate
        assert validate(doc) == []

    def test_trace_out_and_profile_cover_the_stages(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert self.provision(tmp_path, "--trace-out", str(trace),
                              "--profile") == 0
        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines() if line}
        assert {"provision.plan", "provision.evaluate",
                "provision.store"} <= names
        # the winner is built in-process, so its planner span appears
        assert "planner.evaluate" in names
        err = capsys.readouterr().err
        assert "provision.evaluate" in err  # the --profile table
        assert "total_s" in err

    def test_json_log_format_emits_lifecycle_events(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--log-format", "json") == 0
        events = []
        for line in capsys.readouterr().err.splitlines():
            try:
                events.append(json.loads(line)["event"])
            except (json.JSONDecodeError, KeyError):
                continue  # the human summary line
        assert "batch_started" in events
        assert "task_completed" in events
        assert "batch_finished" in events

    def test_log_level_silences_lifecycle_events(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--log-format", "json",
                          "--log-level", "error") == 0
        assert "task_completed" not in capsys.readouterr().err

    def test_stats_routes_through_the_metrics_exporter(self, tmp_path,
                                                       capsys):
        assert self.provision(tmp_path, "--stats") == 0
        stats = json.loads(capsys.readouterr().err.splitlines()[1])
        # legacy aliases stay flat; the exporter view rides alongside
        assert stats["stores"] > 0
        inner = stats["metrics"]
        assert inner["format"] == "repro-metrics"
        writes = inner["counters"]["repro_store_writes_total"]["series"][0]
        assert writes["value"] == stats["stores"]

    def test_metrics_out_unwritable_path_is_an_error(self, tmp_path, capsys):
        rc = self.provision(tmp_path, "--metrics-out",
                            str(tmp_path / "missing" / "m.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_flags_exist_on_other_commands(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        metrics = tmp_path / "m.json"
        rc = main(["plan", "-n", "12", "-d", "2", "--max-duty", "0.5",
                   "-o", str(out), "--metrics-out", str(metrics),
                   "--profile"])
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert doc["format"] == "repro-metrics"
        assert "planner.plan" in capsys.readouterr().err

    def test_simulate_exports_engine_metrics(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["build", "-n", "16", "-d", "4", "--alpha-t", "2",
                     "--alpha-r", "4", "-o", str(out)]) == 0
        metrics = tmp_path / "m.json"
        rc = main(["simulate", str(out), "--topology", "grid",
                   "--nodes", "16", "-d", "4", "--frames", "2",
                   "--metrics-out", str(metrics)])
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert "repro_sim_collisions_total" in doc["counters"]
        rate = doc["gauges"]["repro_sim_slots_per_second"]["series"][0]
        assert rate["value"] > 0


class TestObs:
    def _spans(self, tmp_path):
        spans = [
            {"name": "client.call", "start_s": 1.0, "duration_s": 0.5,
             "trace_id": "t" * 16, "span_id": "a" * 16, "parent_id": None,
             "pid": 1, "attrs": {"path": "/plan"}},
            {"name": "serve.request", "start_s": 1.1, "duration_s": 0.3,
             "trace_id": "t" * 16, "span_id": "b" * 16,
             "parent_id": "a" * 16, "pid": 2, "attrs": {}},
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(s) for s in spans) + "\n")
        return path

    def test_report_renders_the_trace_tree(self, tmp_path, capsys):
        rc = main(["obs", "report", str(self._spans(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace " + "t" * 16 in out
        assert "client.call" in out and "serve.request" in out
        # The child is indented under its parent.
        lines = out.splitlines()
        client = next(li for li in lines if "client.call" in li)
        serve = next(li for li in lines if "serve.request" in li)
        assert len(serve) - len(serve.lstrip()) \
            > len(client) - len(client.lstrip())

    def test_report_needs_a_path(self, capsys):
        assert main(["obs", "report"]) == 2
        assert "error" in capsys.readouterr().err

    def test_slo_exits_nonzero_on_a_burned_objective(self, tmp_path,
                                                     capsys):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        counter = reg.counter("repro_serve_requests_total", "requests")
        for _ in range(90):
            counter.labels(code="200").inc()
        for _ in range(10):
            counter.labels(code="503").inc()
        snap = tmp_path / "metrics.json"
        reg.write_json(snap)
        rc = main(["obs", "slo", "--metrics", str(snap)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "repro-slo"
        assert report["ok"] is False

    def test_slo_passes_on_a_healthy_snapshot(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro_serve_requests_total",
                    "requests").labels(code="200").inc()
        snap = tmp_path / "metrics.json"
        reg.write_json(snap)
        assert main(["obs", "slo", "--metrics", str(snap)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_slo_honours_an_objectives_file(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        counter = reg.counter("jobs_total", "jobs")
        for _ in range(8):
            counter.labels(code="200").inc()
        counter.labels(code="500").inc()
        counter.labels(code="500").inc()
        snap = tmp_path / "metrics.json"
        reg.write_json(snap)
        objectives = tmp_path / "objectives.json"
        objectives.write_text(json.dumps([
            {"name": "jobs-ok", "kind": "availability",
             "metric": "jobs_total", "target": 0.9}]))
        rc = main(["obs", "slo", "--metrics", str(snap),
                   "--objectives", str(objectives)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["objectives"][0]["objective"]["name"] == "jobs-ok"

    def test_slo_requires_the_metrics_flag(self, capsys):
        assert main(["obs", "slo"]) == 2
        assert "error" in capsys.readouterr().err

    def test_slo_rejects_an_empty_object(self, tmp_path, capsys):
        snap = tmp_path / "metrics.json"
        snap.write_text("{}")
        assert main(["obs", "slo", "--metrics", str(snap)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {snap}: 'format' must be 'repro-metrics', got None" \
            in captured.err.splitlines()

    def test_slo_rejects_a_metrics_history(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.timeseries import SnapshotRing

        ring = SnapshotRing(4)
        ring.append(MetricsRegistry().snapshot(), t_unix=1.0)
        history = tmp_path / "history.json"
        history.write_text(json.dumps(ring.to_doc()))
        assert main(["obs", "slo", "--metrics", str(history)]) == 2
        err = capsys.readouterr().err
        assert "'format' must be 'repro-metrics', got " \
            "'repro-metrics-history'" in err
        assert "missing 'counters' object" in err

    def test_slo_passes_a_snapshot_without_series(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry

        snap = tmp_path / "metrics.json"
        MetricsRegistry().write_json(snap)
        assert main(["obs", "slo", "--metrics", str(snap)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert all(e["total"] == 0 for e in report["objectives"])


class TestCallTrace:
    def test_trace_flag_prints_the_trace_id(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        rc = main(["call", "health", "--port", str(port), "--retries", "0",
                   "--trace"])
        assert rc == 4  # nothing listening: the call itself fails
        err = capsys.readouterr().err
        assert "trace_id " in err


class TestObsBenchDiff:
    def _results(self, tmp_path, value, name="results"):
        results = tmp_path / name
        results.mkdir()
        (results / "bench_x.json").write_text(json.dumps({
            "benchmark": "bench_x", "format": "repro-bench-summary",
            "version": 1,
            "results": [{"name": "t", "key": "t", "params": {},
                         "headline": {"metric": "mean_s", "value": value}}],
        }))
        return results

    def test_self_diff_against_history_passes(self, tmp_path, capsys):
        from repro.obs.bench import append_history

        results = self._results(tmp_path, 0.5)
        history = tmp_path / "history.jsonl"
        append_history(results, history, git_sha="sha", recorded_unix=1.0)
        rc = main(["obs", "bench-diff", "--baseline", str(history),
                   "--results-dir", str(results)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 compared, 0 regression(s)" in out

    def test_doctored_baseline_exits_one(self, tmp_path, capsys):
        baseline = self._results(tmp_path, 0.5, name="baseline")
        current = self._results(tmp_path, 2.0, name="current")
        rc = main(["obs", "bench-diff", "--baseline", str(baseline),
                   "--results-dir", str(current)])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_report_is_machine_readable(self, tmp_path, capsys):
        baseline = self._results(tmp_path, 0.5, name="baseline")
        current = self._results(tmp_path, 0.5, name="current")
        rc = main(["obs", "bench-diff", "--json", "--baseline",
                   str(baseline), "--results-dir", str(current)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["regressions"] == 0

    def test_per_metric_threshold_flag_tightens_the_gate(self, tmp_path,
                                                         capsys):
        baseline = self._results(tmp_path, 0.5, name="baseline")
        current = self._results(tmp_path, 0.7, name="current")
        assert main(["obs", "bench-diff", "--baseline", str(baseline),
                     "--results-dir", str(current)]) == 0
        capsys.readouterr()
        assert main(["obs", "bench-diff", "--baseline", str(baseline),
                     "--results-dir", str(current),
                     "--threshold-for", "mean_s=1.1"]) == 1

    def test_baseline_is_required(self, tmp_path, capsys):
        assert main(["obs", "bench-diff",
                     "--results-dir", str(tmp_path)]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_empty_results_dir_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        history = tmp_path / "history.jsonl"
        append_args = self._results(tmp_path, 0.5)
        from repro.obs.bench import append_history
        append_history(append_args, history, git_sha="s", recorded_unix=1.0)
        assert main(["obs", "bench-diff", "--baseline", str(history),
                     "--results-dir", str(empty)]) == 2
        assert "sidecars" in capsys.readouterr().err


class TestSampleProfileFlag:
    def test_flag_writes_a_parseable_profile(self, tmp_path):
        from repro.obs.profile import parse_collapsed

        out = tmp_path / "s.json"
        profile = tmp_path / "build.collapsed"
        rc = main(["build", "-n", "16", "-d", "3", "--alpha-t", "3",
                   "--alpha-r", "6", "-o", str(out),
                   "--sample-profile", str(profile), "--sample-hz", "500"])
        assert rc == 0
        assert profile.exists()
        # A fast command may catch zero samples; the file must still be
        # valid (possibly empty) collapsed-stack input.
        parse_collapsed(profile.read_text())

    def test_bad_hz_is_rejected_before_running(self, tmp_path, capsys):
        profile = tmp_path / "p.collapsed"
        rc = main(["build", "-n", "12", "-d", "2", "--alpha-t", "2",
                   "--alpha-r", "4", "-o", str(tmp_path / "s.json"),
                   "--sample-profile", str(profile), "--sample-hz", "0"])
        assert rc == 2
        assert "--sample-hz" in capsys.readouterr().err
        assert not profile.exists()
