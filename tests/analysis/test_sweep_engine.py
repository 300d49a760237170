"""Determinism and fault regression tests for the sharded sweep engine."""

from __future__ import annotations

import errno
import hashlib
import json
import os
from collections import Counter

import pytest

import repro.analysis.sweeps as sweeps
from repro.analysis.sweeps import (
    ROW_FORMAT,
    ROW_VERSION,
    ShardTask,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    render_row,
)
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.service.runtime import STATUS_QUARANTINED, RuntimeConfig

#: A small but non-trivial grid: two families, an infeasible point
#: (13 * 3 odd for a regular topology), two traffic modes, two seeds.
SPEC = SweepSpec(families=("tdma", "polynomial"), ns=(10, 13), ds=(3,),
                 traffics=("saturated", "poisson"), seeds=(0, 1), frames=2)

#: Both queued traffics on one seed: every point shares its topology and
#: its schedule with its neighbour in the grid.
QUEUED = SweepSpec(families=("tdma", "polynomial"), ns=(10, 12), ds=(3,),
                   traffics=("poisson", "sensing"), seeds=(4,), frames=2)


class TestSpec:
    def test_expand_row_major_and_dedup(self):
        spec = SweepSpec(families=("tdma",), ns=(4, 4, 6), ds=(2,),
                         seeds=(0, 1))
        points = spec.expand()
        assert points == [
            SweepPoint("tdma", 4, 2, "saturated", 0),
            SweepPoint("tdma", 4, 2, "saturated", 1),
            SweepPoint("tdma", 6, 2, "saturated", 0),
            SweepPoint("tdma", 6, 2, "saturated", 1),
        ]

    def test_round_trip(self):
        assert SweepSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            SweepSpec.from_dict({"famlies": ["tdma"]})

    @pytest.mark.parametrize("bad", [
        {"families": ["klingon"]},
        {"traffics": ["warp"]},
        {"topology": "moebius"},
        {"ns": []},
        {"alpha_t": 4},            # alpha_r missing
        {"rate": 0.0},
        {"frames": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({**SPEC.to_dict(), **bad})

    def test_shard_key_is_content_addressed(self):
        points = tuple(SPEC.expand()[:3])
        a = ShardTask(SPEC, points)
        # an equal shard built from a parsed copy of the spec
        copy = SweepSpec.from_dict(SPEC.to_dict())
        b = ShardTask(copy, tuple(copy.expand()[:3]))
        c = ShardTask(SPEC, points[:2])
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert len(a.key()) == 64


class TestDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self):
        return SweepRunner(SPEC, shard_size=3).run()

    def test_one_row_per_point_in_grid_order(self, baseline):
        points = SPEC.expand()
        assert [row["point"] for row in baseline.rows] \
            == [p.to_dict() for p in points]
        assert baseline.complete

    def test_infeasible_points_become_error_rows(self, baseline):
        errors = [row for row in baseline.rows if "error" in row]
        assert errors, "the 13 * 3 odd regular points must be infeasible"
        assert all(row["point"]["n"] == 13 for row in errors)
        assert all("needs n*D even" in row["error"] for row in errors)
        for row in baseline.rows:
            assert row["format"] == ROW_FORMAT
            assert row["version"] == ROW_VERSION

    @pytest.mark.parametrize("jobs", [4, 8])
    def test_jobs_do_not_change_bytes(self, baseline, jobs):
        result = SweepRunner(SPEC, shard_size=3,
                             config=RuntimeConfig(jobs=jobs)).run()
        assert result.to_jsonl() == baseline.to_jsonl()

    def test_shard_size_does_not_change_bytes(self, baseline):
        result = SweepRunner(SPEC, shard_size=1).run()
        assert result.to_jsonl() == baseline.to_jsonl()

    def test_reused_inputs_do_not_change_bytes(self):
        """At shard size 1 no point is handed another's inputs."""
        rows = [SweepRunner(QUEUED, shard_size=size).run().to_jsonl()
                for size in (1, 2, 4)]
        assert rows[1] == rows[0]
        assert rows[2] == rows[0]

    @pytest.mark.parametrize("spec, topologies, schedules", [
        (QUEUED, 4, 4),
        # Seeds alternate, so only the schedule repeats point to point:
        # the topology two points back is built again.
        (SweepSpec(families=("tdma",), ns=(10,), ds=(3,),
                   traffics=("poisson", "sensing"), seeds=(4, 5),
                   frames=2), 4, 1),
    ])
    def test_a_point_reuses_the_previous_points_inputs(
            self, monkeypatch, spec, topologies, schedules):
        builds = Counter()
        for name in ("_build_topology", "_build_schedule"):
            def counted(spec, point, build=getattr(sweeps, name), name=name):
                builds[name] += 1
                return build(spec, point)
            monkeypatch.setattr(sweeps, name, counted)
        SweepRunner(spec, shard_size=4).run()
        assert builds == {"_build_topology": topologies,
                          "_build_schedule": schedules}

    def test_rows_render_canonically(self, baseline):
        for row in baseline.rows:
            assert render_row(row) == json.dumps(
                row, sort_keys=True, separators=(",", ":"))


def _first_row(edit):
    """A checkpoint tamper that applies *edit* to the first row."""
    def tamper(text):
        lines = text.splitlines()
        row = json.loads(lines[0])
        edit(row)
        return "\n".join([render_row(row)] + lines[1:]) + "\n"
    return tamper


class TestCheckpointResume:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            SweepRunner(SPEC, resume=True)

    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        clean = SweepRunner(SPEC, shard_size=3).run()
        # "Kill" the sweep mid-run: one shard's every attempt crashes, so
        # its checkpoint is never written while the others complete.
        victim = clean.shard_digests[2]
        faults = FaultPlan(targeted_worker_faults=(
            (victim, ("crash",) * 8),))
        ckpt = tmp_path / "ckpt"
        killed = SweepRunner(SPEC, shard_size=3,
                             checkpoint_dir=ckpt,
                             config=RuntimeConfig(max_retries=0),
                             faults=faults).run()
        assert not killed.complete
        written = {p.stem for p in ckpt.glob("*.jsonl")}
        assert victim not in written
        assert written == set(clean.shard_digests) - {victim}
        # The crashed shard degraded to deterministic error rows...
        dead_rows = [r for r in killed.rows if "shard failed" in
                     r.get("error", "")]
        assert len(dead_rows) == 3
        # ...and a resume recomputes only the missing shard, yielding
        # bytes identical to the never-killed run.
        resumed = SweepRunner(SPEC, shard_size=3, checkpoint_dir=ckpt,
                              resume=True,
                              config=RuntimeConfig(jobs=2)).run()
        assert resumed.resumed_shards == len(clean.shard_digests) - 1
        assert resumed.to_jsonl() == clean.to_jsonl()

    @pytest.mark.parametrize("tamper", [
        pytest.param(lambda text: "not json\n", id="unparseable"),
        # Rows that parse and keep their header and point, but break
        # the row schema.
        pytest.param(_first_row(lambda row: row.pop("metrics")),
                     id="no-metrics"),
        pytest.param(_first_row(lambda row: row["metrics"].update(
            slots="garbage")), id="garbage-slots"),
    ])
    def test_corrupt_checkpoint_is_recomputed(self, tmp_path, tamper):
        ckpt = tmp_path / "ckpt"
        first = SweepRunner(SPEC, shard_size=3,
                            checkpoint_dir=ckpt).run()
        victim = ckpt / f"{first.shard_digests[0]}.jsonl"
        tampered = tamper(victim.read_text())
        victim.write_text(tampered)
        second = SweepRunner(SPEC, shard_size=3,
                             checkpoint_dir=ckpt, resume=True).run()
        assert second.resumed_shards == len(first.shard_digests) - 1
        assert second.to_jsonl() == first.to_jsonl()
        # The recompute healed the checkpoint on disk.
        assert victim.read_text() != tampered

    def test_wrong_point_count_checkpoint_is_recomputed(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = SweepRunner(SPEC, shard_size=3,
                            checkpoint_dir=ckpt).run()
        victim = ckpt / f"{first.shard_digests[1]}.jsonl"
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines[:-1]) + "\n")
        second = SweepRunner(SPEC, shard_size=3,
                             checkpoint_dir=ckpt, resume=True).run()
        assert second.resumed_shards == len(first.shard_digests) - 1
        assert second.to_jsonl() == first.to_jsonl()

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_write_leaves_no_tmp_file(self, tmp_path, monkeypatch,
                                             stage):
        """A full disk mid-write or a failed rename: the sweep fails with
        the error and the checkpoint directory holds no stray tmp file."""
        if stage == "write":
            real_write = os.write

            def full_disk(fd, data):
                real_write(fd, data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(os, "write", full_disk)
        else:
            def vanished(src, dst):
                raise FileNotFoundError(errno.ENOENT, "No such file or "
                                        "directory", str(dst))

            monkeypatch.setattr(os, "replace", vanished)
        ckpt = tmp_path / "ckpt"
        with pytest.raises(OSError):
            SweepRunner(SPEC, shard_size=3,
                        checkpoint_dir=ckpt).run()
        monkeypatch.undo()
        assert list(ckpt.iterdir()) == []


class TestQuarantine:
    def test_crashing_shard_leaves_others_intact(self):
        config = RuntimeConfig(jobs=2, max_retries=8)
        clean = SweepRunner(SPEC, shard_size=3, config=config).run()
        victim = clean.shard_digests[1]
        faults = FaultPlan(targeted_worker_faults=(
            (victim, ("crash",) * 10),))
        chaotic = SweepRunner(SPEC, shard_size=3, config=config,
                              faults=faults,
                              registry=MetricsRegistry()).run()
        report = chaotic.reports[victim]
        assert report.status == STATUS_QUARANTINED
        assert not chaotic.complete
        # Every other shard's rows are byte-for-byte those of the clean
        # run; only the quarantined shard's points degraded.
        for clean_row, row in zip(clean.rows, chaotic.rows):
            if "shard quarantined" in row.get("error", ""):
                assert row["point"] in [p.to_dict() for p in SPEC.expand()]
            else:
                assert render_row(row) == render_row(clean_row)
        degraded = [r for r in chaotic.rows
                    if "shard quarantined" in r.get("error", "")]
        assert len(degraded) == 3


class TestGolden:
    """SHA-256 of the merged rows of a saturated Figure 2 sweep over
    every family the benchmark sweeps, recorded before the kernel's
    collision counting was rewritten: per-link success counts,
    collisions and energy must stay byte-identical whatever computes
    them."""

    SPEC = SweepSpec(families=("tdma", "polynomial", "projective", "mols"),
                     ns=(36, 64), ds=(2, 4), traffics=("saturated",),
                     seeds=(2007,), frames=3, alpha_t=2, alpha_r=6)
    DIGEST = "631532a4203913aded6844e52108f3253db807fa561723c3c699937204761475"

    def test_saturated_construction_rows(self):
        result = SweepRunner(self.SPEC, shard_size=16).run()
        assert len(result.rows) == 16
        # Theorem 2's guarantee: every link succeeds at least once a frame.
        assert all(row["metrics"]["min_link_throughput"] >= 1
                   for row in result.rows)
        text = "".join(render_row(row) + "\n" for row in result.rows)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST

    #: Queued traffic (Poisson and sensing) on the bare substrates and on
    #: their Figure 2 constructions, where nodes sleep and wake: digests
    #: recorded before the scalar slot step was rewritten.
    QUEUED_AXES = dict(families=("polynomial", "projective", "mols"),
                       traffics=("poisson", "sensing"), seeds=(2007,),
                       rate=0.02, period=50)
    QUEUED = {
        "bare": (SweepSpec(ns=(36, 64), ds=(2, 4), frames=6, **QUEUED_AXES),
                 "b2cea93ee4c47fbc4a6ff0a60487f5f3c466fec8501656867ee5a8ec20163cea"),
        "construction": (
            SweepSpec(ns=(36,), ds=(2, 4), frames=2, alpha_t=2, alpha_r=6,
                      **QUEUED_AXES),
            "778f8d235a71dd790622e1e288939eed2fdb6829b742c62e86cc2972f1b79331"),
    }

    @pytest.mark.parametrize("name", sorted(QUEUED))
    def test_queued_rows(self, name):
        spec, digest = self.QUEUED[name]
        result = SweepRunner(spec, shard_size=64).run()
        assert len(result.rows) == len(spec.expand())
        assert not [row for row in result.rows if "error" in row]
        # Multi-hop sensing reports are forwarded and delivered.
        assert all(row["metrics"]["delivery_ratio"] > 0
                   for row in result.rows)
        text = "".join(render_row(row) + "\n" for row in result.rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    #: The scenarios no digest above reaches: the grid at n = 16, the
    #: star, the random tree and the unit disk, the Steiner family at
    #: D = 2, and all three traffic patterns on each shape.  Error rows
    #: (a grid outside N_16^2, Steiner at D = 4) are pinned with the rest.
    SCENARIO_AXES = dict(families=("tdma", "steiner", "mols"), ns=(16,),
                         ds=(2, 4), traffics=("saturated", "poisson",
                                              "sensing"),
                         seeds=(11,), frames=2, rate=0.05, period=20)
    SCENARIOS = {
        "grid": "41b912f253b30c38a8d03796bd19460ebef7faa06dedb72760812593ab8d183c",
        "star": "0bf6ee730a91cbe12b25eb117e50838754abc5420a12bee20911749dcfdd8168",
        "tree": "0f1ccd1bf0affa2bad616d75529199ae460207f63d65bedb064093223d14b799",
        "unit-disk":
            "c08b05ae91e66c60f3ef1ad7e5fd6ef3b4cf48001ff247c57fb48f749d82cf19",
    }

    @pytest.mark.parametrize("shape", sorted(SCENARIOS))
    def test_scenario_rows(self, shape):
        spec = SweepSpec(topology=shape, **self.SCENARIO_AXES)
        result = SweepRunner(spec, shard_size=64).run()
        assert len(result.rows) == 18
        simulated = {(row["point"]["family"], row["point"]["d"],
                      row["point"]["traffic"])
                     for row in result.rows if "metrics" in row}
        assert {t for _f, _d, t in simulated} == set(spec.traffics)
        if shape != "grid":
            assert {("steiner", 2, t) for t in spec.traffics} <= simulated
        text = "".join(render_row(row) + "\n" for row in result.rows)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.SCENARIOS[shape]
