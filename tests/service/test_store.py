"""The persistent schedule store: keys, round trips, corruption handling."""

import errno
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.nonsleeping import mols_schedule
from repro.core.planner import GridPoint, evaluate_grid_point
from repro.service.api import ProvisionRequest, provision_batch
from repro.service.store import (
    ScheduleStore,
    default_cache_dir,
    eval_key,
    key_digest,
    plan_key,
)


@pytest.fixture
def store(tmp_path) -> ScheduleStore:
    """A store rooted in a fresh temporary directory."""
    return ScheduleStore(tmp_path / "cache")


def _some_plan(n=12, d=2, alpha_t=2, alpha_r=4):
    point = GridPoint("mols", mols_schedule(n, d), alpha_t, alpha_r)
    return evaluate_grid_point(point, d)


class TestKeys:
    def test_digest_is_canonical(self):
        a = eval_key("mols", 12, 2, 2, 4, False)
        b = dict(reversed(list(a.items())))  # same mapping, other order
        assert key_digest(a) == key_digest(b)

    def test_distinct_keys_distinct_digests(self):
        base = key_digest(eval_key("mols", 12, 2, 2, 4, False))
        assert key_digest(eval_key("mols", 12, 2, 2, 4, True)) != base
        assert key_digest(eval_key("tdma", 12, 2, 2, 4, False)) != base
        assert key_digest(plan_key(12, 2, Fraction(1, 2), False)) != base

    def test_key_stable_across_processes(self):
        """The digest must not depend on process state (hash seeds etc.)."""
        code = ("from repro.service.store import eval_key, key_digest; "
                "print(key_digest(eval_key('mols', 12, 2, 2, 4, False)))")
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}"
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == \
            key_digest(eval_key("mols", 12, 2, 2, 4, False))

    def test_default_cache_dir_honours_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro" / "schedules"


class TestRoundTrip:
    def test_miss_then_hit(self, store):
        assert store.get_eval("mols", 12, 2, 2, 4, False) is None
        assert store.stats.misses == 1
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        got = store.get_eval(plan.family, 12, 2, 2, 4, False)
        assert got == plan
        assert store.stats.memory_hits == 1

    def test_round_trip_exact_fractions(self, store):
        plan = _some_plan()
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        fresh = ScheduleStore(store.cache_dir)  # cold memory, disk only
        got = fresh.get_plan(12, 2, Fraction(1, 2), False)
        assert got is not None
        assert got.throughput == plan.throughput
        assert got.duty_cycle == plan.duty_cycle
        assert got.schedule == plan.schedule
        assert fresh.stats.disk_hits == 1

    def test_entries_are_sharded_by_digest_prefix(self, store):
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        path = store.entry_path(eval_key(plan.family, 12, 2, 2, 4, False))
        assert path.is_file()
        assert path.parent.name == path.stem[:2]

    def test_len_and_clear(self, store):
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get_eval(plan.family, 12, 2, 2, 4, False) is None


class TestEntryFormat:
    """Entries are compact canonical JSON; indented ones still load."""

    def test_new_entry_is_one_canonical_line(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        text = store.entry_path(key).read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        # The members a read accepts, and no others.
        assert set(doc) == {"format", "version", "key", "plan"}
        assert text == json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")) + "\n"
        # Same document the earlier indented layout held.
        old = json.dumps(ScheduleStore._encode(key, plan), sort_keys=True,
                         indent=1) + "\n"
        assert doc == json.loads(old)

    def test_indented_entry_from_earlier_versions_loads(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        path = store.entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(ScheduleStore._encode(key, plan),
                                   sort_keys=True, indent=1) + "\n")
        fresh = ScheduleStore(store.cache_dir)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) == plan
        assert fresh.stats.disk_hits == 1 and fresh.stats.corruptions == 0
        report = fresh.scrub()
        assert report.clean and report.scanned == 1 and report.ok == 1

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_write_leaves_no_tmp_file(self, store, monkeypatch,
                                             stage):
        """A full disk mid-write or a vanished shard at the rename: the
        caller sees the error and the shard holds no stray tmp file."""
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
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
        with pytest.raises(OSError):
            store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        monkeypatch.undo()
        assert list(store.entry_path(key).parent.iterdir()) == []
        assert store.stats.stores == 0
        assert store.get_eval(plan.family, 12, 2, 2, 4, False) is None


def _count_os_calls(monkeypatch, *names):
    """Route each named ``os`` function through a counter; returns it."""
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
    return calls


class TestWritePath:
    """An entry write makes as few system calls as it can: each one drops
    the GIL, which a serving process then waits to take back."""

    def test_write_into_an_existing_shard_makes_no_mkdir(self, store,
                                                         monkeypatch):
        plan = _some_plan()
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        calls = _count_os_calls(monkeypatch, "mkdir", "open", "write",
                                "close", "replace")
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        monkeypatch.undo()
        assert calls["mkdir"] == 0
        assert calls["open"] == calls["close"] == calls["replace"] == 1
        assert calls["write"] >= 1
        key = plan_key(12, 2, Fraction(1, 2), False)
        assert list(store.entry_path(key).parent.iterdir()) == \
            [store.entry_path(key)]

    def test_removed_shard_is_made_again(self, store):
        plan = _some_plan()
        key = plan_key(12, 2, Fraction(1, 2), False)
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        shutil.rmtree(store.entry_path(key).parent)
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        fresh = ScheduleStore(store.cache_dir)  # disk only
        assert fresh.get_plan(12, 2, Fraction(1, 2), False) == plan
        assert fresh.stats.disk_hits == 1 and store.stats.stores == 2


class TestCorruption:
    def test_corrupt_entry_is_evicted_not_fatal(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.entry_path(key).write_text("{ not json")
        fresh = ScheduleStore(store.cache_dir)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) is None
        assert fresh.stats.evictions == 1
        assert not store.entry_path(key).exists()
        # The slot is reusable after eviction.
        fresh.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) == plan

    def test_key_mismatch_is_evicted(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        other = eval_key("tdma", 12, 2, 2, 4, False)
        store.put_eval("tdma", 12, 2, 2, 4, False, plan)
        # Copy the tdma entry into the slot the mols key hashes to.
        path = store.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(store.entry_path(other).read_text())
        fresh = ScheduleStore(store.cache_dir)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) is None
        assert fresh.stats.evictions == 1

    def test_semantically_invalid_payload_is_evicted(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        doc = json.loads(store.entry_path(key).read_text())
        doc["plan"]["frame_length"] = 999  # disagrees with the slot tables
        store.entry_path(key).write_text(json.dumps(doc))
        fresh = ScheduleStore(store.cache_dir)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) is None
        assert fresh.stats.evictions == 1


class TestMemoryFront:
    def test_lru_is_bounded(self, tmp_path):
        store = ScheduleStore(tmp_path / "cache", memory_slots=2)
        plan = _some_plan()
        for alpha_r in (3, 4, 5):
            store.put_eval(plan.family, 12, 2, 2, alpha_r, False, plan)
        assert len(store._memory) == 2
        assert len(store) == 3  # disk keeps everything

    def test_disk_hit_promotes_to_memory(self, store):
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        fresh = ScheduleStore(store.cache_dir)
        fresh.get_eval(plan.family, 12, 2, 2, 4, False)
        fresh.get_eval(plan.family, 12, 2, 2, 4, False)
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 1


class TestConcurrency:
    """The store under the serve worker pool: many threads, one store."""

    def test_racing_writers_leave_a_readable_entry(self, store):
        plan = _some_plan()
        barrier = threading.Barrier(4)
        failures = []

        def writer():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert failures == []
        # Both layers agree and the payload is intact.
        assert store.get_eval(plan.family, 12, 2, 2, 4, False) == plan
        fresh = ScheduleStore(store.cache_dir)  # disk only
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) == plan

    def test_readers_race_writers_without_corruption(self, store):
        plan = _some_plan()
        stop = threading.Event()
        failures = []

        def writer():
            try:
                while not stop.is_set():
                    store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        def reader():
            try:
                for _ in range(200):
                    got = store.get_eval(plan.family, 12, 2, 2, 4, False)
                    # A reader sees either a miss (before the first write
                    # lands) or the exact plan — never a torn value.
                    assert got is None or got == plan
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=writer)] \
            + [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join(timeout=30)
        stop.set()
        threads[0].join(timeout=30)
        assert failures == []

    def test_reader_during_eviction_does_not_crash(self, store):
        """Concurrent readers of a corrupt entry: one evicts, none crash."""
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        failures = []
        results = []

        def reader(s):
            try:
                results.append(s.get_eval(plan.family, 12, 2, 2, 4, False))
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        for _ in range(10):
            store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
            store.entry_path(key).write_text("{ not json")
            fresh = ScheduleStore(store.cache_dir)  # cold memory front
            threads = [threading.Thread(target=reader, args=(fresh,))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert failures == []
        assert all(r is None for r in results)  # corrupt == miss, always

    def test_lru_trim_races_hot_gets(self, tmp_path):
        """A tiny LRU being trimmed by writers must not break readers."""
        store = ScheduleStore(tmp_path / "cache", memory_slots=2)
        plans = {alpha_r: _some_plan(alpha_r=alpha_r)
                 for alpha_r in (3, 4, 5, 6)}
        for alpha_r, plan in plans.items():
            store.put_eval(plan.family, 12, 2, 2, alpha_r, False, plan)
        failures = []

        def churn():
            try:
                for _ in range(50):
                    for alpha_r, plan in plans.items():
                        store.put_eval(plan.family, 12, 2, 2, alpha_r,
                                       False, plan)
                        got = store.get_eval(plan.family, 12, 2, 2,
                                             alpha_r, False)
                        assert got == plan
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []
        assert len(store._memory) <= 2

    def test_clear_races_lru_gets_and_puts(self, tmp_path):
        """clear() empties the LRU front under its lock, so it can never
        land between a reader's or writer's lookup and move_to_end."""

        class YieldingLRU(OrderedDict):
            # Yield the GIL mid-update to widen the window an unlocked
            # clear() would need.
            def move_to_end(self, key, last=True):
                time.sleep(0)
                super().move_to_end(key, last)

        store = ScheduleStore(tmp_path / "cache", memory_slots=2)
        store._memory = YieldingLRU()
        plans = {alpha_r: _some_plan(alpha_r=alpha_r)
                 for alpha_r in (3, 4, 5, 6)}
        barrier = threading.Barrier(4)
        done = threading.Event()
        failures = []

        def churn():
            try:
                barrier.wait(timeout=10)
                for _ in range(50):
                    for alpha_r, plan in plans.items():
                        store.put_eval(plan.family, 12, 2, 2, alpha_r,
                                       False, plan)
                        got = store.get_eval(plan.family, 12, 2, 2,
                                             alpha_r, False)
                        # A clear between the two calls makes a miss.
                        assert got is None or got == plan
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        def clearer():
            try:
                barrier.wait(timeout=10)
                while not done.is_set():
                    store.clear()
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        churners = [threading.Thread(target=churn) for _ in range(3)]
        clearing = threading.Thread(target=clearer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in [*churners, clearing]:
                t.start()
            for t in churners:
                t.join(timeout=60)
            done.set()
            clearing.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*churners, clearing])
        assert failures == []
        assert len(store._memory) <= 2


class TestPlannerIntegration:
    """Planning through a store, which only
    :func:`repro.service.api.provision_batch` does."""

    def test_warm_plan_schedule_does_zero_constructions(
            self, store, monkeypatch):
        request = ProvisionRequest(12, 2, 0.5)
        cold, = provision_batch([request], store=store)
        calls = []
        import repro.core.planner as planner_mod
        real = planner_mod.construct_detailed
        monkeypatch.setattr(planner_mod, "construct_detailed",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        warm, = provision_batch([request], store=store)
        assert calls == []
        assert warm.from_cache and store.stats.memory_hits == 1
        assert warm.plan == cold.plan

    def test_cold_plan_writes_only_its_plan_entry(self, store, monkeypatch):
        """The grid is scored in closed form: one construction, the
        winner's, and one entry, its plan; no eval entry is written."""
        import repro.core.planner as planner_mod
        real = planner_mod.construct_detailed
        calls = []
        monkeypatch.setattr(planner_mod, "construct_detailed",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)],
                                  store=store)
        assert len(calls) == 1
        assert len(store) == store.stats.stores == 1
        assert store.get_plan(12, 2, Fraction(1, 2), False) == result.plan


class TestStats:
    def test_corruption_counters_and_audit_trail(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.entry_path(key).write_text("{ not json")
        fresh = ScheduleStore(store.cache_dir)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) is None
        stats = fresh.stats
        assert stats.corruptions == 1
        assert stats.evictions == 1
        assert stats.misses == 1  # a corrupt entry still counts as a miss
        assert stats.last_corruption is not None
        assert key_digest(key)[:4] in stats.last_corruption

    def test_hits_property_sums_both_layers(self, store):
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        fresh = ScheduleStore(store.cache_dir)
        fresh.get_eval(plan.family, 12, 2, 2, 4, False)  # disk
        fresh.get_eval(plan.family, 12, 2, 2, 4, False)  # memory
        assert fresh.stats.hits == 2
        assert fresh.stats.hits == \
            fresh.stats.memory_hits + fresh.stats.disk_hits

    def test_to_dict_snapshot(self, store):
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.get_eval(plan.family, 12, 2, 2, 4, False)
        store.get_eval("tdma", 12, 2, 2, 4, False)
        doc = store.stats.to_dict()
        assert doc["stores"] == 1 and doc["hits"] == 1 and doc["misses"] == 1
        assert doc["corruptions"] == 0 and doc["last_corruption"] is None
        assert set(doc) == {"memory_hits", "disk_hits", "hits", "misses",
                            "stores", "corruptions", "evictions",
                            "last_corruption"}
        json.dumps(doc)  # the snapshot is JSON-serializable as promised


class TestQuarantine:
    """Corrupt entries are preserved for post-mortem, never silently lost."""

    def test_corrupt_load_moves_the_entry_into_quarantine(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.entry_path(key).write_text("{ not json")
        fresh = ScheduleStore(store.cache_dir)
        assert fresh.get_eval(plan.family, 12, 2, 2, 4, False) is None
        moved = fresh.quarantine_dir / store.entry_path(key).name
        assert moved.is_file()
        assert moved.read_text() == "{ not json"  # evidence intact

    def test_quarantined_files_are_not_entries(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.entry_path(key).write_text("{ not json")
        fresh = ScheduleStore(store.cache_dir)
        fresh.get_eval(plan.family, 12, 2, 2, 4, False)
        assert len(fresh) == 0          # the entry walk skips quarantine/
        assert fresh.clear() == 0       # and so does clear()
        assert fresh.quarantine_dir.exists()
        assert fresh.clear_quarantine() == 1
        assert list(fresh.quarantine_dir.glob("*.json")) == []

    def test_quarantine_also_drops_the_memory_front(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.entry_path(key).write_text("{ not json")
        # The writing store still has the plan in its LRU; a scrub must
        # purge that too, or the bad slot keeps serving from memory.
        store.scrub()
        assert store.get_eval(plan.family, 12, 2, 2, 4, False) is None


class TestScrub:
    def test_clean_store_scrubs_clean(self, store):
        plan = _some_plan()
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        report = store.scrub()
        assert report.clean
        assert report.scanned == 2 and report.ok == 2
        assert report.quarantined == 0 and report.problems == []

    def test_truncated_mid_write_entry_is_quarantined(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        path = store.entry_path(key)
        path.write_text(path.read_text()[:120])  # a torn write
        report = store.scrub()
        assert not report.clean
        assert report.corrupt == 1 and report.quarantined == 1
        assert not path.exists()
        assert (store.quarantine_dir / path.name).is_file()
        assert store.get_eval(plan.family, 12, 2, 2, 4, False) is None

    def test_valid_json_wrong_digest_is_quarantined(self, store):
        """An entry renamed to the wrong slot: valid JSON, wrong hash."""
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        other = eval_key("tdma", 12, 2, 2, 4, False)
        store.put_eval("tdma", 12, 2, 2, 4, False, plan)
        wrong = store.entry_path(key)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(store.entry_path(other).read_text())
        report = store.scrub()
        assert report.corrupt == 1 and report.ok == 1
        assert "digest" in report.problems[0][1]
        assert (store.quarantine_dir / wrong.name).is_file()

    def test_unreadable_entry_is_quarantined(self, store, monkeypatch):
        """I/O failures on read quarantine too (the file may be salvage-
        able later); driven by a fault injection because the test may
        run as root, where permission bits do not bite."""
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        bad = store.entry_path(key)
        real_read = Path.read_text

        def failing_read(self, *args, **kwargs):
            if self == bad:
                raise PermissionError(13, "Permission denied", str(self))
            return real_read(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read)
        report = store.scrub()
        assert report.unreadable == 1 and report.quarantined == 1
        assert "PermissionError" in report.problems[0][1]
        monkeypatch.undo()
        assert (store.quarantine_dir / bad.name).is_file()
        assert store.get_eval(plan.family, 12, 2, 2, 4, False) is None

    def test_scrub_counters_land_in_the_registry(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.put_plan(12, 2, Fraction(1, 2), False, plan)
        store.entry_path(key).write_text("{ not json")
        store.scrub()
        reg = store.stats.registry
        assert reg.get("repro_store_scrub_runs_total").value() == 1
        entries = reg.get("repro_store_scrub_entries_total")
        assert entries.value(result="ok") == 1
        assert entries.value(result="corrupt") == 1
        assert reg.get("repro_store_scrub_quarantined_total").value() == 1

    def test_second_scrub_is_clean(self, store):
        plan = _some_plan()
        key = eval_key(plan.family, 12, 2, 2, 4, False)
        store.put_eval(plan.family, 12, 2, 2, 4, False, plan)
        store.entry_path(key).write_text("{ not json")
        assert not store.scrub().clean
        again = store.scrub()
        assert again.clean and again.scanned == 0
