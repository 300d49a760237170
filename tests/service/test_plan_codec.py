"""One table of malformed plan documents, run at every boundary that reads
a plan: the result parser, a store read and the store scrub.  The store
cases add one edit of the entry's envelope around the plan."""

import json
import re
from fractions import Fraction

import pytest

from repro.core.planner import plan_schedule
from repro.service.api import ProvisionRequest, ProvisionResult, \
    provision_batch
from repro.service.store import ScheduleStore, plan_key

#: The class every row edits: steiner, throughput 3/55, L = 36.
SIGNATURE = (12, 2, Fraction(1, 2), False)

#: ``(edit of a plan document, pattern of the error naming the field)``.
#: Each edit applies to a store entry's ``plan`` and to a result line alike,
#: since both carry the plan's fields at their top level.
MALFORMED = [
    pytest.param(lambda p: p.update(family=7),
                 "'family' must be a string, got int", id="family-int"),
    pytest.param(lambda p: p.update(alpha_t="2"),
                 "'alpha_t' must be an integer, got str",
                 id="alpha_t-string"),
    pytest.param(lambda p: p.update(alpha_r=True),
                 "'alpha_r' must be an integer, got bool", id="alpha_r-true"),
    pytest.param(lambda p: p.update(alpha_r=0),
                 "alpha_r must be >= 1, got 0", id="alpha_r-zero"),
    pytest.param(lambda p: p.update(throughput=0.5),
                 "'throughput' must be a string, got float",
                 id="throughput-float"),
    pytest.param(lambda p: p.update(throughput="1/0"),
                 "'throughput' is not a fraction: '1/0'",
                 id="throughput-zero-denominator"),
    pytest.param(lambda p: p.update(duty_cycle=1),
                 "'duty_cycle' must be a string, got int",
                 id="duty_cycle-int"),
    pytest.param(lambda p: p.update(frame_length=p["frame_length"] + 1),
                 "'frame_length' is 37, but the embedded schedule has 36",
                 id="frame_length-plus-one"),
    pytest.param(lambda p: p.pop("alpha_r"),
                 "missing field 'alpha_r'", id="alpha_r-missing"),
    pytest.param(lambda p: p.update(note="x"),
                 r"unknown fields: \['note'\]", id="unknown-field"),
    pytest.param(lambda p: p["schedule"].update(extra=2),
                 r"schedule has unknown fields: \['extra'\]",
                 id="schedule-extra"),
]

#: The rows above as edits of a whole store entry, and one of its envelope.
ENTRY_MALFORMED = [
    pytest.param(lambda doc, edit=row.values[0]: edit(doc["plan"]),
                 row.values[1], id=row.id)
    for row in MALFORMED
] + [
    pytest.param(lambda doc: doc.update(extra=1),
                 r"cache entry has unknown fields: \['extra'\]",
                 id="entry-extra"),
]


@pytest.fixture(scope="module")
def plan():
    """The (12, 2, 1/2) winner the rows edit."""
    built = plan_schedule(12, 2, SIGNATURE[2])
    assert (built.family, built.throughput, built.frame_length) \
        == ("steiner", Fraction(3, 55), 36)
    return built


def _write_edited_entry(root, plan, edit):
    """Store *plan*'s entry under *root*, then rewrite the entry with
    *edit*, keeping it one canonical line."""
    ScheduleStore(root).put_plan(*SIGNATURE, plan)
    path = ScheduleStore(root).entry_path(plan_key(*SIGNATURE))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                    + "\n")
    return path


class TestMalformedPlan:
    @pytest.mark.parametrize("edit, match", MALFORMED)
    def test_result_parser_names_the_field(self, edit, match):
        result, = provision_batch([ProvisionRequest(12, 2, "1/2")])
        doc = result.to_dict()
        edit(doc)
        with pytest.raises(ValueError, match=match):
            ProvisionResult.from_dict(doc)

    @pytest.mark.parametrize("edit, match", ENTRY_MALFORMED)
    def test_store_read_quarantines_the_entry(self, tmp_path, plan, edit,
                                              match):
        path = _write_edited_entry(tmp_path, plan, edit)
        store = ScheduleStore(tmp_path)
        assert store.get_plan(*SIGNATURE) is None
        assert store.stats.corruptions == store.stats.misses == 1
        assert re.search(match, store.stats.last_corruption)
        assert not path.exists()
        assert (store.quarantine_dir / path.name).is_file()

    @pytest.mark.parametrize("edit, match", ENTRY_MALFORMED)
    def test_scrub_reports_the_entry(self, tmp_path, plan, edit, match):
        path = _write_edited_entry(tmp_path, plan, edit)
        report = ScheduleStore(tmp_path).scrub()
        assert not report.clean
        assert report.corrupt == report.quarantined == 1
        assert report.problems[0][0] == path.name
        assert re.search(match, report.problems[0][1])
