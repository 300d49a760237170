"""Schedule serialization round trips and validation."""

import hashlib
import json

import pytest
from hypothesis import given, settings

from repro.core.nonsleeping import polynomial_schedule
from repro.core.planner import plan_schedule
from repro.core.serialization import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from tests.conftest import random_schedule_strategy


class TestRoundTrip:
    def test_dict_roundtrip(self):
        s = polynomial_schedule(9, 2, q=3, k=1)
        assert schedule_from_dict(schedule_to_dict(s)) == s

    def test_file_roundtrip(self, tmp_path):
        s = polynomial_schedule(9, 2, q=3, k=1)
        path = tmp_path / "schedule.json"
        save_schedule(s, path, meta={"n": 9, "D": 2, "family": "polynomial"})
        assert load_schedule(path) == s
        doc = json.loads(path.read_text())
        assert doc["meta"]["family"] == "polynomial"

    @given(sched=random_schedule_strategy(max_n=6, max_len=6))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, sched):
        assert schedule_from_dict(schedule_to_dict(sched)) == sched

    def test_json_is_plain_lists(self):
        s = polynomial_schedule(9, 2, q=3, k=1)
        doc = schedule_to_dict(s)
        assert all(isinstance(slot, list) for slot in doc["tx"])
        json.dumps(doc)  # must be JSON-serializable as-is


class TestValidation:
    def test_wrong_format_tag(self):
        with pytest.raises(ValueError, match="not a repro-schedule"):
            schedule_from_dict({"format": "other", "version": 1})

    def test_wrong_version(self):
        doc = schedule_to_dict(polynomial_schedule(9, 2, q=3, k=1))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            schedule_from_dict(doc)

    def test_not_a_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            schedule_from_dict([1, 2, 3])  # type: ignore[arg-type]

    def test_invalid_payload_caught_by_schedule_validation(self):
        doc = schedule_to_dict(polynomial_schedule(9, 2, q=3, k=1))
        doc["tx"][0] = [0]
        doc["rx"][0] = [0]  # overlap: Schedule must reject
        with pytest.raises(ValueError, match="intersect"):
            schedule_from_dict(doc)

    def test_missing_arrays(self):
        with pytest.raises(ValueError, match="lists"):
            schedule_from_dict({"format": "repro-schedule", "version": 1,
                                "n": 3, "tx": [[0]]})


class TestTopologySerialization:
    def test_roundtrip(self):
        from repro.core.serialization import topology_from_dict, topology_to_dict
        from repro.simulation.topology import grid

        t = grid(3, 4)
        assert topology_from_dict(topology_to_dict(t)) == t

    def test_json_compatible(self):
        from repro.core.serialization import topology_to_dict
        from repro.simulation.topology import ring

        json.dumps(topology_to_dict(ring(5)))

    def test_validation(self):
        from repro.core.serialization import topology_from_dict

        with pytest.raises(ValueError, match="repro-topology"):
            topology_from_dict({"format": "other"})
        with pytest.raises(ValueError, match="version"):
            topology_from_dict({"format": "repro-topology", "version": 9})


class TestFamilySerialization:
    def test_roundtrip(self):
        from repro.combinatorics.coverfree import CoverFreeFamily
        from repro.core.serialization import family_from_dict, family_to_dict

        fam = CoverFreeFamily.from_polynomial_code(3, 1, count=7)
        restored = family_from_dict(family_to_dict(fam))
        assert restored == fam
        json.dumps(family_to_dict(fam))

    def test_validation(self):
        from repro.core.serialization import family_from_dict

        with pytest.raises(ValueError, match="repro-coverfree"):
            family_from_dict([])
        with pytest.raises(ValueError, match="blocks"):
            family_from_dict({"format": "repro-coverfree", "version": 1,
                              "ground": 3, "blocks": "oops"})


def _canonical_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGoldenDigests:
    """SHA-256 of canonical documents, recorded before the mask unpack
    and the construction loop were rewritten: any byte a schedule or
    family document changes fails here."""

    # (n, D, max_duty, balanced) -> (winning family, frame length, digest)
    PLANS = {
        (9, 3, "1/2", False): (
            "tdma", 27,
            "2ef760370b41b6c7702245176bd5113b116b628d70ad7aae840470fa8aad3e28"),
        (9, 2, "3/5", False): (
            "polynomial", 36,
            "733ddd6bc5fc33b5ca9e05bca49fe703873fa5d95e9b89d34a51873b8f287fc8"),
        (12, 2, "1/2", False): (
            "steiner", 36,
            "2dee77b0fe46803b6f5f53b0d69fc3ba8ca31c94db344e0e45b873914b880734"),
        (20, 4, "3/5", False): (
            "projective", 84,
            "f5a7e52cd5fc4b780514814e1d6e75ccebb0e6c9b6f94a9a6c10a1efb10e5ddb"),
        (15, 4, "1/2", False): (
            "mols", 120,
            "c3179082d0b7b89feb5c1c6eb01e7ad6aa034b898f9f35ca75a1941d935a654e"),
        (16, 3, "1/2", True): (
            "polynomial", 768,
            "a90089cecee65bdf1933f1ca16937145ac4dd1222526b8b9d0aad649ea669753"),
    }

    @pytest.mark.parametrize("n, d, duty, balanced", sorted(PLANS))
    def test_planned_schedule_documents(self, n, d, duty, balanced):
        family, frame_length, digest = self.PLANS[(n, d, duty, balanced)]
        plan = plan_schedule(n, d, duty, balanced=balanced)
        assert (plan.family, plan.frame_length) == (family, frame_length)
        assert _canonical_digest(schedule_to_dict(plan.schedule)) == digest

    def test_family_documents(self):
        from repro.combinatorics.coverfree import CoverFreeFamily
        from repro.core.serialization import family_to_dict

        families = [
            (CoverFreeFamily.from_polynomial_code(5, 1),
             "cce5137899961c4960abf3ecc28577ae3618b2315f5f918ec562884582a620da"),
            (CoverFreeFamily.from_steiner_triple_system(9),
             "0fba79264c572f2a32a405376dc6cbadcb64061433d00fef1ae450d5ea4bbf2e"),
            (CoverFreeFamily.from_projective_plane(3),
             "1363dcabb6d147481a246a25437846f3cb2e9564aa22d1e96d43bfb665e73115"),
        ]
        for family, digest in families:
            assert _canonical_digest(family_to_dict(family)) == digest
