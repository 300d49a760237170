"""SHA-256 pins of ``repro provision``'s output bytes.

The digests were recorded before provisioning stopped running its
winner constructions through the fault-tolerant runtime: any byte a
result line changes, in any of the four ways the command is run here,
fails this file.

The batch mixes what the command must get right together: exact and
float duplicates of one request, two budgets that share one winner, a
balanced division and a budget no schedule fits (exit code 1).
"""

import hashlib

import pytest

from repro.cli import main

REQUESTS = "\n".join([
    '{"n": 12, "d": 2, "max_duty": "1/2"}',
    '{"n": 15, "d": 2, "max_duty": 0.4}',
    '{"n": 12, "d": 2, "max_duty": 0.5}',
    '{"n": 12, "d": 2, "max_duty": "13/24"}',
    '{"n": 16, "d": 3, "max_duty": 0.5, "balanced": true}',
    '{"n": 15, "d": 2, "max_duty": 0.05}',
    '{"n": 12, "d": 2, "max_duty": "1/2"}',
]) + "\n"

#: run -> SHA-256 of the JSONL the run writes.
DIGESTS = {
    "no-cache":
        "b6ac295edd347c7506c067aad83af11d151ee3556be869633f4bde44c3f87574",
    "cold":
        "b6ac295edd347c7506c067aad83af11d151ee3556be869633f4bde44c3f87574",
    "warm":
        "b7c2c064450357c9f52986e5238c3fe2c236a6de8fc4bd46a88845cd444e60d4",
    "no-schedules":
        "9bb67c6d72345e6a1118406195698391e7c7883c9f7505ada77e9ff46d93f94c",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def run(tmp_path, capsys):
    """``repro provision`` on the batch: ``run(name, *flags)`` returns
    the SHA-256 of its output file and checks the exit code."""
    requests = tmp_path / "requests.jsonl"
    requests.write_text(REQUESTS)

    def _run(name, *flags):
        out = tmp_path / f"{name}.jsonl"
        rc = main(["provision", "-i", str(requests), "-o", str(out), *flags])
        capsys.readouterr()
        assert rc == 1  # the infeasible budget
        return _digest(out)

    return _run


def test_uncached_output_is_pinned(run):
    assert run("no-cache", "--no-cache") == DIGESTS["no-cache"]


def test_cold_then_warm_output_is_pinned(run, tmp_path):
    cache = str(tmp_path / "cache")
    assert run("cold", "--cache-dir", cache) == DIGESTS["cold"]
    assert run("warm", "--cache-dir", cache) == DIGESTS["warm"]


def test_schedule_free_output_is_pinned(run):
    assert (run("no-schedules", "--no-cache", "--no-schedules")
            == DIGESTS["no-schedules"])
