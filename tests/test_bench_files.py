"""Every BENCH_*.json at the repository root records how it was produced,
on which machine, what it claims, and the medians of both sides for each
workload."""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _median(side):
    """A side's median: a number, or the "median" of a quartile record."""
    return side["median"] if isinstance(side, dict) else side


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_records(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc["command"], str) and doc["command"]
    assert isinstance(doc["claim"], str) and doc["claim"]
    assert isinstance(doc["machine"]["nproc"], int) and doc["machine"]["nproc"] > 0
    assert isinstance(doc["machine"]["numpy"], str) and doc["machine"]["numpy"]
    assert doc["workloads"]
    for name, workload in doc["workloads"].items():
        assert workload["metrics"], name
        for metric, record in workload["metrics"].items():
            for side in ("parent", "change"):
                assert isinstance(_median(record[side]), numbers.Real), (name, metric, side)
