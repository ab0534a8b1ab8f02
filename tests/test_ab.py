"""`tests/ab.py` without git or the benchmark: its sign test, and `compare`
driven by a fake runner and a fake workload."""

from pathlib import Path

import ab
import pytest


def test_sign_test():
    assert ab.sign_test(60, 90) == pytest.approx(0.0176, abs=5e-5)
    assert ab.sign_test(90, 60) == ab.sign_test(60, 90)
    assert ab.sign_test(5, 5) == 1.0
    assert ab.sign_test(0, 0) == 1.0


class FakeItem:
    suffix = ".dsn"

    def __init__(self, index):
        self.id = f"item{index}"
        self.text = f"item {index}\n"
        self.path = None

    def argv(self):
        return ["solve", self.path, "--json"]


class FakeWorkload:
    @staticmethod
    def build(seed, index):
        return FakeItem(index)


class FakeRun:
    """Side "A" takes 2 s per item and side "B" 1 s; each side writes its
    own `wall_time_s`, and side B's stdout differs on item 2 only."""

    def __init__(self):
        self.calls = []

    def call(self, side, argv):
        self.calls.append((side, argv[1]))
        cost = 9 if side == "B" and Path(argv[1]).stem == "item2" else 1
        wall = 0.5 if side == "A" else 0.25
        out = f'{{\n  "cost": {cost},\n  "wall_time_s": {wall}\n}}\n'
        return 0, 2.0 if side == "A" else 1.0, out, ""


def test_compare_lists_exactly_the_item_whose_stdout_differs(tmp_path):
    run = FakeRun()
    row = ab.compare(run, ["A", "B"], FakeWorkload, 0, 4, 3, tmp_path)
    assert row["differ"] == ["item2"]
    assert row["items"] == 4
    assert row["total_ratio"] == row["median_ratio"] == 0.5
    assert (row["b_faster"], row["b_slower"]) == (4, 0)
    assert row["sign_p"] == ab.sign_test(4, 0)
    # Each item runs `repeats` times per side, the side that goes first
    # alternating per item and per repeat.
    assert len(run.calls) == 4 * 3 * 2
    firsts = [run.calls[i][0] for i in range(0, len(run.calls), 2)]
    assert firsts == ["A", "B", "A", "B", "A", "B", "A", "B", "A", "B", "A", "B"]
    assert (tmp_path / "item3.dsn").read_text() == "item 3\n"


def test_compare_reports_no_item_when_only_wall_time_differs(tmp_path):
    class SameCost(FakeRun):
        def call(self, side, argv):
            rc, elapsed, out, err = super().call(side, argv)
            return rc, elapsed, out.replace('"cost": 9', '"cost": 1'), err

    assert ab.compare(SameCost(), ["A", "B"], FakeWorkload, 0, 4, 1, tmp_path)["differ"] == []
