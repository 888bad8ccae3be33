"""The summary of ``tools/bench_pairs.py`` on canned pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [0.121, 0.131, 0.128, 0.125, 0.127, 0.130, 0.124, 0.126, 0.129, 0.123]


def test_a_gain_holds_with_nine_wins_past_the_parents_spread():
    change = [x - 0.009 for x in PARENT[:9]] + [PARENT[9] + 0.001]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((0.12425, 0.1265, 0.12875))
    assert s["holds"]


@pytest.mark.parametrize("change,wins,why", [
    ([x - 0.009 for x in PARENT[:8]] + [PARENT[8] + 0.001, PARENT[9]], 8, "eight wins"),
    ([x - 0.004 for x in PARENT], 10, "median moves less than the parent's IQR"),
    ([x + 0.009 for x in PARENT], 0, "worse"),
], ids=["eight-wins", "within-iqr", "worse"])
def test_a_gain_does_not_hold(change, wins, why):
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == wins
    assert not s["holds"], why


def test_higher_is_better_and_ties_count_for_neither():
    s = bench_pairs.summarize([1.0] * 10, [1.0] * 10, "higher")
    assert s["wins"] == 0 and not s["holds"]
    s = bench_pairs.summarize([1.0] * 10, [2.0] * 10, "higher")
    assert s["wins"] == 10 and s["holds"]
    assert s["change"] == (2.0, 2.0, 2.0)


def test_one_pair_reads_its_value_as_every_quartile():
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_a_change_past_the_parents_spread_in_the_worse_direction_is_worse():
    s = bench_pairs.summarize(PARENT, [x + 0.009 for x in PARENT], "lower")
    assert s["worse"] and not s["holds"]
    assert not bench_pairs.summarize(PARENT, [x + 0.004 for x in PARENT], "lower")["worse"]
    assert not bench_pairs.summarize(PARENT, [x - 0.009 for x in PARENT], "lower")["worse"]
    assert bench_pairs.summarize([1.0] * 10, [0.9] * 10, "higher")["worse"]


@pytest.mark.parametrize("shift,claim,code", [
    (-0.009, "pass_s", 0),
    (0.0, None, 0),
    (0.009, None, 1),
    (-0.004, "pass_s", 1),
], ids=["gain-holds", "no-claim-no-change", "worse", "claimed-gain-within-iqr"])
def test_the_exit_code_refuses_a_worse_metric_or_a_claimed_gain_that_fails(
        tmp_path, monkeypatch, capsys, shift, claim, code):
    """Canned runs in place of the benchmark: the change's pass_s is the
    parent's shifted, and ok_share stays 1."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_s", "better": "lower"},'
        ' {"name": "ok_share", "better": "higher"}]}')

    def canned(root, workload, seconds, seed):
        value = PARENT[seed - 1] + (shift if root == change else 0.0)
        return {"correct": True, "metrics": {"pass_s": {"value": value},
                                             "ok_share": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_bench", canned)
    argv = [str(parent), str(change), "--workload", "exact", "--seconds", "1"]
    assert bench_pairs.main(argv + (["--claim", claim] if claim else [])) == code
    out = capsys.readouterr().out
    assert ("WORSE" in out) == (shift > 0)
    assert ("not accepted" in out) == bool(code)
