"""The summary of ``tools/bench_pairs.py`` on canned pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [0.121, 0.131, 0.128, 0.125, 0.127, 0.130, 0.124, 0.126, 0.129, 0.123]
BOUND = 0.05  # the parent's interquartile range is 0.0045, 3.6% of its median


def test_a_gain_holds_with_nine_wins_past_the_parents_spread():
    change = [x - 0.009 for x in PARENT[:9]] + [PARENT[9] + 0.001]
    s = bench_pairs.summarize(PARENT, change, "lower", BOUND)
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((0.12425, 0.1265, 0.12875))
    assert s["holds"]


@pytest.mark.parametrize("change,wins,why", [
    ([x - 0.009 for x in PARENT[:8]] + [PARENT[8] + 0.001, PARENT[9]], 8, "eight wins"),
    ([x - 0.004 for x in PARENT], 10, "median moves less than the parent's IQR"),
    ([x + 0.009 for x in PARENT], 0, "worse"),
], ids=["eight-wins", "within-iqr", "worse"])
def test_a_gain_does_not_hold(change, wins, why):
    s = bench_pairs.summarize(PARENT, change, "lower", BOUND)
    assert s["wins"] == wins
    assert not s["holds"], why


def test_higher_is_better_and_ties_count_for_neither():
    s = bench_pairs.summarize([1.0] * 10, [1.0] * 10, "higher", 0.02)
    assert s["wins"] == 0 and not s["holds"]
    s = bench_pairs.summarize([1.0] * 10, [2.0] * 10, "higher", 0.02)
    assert s["wins"] == 10 and s["holds"]
    assert s["change"] == (2.0, 2.0, 2.0)


def test_one_pair_reads_its_value_as_every_quartile():
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_a_change_past_the_bound_in_the_worse_direction_is_worse():
    # +0.009 is 7.1% of the parent's median, past the 5% bound; +0.006 is
    # past the parent's spread but within the bound
    s = bench_pairs.summarize(PARENT, [x + 0.009 for x in PARENT], "lower", BOUND)
    assert s["worse"] and not s["holds"] and not s["unresolved"]
    assert not bench_pairs.summarize(PARENT, [x + 0.006 for x in PARENT], "lower", BOUND)["worse"]
    assert not bench_pairs.summarize(PARENT, [x - 0.009 for x in PARENT], "lower", BOUND)["worse"]
    assert bench_pairs.summarize([1.0] * 10, [0.97] * 10, "higher", 0.02)["worse"]
    assert not bench_pairs.summarize([1.0] * 10, [0.99] * 10, "higher", 0.02)["worse"]


@pytest.mark.parametrize("parent,shift,bound", [
    ([0.3346 + 0.0005 * (i % 3) for i in range(10)], 0.008, 0.25),
    ([0.1148 + 0.0004 * (i % 4) for i in range(10)], 0.009, 0.25),
], ids=["setup-plus-0.8pct", "pass-plus-0.9pct"])
def test_a_change_past_the_spread_but_within_the_bound_is_not_worse(parent, shift, bound):
    # a slowdown of under 1% with every change run slower than every parent
    # run: past the parent's interquartile range, far within the bound
    change = [x * (1 + shift) for x in parent]
    s = bench_pairs.summarize(parent, change, "lower", bound)
    assert s["wins"] == 0 and s["change"][1] - s["parent"][1] > s["parent"][2] - s["parent"][0]
    assert not s["worse"] and not s["unresolved"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles lie 0.02 apart on a median of 0.2: 10% > 5%
    parent = [0.18, 0.22, 0.19, 0.21, 0.2, 0.18, 0.22, 0.19, 0.21, 0.2]
    s = bench_pairs.summarize(parent, parent, "lower", BOUND)
    assert s["unresolved"] and not s["worse"]
    # unless every run of the change reads better than every run of the parent
    s = bench_pairs.summarize(parent, [x - 0.05 for x in parent], "lower", BOUND)
    assert not s["unresolved"] and s["holds"]
    assert bench_pairs.summarize(parent, parent, "lower", 0.25)["unresolved"] is False


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
        '{"end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.05},'
        ' {"name": "ok_share", "better": "higher", "bound": 0.02}]}')

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


def test_the_exit_code_refuses_an_unresolved_metric(tmp_path, monkeypatch, capsys):
    """Canned runs whose parent pass_s spreads by 10% of its median against
    a 5% bound, and a change that reads the same."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.05}]}')
    spread = [0.18, 0.22, 0.19, 0.21, 0.2, 0.18, 0.22, 0.19, 0.21, 0.2]

    def canned(root, workload, seconds, seed):
        return {"correct": True, "metrics": {"pass_s": {"value": spread[seed - 1]}}}

    monkeypatch.setattr(bench_pairs, "run_bench", canned)
    argv = [str(parent), str(change), "--workload", "sweep", "--seconds", "1"]
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "UNRESOLVED" in out and "WORSE" not in out and "not accepted: pass_s" in out
