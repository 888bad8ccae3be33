"""``tools/plan_times.py`` times every cached plan builder of the jet path."""

import importlib.util
from pathlib import Path

from qcforge import evolution, jetforms, riemann

_PATH = Path(__file__).parents[1] / "tools" / "plan_times.py"
_SPEC = importlib.util.spec_from_file_location("plan_times", _PATH)
plan_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(plan_times)

BUILDERS = {"riemann._dhat_plan", "riemann._gamma_plan", "riemann._curvature_plan",
            "riemann._ricci_plan", "riemann._block_layout", "jetforms._slots_of",
            "jetforms._wedge_plan", "jetforms._three_form_rows", "jetforms._ideal_plan",
            "jetforms._d_plan"}


def test_one_family_lists_every_builder(capsys):
    """One qk-heis build, cold, builds plans in every builder, the ideal
    plan that evolution imports by name among them, and each is listed."""
    stats, spent = plan_times.measure("jet", 1, ["qk-heis"])
    assert set(stats) == BUILDERS
    assert all(misses > 0 for misses, _ in stats.values()), stats
    assert 0 < sum(seconds for _, seconds in stats.values()) < spent
    # the builders are restored
    assert evolution._ideal_plan is jetforms._ideal_plan
    assert riemann._block_layout.__wrapped__.__module__ == "qcforge.riemann"
    assert plan_times.main(["--workload", "jet", "--family", "qk-heis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines[1:-1]} == BUILDERS
    assert lines[-1].startswith("plans ")
