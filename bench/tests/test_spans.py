"""The tracer: self times add up, hooks are paused, absent targets are survivable."""

import sys
import time
import types

import pytest

import layers
from spans import Tracer


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_program")
    exec(
        "import time\n"
        "def leaf(x):\n"
        "    time.sleep(0.01)\n"
        "    return x\n"
        "def middle(x):\n"
        "    time.sleep(0.005)\n"
        "    return leaf(x) + leaf(x)\n"
        "def top(x):\n"
        "    return middle(x) + leaf(x)\n"
        "def check_one():\n"
        "    return True\n"
        "TABLE = [(1, 'first', check_one)]\n",
        mod.__dict__)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_times_add_up_to_the_outermost_span(fake_module):
    tracer = Tracer()
    tracer.install([("top", "fake_program", "top", None),
                    ("middle", "fake_program", "middle", None),
                    ("leaf", "fake_program", "leaf", None)])
    assert fake_module.top(1) == 3
    total = tracer.total_s["top"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.calls == {"top": 1, "middle": 1, "leaf": 3}
    assert tracer.self_s["leaf"] >= 0.03
    assert tracer.self_s["middle"] < tracer.self_s["leaf"]


def test_hooks_run_outside_every_span(fake_module):
    tracer = Tracer()

    def slow_hook(tracer, args, kwargs, result):
        time.sleep(0.05)

    tracer.install([("top", "fake_program", "top", None),
                    ("leaf", "fake_program", "leaf", slow_hook)])
    fake_module.top(1)
    assert tracer.total_s["top"] < 0.1
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["top"], rel=1e-9)


def test_absent_targets_are_reported_not_fatal(fake_module):
    tracer = Tracer()
    tracer.install([("gone", "fake_program", "removed_function", None),
                    ("gone", "no_such_module_anywhere", "f", None),
                    ("top", "fake_program", "top", None)])
    tracer.install_table("crit_{}", "fake_program", "NO_TABLE")
    tracer.count_calls("n", "fake_program", "Missing.__init__")
    assert tracer.absent == ["fake_program.removed_function", "no_such_module_anywhere.f",
                             "fake_program.NO_TABLE", "fake_program.Missing.__init__"]
    fake_module.top(1)
    assert tracer.calls["top"] == 1


def test_table_functions_and_uninstall(fake_module):
    tracer = Tracer()
    original_top = fake_module.top
    original_table = fake_module.TABLE
    tracer.install([("top", "fake_program", "top", None)])
    tracer.install_table("crit_{}", "fake_program", "TABLE")
    number, title, fn = fake_module.TABLE[0]
    assert (number, title, fn()) == (1, "first", True)
    assert tracer.calls["crit_1"] == 1
    tracer.uninstall()
    assert fake_module.top is original_top
    assert fake_module.TABLE is original_table


def test_program_targets_install_and_every_metric_is_reported():
    pytest.importorskip("qcforge.cli")
    tracer = Tracer()
    layers.install(tracer)
    try:
        from qcforge import cli
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["qc-report", "--catalog", "l1", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    out = layers.metrics(tracer, pass_s=tracer.total_s["cli.main"])
    names = [name for name, _unit, _better in layers.PER_LAYER]
    assert set(out) == set(names) - {"trace.overhead_share", "repo.src_lines"}
    assert out["trace.covered_share"] == pytest.approx(1.0)
    assert layers.self_time_sum(tracer) == pytest.approx(tracer.total_s["cli.main"], rel=1e-9)
