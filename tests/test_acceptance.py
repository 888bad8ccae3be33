"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one pass/fail line; ``qcforge sweep`` runs the same
criteria from the command line.
"""

import collections

import pytest

from qcforge import acceptance, algebra, qc
from qcforge.acceptance import CRITERIA
from qcforge.evolution import FAMILIES
from qcforge.scalars import JET_LEN, Jet


@pytest.mark.parametrize("number,title,fn", CRITERIA,
                         ids=[f"criterion_{n:02d}" for n, _, _ in CRITERIA])
def test_criterion(number, title, fn):
    ok, detail = fn()
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {title}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


NAN = float("nan")


def _nan_build(name, **kw):
    """A build whose every residual is NaN and whose other fields pass."""
    return {"ode_residuals": dict.fromkeys(FAMILIES[name].systems, NAN),
            "dform_residual": NAN, "ideal_residual": NAN, "ricci_max_abs": NAN,
            "einstein_deviation": NAN, "einstein_const": -16.0,
            "einstein_expected": -16.0, "curvature_rank": 21}


@pytest.mark.parametrize("criterion", ["criterion_8", "criterion_9", "criterion_10",
                                       "criterion_11", "criterion_12", "criterion_14"])
def test_nan_fails_the_criterion(monkeypatch, criterion):
    """A NaN is over every tolerance: builds, ODE residuals and the jets
    of the finite-difference check that return NaN fail their criterion."""
    monkeypatch.setattr(acceptance, "_build", _nan_build)
    monkeypatch.setattr(acceptance, "_FD_FUNCTIONS", dict.fromkeys(
        acceptance._FD_FUNCTIONS, lambda u: Jet((NAN,) * JET_LEN)))
    ok, detail = getattr(acceptance, criterion)()
    assert not ok, detail


def test_build_memo_keys_on_the_samples():
    """Criterion 11 builds ideal-family at its own samples; a later build at
    the default samples must not get that build back."""
    chosen = acceptance._build("ideal-family", samples=[0.0, 0.5])
    default = acceptance._build("ideal-family")
    assert chosen["samples"] == [0.0, 0.5]
    assert default["samples"] != chosen["samples"]


def _cold_caches():
    qc._REPORTS.clear()
    acceptance._BUILDS.clear()


def test_cold_sweep_parses_each_catalog_entry_once(monkeypatch):
    """Every criterion reads catalog coframes through ``qc.catalog_report``,
    so a cold sweep parses and gates each of its seven entries once."""
    _cold_caches()
    loads, parses = collections.Counter(), collections.Counter()

    def counting(counter, fn):
        def wrapped(first, *args, **kw):
            counter[first] += 1
            return fn(first, *args, **kw)
        return wrapped

    # qc.catalog counts the loads by name; algebra.parse_algebra, by source
    # text, also sees a catalog coframe loaded past the memo by any module
    monkeypatch.setattr(qc, "catalog", counting(loads, qc.catalog))
    monkeypatch.setattr(algebra, "parse_algebra", counting(parses, algebra.parse_algebra))
    acceptance.run_all()
    assert loads == dict.fromkeys(acceptance.ALL_ENTRIES + ("l0(-2/3)",), 1)
    assert sorted(parses.values()) == [1] * 7
    assert not hasattr(acceptance, "catalog")


def test_memoized_specs_survive_a_sweep_unchanged():
    """A second sweep in the same process, reading the specs and builds the
    first one memoized, gives the same results."""
    _cold_caches()
    assert acceptance.run_all() == acceptance.run_all()
