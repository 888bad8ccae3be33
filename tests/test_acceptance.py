"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one pass/fail line; ``qcforge sweep`` runs the same
criteria from the command line.
"""

import collections

import pytest

from qcforge import acceptance, algebra, evolution, qc
from qcforge.acceptance import CRITERIA
from qcforge.evolution import FAMILIES
from qcforge.riemann import CoframeWithJets, cartan_connection
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


def _bits(x: float) -> str:
    return float(x).hex()


def test_the_structure_batch_is_the_largest_per_sample_residual():
    """Criterion 14's one Cartan solve over spin7-l1's default samples reads
    the largest residual of the per-sample solves it replaced, bit for bit."""
    fam = FAMILIES["spin7-l1"]
    funcs, l1 = fam.functions(), qc.catalog_report("l1").spec.algebra
    per_sample = []
    for x in fam.default_samples():  # the loop the batch replaced
        u = Jet.variable(x)
        fj, hj, wj = (funcs[k](u) for k in ("f", "h", "w"))
        cof = CoframeWithJets(l1, [fj.sqrt()] * 4 + [hj] * 3, wj)
        per_sample.append(cartan_connection(cof).structure_residual)
    assert len(per_sample) == 5 and max(per_sample) > 0.0
    assert _bits(acceptance._structure_residual(fam.default_samples())) == _bits(max(per_sample))


def test_the_structure_batch_solves_the_build_coframe(monkeypatch):
    """Criterion 14 solves the coframe a spin7-l1 build solves, made by
    ``evolution._coframe`` from the jets of one evaluation."""
    made, coframe = [], evolution._coframe
    monkeypatch.setattr(evolution, "_coframe", lambda *args: made.append(args) or coframe(*args))
    samples = FAMILIES["spin7-l1"].default_samples()
    acceptance._structure_residual(samples)
    (spec, f, hs, w), = made
    assert spec is qc.catalog_report("l1").spec and hs[0] is hs[1] is hs[2]
    assert f.value.tolist() == samples


def test_a_failing_structure_batch_names_each_failing_sample(monkeypatch):
    samples = FAMILIES["spin7-l1"].default_samples()
    worst = max(samples, key=lambda x: acceptance._structure_residual([x]))
    monkeypatch.setattr(acceptance, "TOL_STRUCTURE", acceptance._structure_residual([worst]))
    ok, detail = acceptance.criterion_14()
    failing = [x for x in samples if acceptance._structure_residual([x]) >= acceptance.TOL_STRUCTURE]
    assert not ok and detail == "; ".join(f"connection solver residual at x={x}" for x in failing)


def test_the_finite_difference_batch_equals_the_scalar_jets():
    """Each function's one jet over its 9 points gives the central
    differences and jet derivatives of the 36 scalar evaluations it
    replaced, bit for bit, in the same order."""
    step, want = 1e-5, []
    for text, fn in acceptance._FD_FUNCTIONS.items():  # the loop the batch replaced
        for x in (0.7, 1.3, 2.1):
            base, plus, minus = (fn(Jet.variable(p)) for p in (x, x + step, x - step))
            for k in (1, 2):
                want.append((text, x, k, _bits((plus.c[k - 1] - minus.c[k - 1]) / (2 * step)),
                             _bits(base.c[k])))
    got = [(text, x, k, _bits(fd), _bits(d)) for text, x, k, fd, d in acceptance._fd_checks()]
    assert len(got) == 24 and got == want
