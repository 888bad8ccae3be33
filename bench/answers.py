"""Known answers of the benchmark workloads and the checker that applies them.

The answers are written here by hand from the values the acceptance suite
pins (criteria 2, 4, 6, 7, 10 and the sweep itself).  They are never read
from the run under test.

Each checker takes an *outcome* -- ``{"exit": int | None, "stdout": str,
"error": str | None}`` for one CLI call -- and returns the list of problems
found; an empty list means the verdict matches the known answer.  An input
fails when it raised, returned an unexpected exit code, printed output that
is not a report, or has a checked field that differs from its known answer.
"""

from __future__ import annotations

import json
from fractions import Fraction

# entry -> checked fields of the qc-report JSON results.  Rationals compare
# as fractions, booleans exactly.
EXACT = {
    "heis1": {"s": "0", "einstein": True, "omega4_closed": True, "wqc_zero": True,
              "wqc_sample_1234": "0", "lemma_closed": True},
    "heis2": {"s": "0", "einstein": True, "omega4_closed": True, "wqc_zero": True,
              "wqc_sample_1234": "0", "lemma_closed": True},
    "l0c": {"s": "0", "einstein": True, "omega4_closed": True, "wqc_zero": True,
            "wqc_sample_1234": "0", "lemma_closed": True},
    "l1": {"s": "-1/2", "einstein": True, "omega4_closed": True, "wqc_zero": True,
           "wqc_sample_1234": "0", "lemma_closed": True},
    "l2": {"s": "-1/4", "einstein": True, "omega4_closed": True, "wqc_zero": False,
           "wqc_sample_1234": "-1/2", "lemma_closed": True},
    "l3": {"s": "-1", "einstein": False, "omega4_closed": False, "wqc_zero": False,
           "wqc_sample_1234": "-1/2", "lemma_closed": True},
}

# Criterion 10: the triaxial family is Einstein and an ideal exactly when its
# three constants coincide.
TRIAXIAL_EQUAL_TOL = 1e-8
TRIAXIAL_DISTINCT_MIN = 1e-3
SWEEP_CRITERIA = 14


def _report(outcome: dict, problems: list):
    """The parsed JSON report, or None with the reason added to ``problems``."""
    if outcome.get("error"):
        problems.append(f"raised {outcome['error']}")
        return None
    if outcome.get("exit") != 0:
        problems.append(f"exit code {outcome.get('exit')}, expected 0")
    try:
        return json.loads(outcome.get("stdout") or "")
    except ValueError:
        problems.append("output is not a JSON report")
        return None


def _same(have, want) -> bool:
    if isinstance(want, bool):
        return have is want
    try:
        return Fraction(have) == Fraction(want)
    except (TypeError, ValueError):
        return False


def check_exact(entry: str, outcome: dict, answers: dict = EXACT) -> list:
    problems = []
    report = _report(outcome, problems)
    if report is None:
        return problems
    results = report.get("results", {})
    for key, want in answers[entry].items():
        if not _same(results.get(key), want):
            problems.append(f"{entry}: {key} = {results.get(key)!r}, expected {want!r}")
    return problems


def _is_equal_triaxial(params: dict) -> bool:
    values = {Fraction(params.get(k, d)) for k, d in (("a1", "0"), ("a2", "1"), ("a3", "2"))}
    return len(values) == 1


def check_jet(family: str, params: dict, outcome: dict) -> list:
    problems = []
    report = _report(outcome, problems)
    if report is None:
        return problems
    results = report.get("results", {})
    verdicts = results.get("verdicts") or {}
    if not verdicts:
        problems.append(f"{family}: no verdicts")
    for name, ok in verdicts.items():
        if ok is not True:
            problems.append(f"{family}: {name} FAIL")
    if report.get("ok") is not True:
        problems.append(f"{family}: overall FAIL")
    if family == "qk-triaxial":
        dev = results.get("einstein_deviation")
        ideal = results.get("ideal_residual")
        if not isinstance(dev, float) or not isinstance(ideal, float):
            problems.append("qk-triaxial: Einstein deviation or ideal residual missing")
        elif _is_equal_triaxial(params):
            if dev >= TRIAXIAL_EQUAL_TOL or ideal >= TRIAXIAL_EQUAL_TOL:
                problems.append(f"qk-triaxial {params}: equal constants should be "
                                f"Einstein and an ideal (dev {dev:.2e}, ideal {ideal:.2e})")
        elif dev <= TRIAXIAL_DISTINCT_MIN or ideal <= TRIAXIAL_DISTINCT_MIN:
            problems.append(f"qk-triaxial {params}: distinct constants should be neither "
                            f"Einstein nor an ideal (dev {dev:.2e}, ideal {ideal:.2e})")
    return problems


def check_sweep(outcome: dict) -> list:
    problems = []
    report = _report(outcome, problems)
    if report is None:
        return problems
    criteria = report.get("results", {}).get("criteria") or []
    numbers = sorted(c.get("number") for c in criteria)
    if numbers != list(range(1, SWEEP_CRITERIA + 1)):
        problems.append(f"sweep: criteria {numbers}, expected 1..{SWEEP_CRITERIA}")
    for c in criteria:
        if c.get("ok") is not True:
            problems.append(f"sweep: criterion {c.get('number')} FAIL: {c.get('detail')}")
    return problems
