"""The known-answer checker cannot pass vacuously."""

import json
import types

import pytest

import answers
import child
import inputs
import run

cli = pytest.importorskip("qcforge.cli")


def _l1_outcome(tmp_path):
    path = tmp_path / "l1.alg"
    path.write_text(inputs.exact_inputs(1)[inputs.ENTRIES.index("l1")][1])
    return child._run_input(cli, inputs.exact_argv(str(path)))


def test_right_answer_passes(tmp_path):
    assert answers.check_exact("l1", _l1_outcome(tmp_path)) == []


def test_wrong_expectation_is_a_failure(tmp_path):
    wrong = dict(answers.EXACT, l1=dict(answers.EXACT["l1"], s="-1/4"))
    problems = answers.check_exact("l1", _l1_outcome(tmp_path), wrong)
    assert problems and "s =" in problems[0]


def test_raising_input_is_a_failure():
    def main(argv):
        raise ValueError("broken input")

    outcome = child._run_input(types.SimpleNamespace(main=main), ["qc-report"])
    assert outcome["error"] == "ValueError: broken input"
    assert answers.check_exact("l1", outcome)
    assert answers.check_jet("qk-heis", {}, outcome)
    assert answers.check_sweep(outcome)


def test_bad_quaternion_relations_fail_whatever_the_cli_does(tmp_path):
    # broken omega3: the CLI either raises or exits non-zero; both fail
    text = inputs.coframe_text("l1", {a: a for a in range(1, 8)})
    text = text.replace("omega3 = e1^e4 + e2^e3", "omega3 = e1^e4 - e2^e3")
    path = tmp_path / "bad.alg"
    path.write_text(text)
    outcome = child._run_input(cli, inputs.exact_argv(str(path)))
    assert answers.check_exact("l1", outcome)


def test_tally_counts_every_failure(tmp_path):
    good = _l1_outcome(tmp_path)
    raised = {"exit": None, "stdout": "", "error": "RuntimeError: boom"}
    wrong = dict(answers.EXACT["l1"], s="-1/4")
    checks = {
        "ok": lambda o: answers.check_exact("l1", o),
        "wrong": lambda o: answers.check_exact("l1", o, {"l1": wrong}),
        "raised": lambda o: answers.check_exact("l1", o),
    }
    passes = [{"outcomes": [dict(good, label="ok"), dict(good, label="wrong"),
                            dict(raised, label="raised")]}]
    attempted, failed, problems = run.tally(passes, checks)
    assert (attempted, failed) == (3, 2)
    assert len(problems) == 2


def test_exit_code_and_missing_report_are_failures():
    report = {"ok": True, "results": {"verdicts": {"closed_ok": True}}}
    assert answers.check_jet("qk-l1", {}, {"exit": 0, "stdout": json.dumps(report)}) == []
    assert answers.check_jet("qk-l1", {}, {"exit": 1, "stdout": json.dumps(report)})
    assert answers.check_jet("qk-l1", {}, {"exit": 0, "stdout": "not json"})
    failing = {"ok": False, "results": {"verdicts": {"closed_ok": False}}}
    assert answers.check_jet("qk-l1", {}, {"exit": 0, "stdout": json.dumps(failing)})


def test_triaxial_dichotomy_is_checked():
    def outcome(dev, ideal):
        report = {"ok": True, "results": {"verdicts": {"closed_ok": True},
                                          "einstein_deviation": dev, "ideal_residual": ideal}}
        return {"exit": 0, "stdout": json.dumps(report)}

    equal = {"a1": "1", "a2": "1", "a3": "1"}
    assert answers.check_jet("qk-triaxial", equal, outcome(1e-12, 1e-12)) == []
    assert answers.check_jet("qk-triaxial", equal, outcome(0.5, 1e-12))
    assert answers.check_jet("qk-triaxial", {}, outcome(0.5, 0.5)) == []
    assert answers.check_jet("qk-triaxial", {}, outcome(1e-12, 0.5))


def test_sweep_needs_all_fourteen_criteria():
    crit = [{"number": k, "ok": True} for k in range(1, 15)]
    ok = {"exit": 0, "stdout": json.dumps({"results": {"criteria": crit}})}
    assert answers.check_sweep(ok) == []
    short = {"exit": 0, "stdout": json.dumps({"results": {"criteria": crit[:13]}})}
    assert answers.check_sweep(short)
