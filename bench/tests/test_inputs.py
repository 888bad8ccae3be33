"""The seeded generator: reproducible, seed-sensitive, and verdict-preserving."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

import answers
import inputs

cli = pytest.importorskip("qcforge.cli")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "error": None}


def test_same_seed_gives_identical_inputs():
    assert inputs.exact_inputs(5) == inputs.exact_inputs(5)
    assert inputs.jet_inputs(5) == inputs.jet_inputs(5)


def test_different_seeds_give_different_inputs():
    assert inputs.exact_inputs(1) != inputs.exact_inputs(2)
    assert inputs.jet_inputs(1) != inputs.jet_inputs(2)
    texts = {text for seed in range(1, 6) for _e, text in inputs.exact_inputs(seed)}
    assert len(texts) == 5 * len(inputs.ENTRIES)


def test_identity_relabelling_reproduces_the_catalog_text():
    ident = {a: a for a in range(1, 8)}
    text = inputs.coframe_text("l1", ident)
    assert "d e2 = -e1^e2 - 2 e3^e4 - 1/2 e3^e7 + 1/2 e4^e6" in text
    assert "d e1 = 0" in text
    assert "qc horizontal = e1,e2,e3,e4 ; vertical = e5,e6,e7" in text


def test_jet_samples_stay_inside_the_padded_windows():
    for seed in (1, 2, 3):
        for family, params, samples, argv in inputs.jet_inputs(seed):
            kind, choices = inputs.FAMILIES[family]
            (lo, hi), = [w for p, w in choices if p == params]
            pad = 0.1 * (hi - lo)
            assert len(samples) == inputs.SAMPLES_PER_BUILD
            assert all(lo + pad - 1e-6 <= x <= hi - pad + 1e-6 for x in samples)
            assert argv[:2] == ["build", kind]
            # the list travels as one "--samples=" token: a leading negative
            # point must not be read as an option
            assert sum(a.startswith("--samples=") for a in argv) == 1
            assert "--samples" not in argv


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_inputs_give_the_pinned_verdicts(tmp_path, seed):
    for entry, text in inputs.exact_inputs(seed):
        path = tmp_path / f"{entry}.alg"
        path.write_text(text)
        outcome = _run(inputs.exact_argv(str(path)))
        assert answers.check_exact(entry, outcome) == []


@pytest.mark.parametrize("c", inputs.L0_CHOICES)
def test_every_l0_parameter_gives_the_pinned_verdicts(tmp_path, c):
    perm = {a: 8 - a for a in range(1, 8)}
    path = tmp_path / "l0c.alg"
    path.write_text(inputs.coframe_text("l0c", perm, Fraction(c)))
    assert answers.check_exact("l0c", _run(inputs.exact_argv(str(path)))) == []


def test_jet_inputs_pass_their_checks():
    evolution = pytest.importorskip("qcforge.evolution")
    for name, scalar in inputs.EINSTEIN_BASES:
        evolution.require_einstein_base(name, Fraction(scalar))
    for family, params, _samples, argv in inputs.jet_inputs(2):
        outcome = _run(argv)
        assert answers.check_jet(family, params, outcome) == [], json.loads(outcome["stdout"])
