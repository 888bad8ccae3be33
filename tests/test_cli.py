import argparse
import contextlib
import dataclasses
import importlib.resources
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcforge
from qcforge import __version__, algebra, cli, qc
from qcforge.algebra import MAX_DIM, heisenberg_source
from qcforge.cli import main
from qcforge.forms import parse_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def schema():
    text = importlib.resources.files("qcforge.data").joinpath(
        "report.schema.json").read_text()
    return json.loads(text)


class TestParser:
    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        assert run(capsys, "symbolic", "closedqc")[0] == 0
        parser = cli.build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "symbolic", "closedqc")[0] == 0
        assert run(capsys, "check-algebra", "--catalog", "l1")[0] == 0
        assert built == []
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("argv,code", [
        (["--version"], 0), ([], 2), (["frobnicate"], 2), (["build", "qk"], 2),
        (["sweep", "--format", "xml"], 2), (["qc-report", "--catalog", "l1", "--file", "x"], 2)])
    def test_version_and_bad_argv_exit_codes(self, capsys, argv, code):
        cli.build_parser.cache_clear()
        seen = []
        for _ in range(2):  # a fresh parser, then the one that main keeps
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]
        out, err = seen[0][1]
        assert seen[0][0] == code
        if code == 0:
            assert (out, err) == (f"qcforge {__version__}\n", "")
        else:
            assert out == "" and err.startswith("usage: qcforge")


class TestCheckAlgebra:
    def test_catalog_ok(self, capsys):
        code, out, _ = run(capsys, "check-algebra", "--catalog", "l3")
        assert code == 0
        assert "PASS" in out

    def test_heis2(self, capsys):
        code, out, _ = run(capsys, "check-algebra", "--catalog", "heis(2)")
        assert code == 0

    def test_violating_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.alg"
        bad.write_text("algebra bad dim 3\nd e1 = e2^e3\nd e2 = e1^e2\nd e3 = 0\n")
        code, out, _ = run(capsys, "check-algebra", "--file", str(bad))
        assert code == 1
        assert "FAIL" in out
        assert "d.d e1" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra bad dim 3\nd e1 = e2 & e3\n")
        code, _, err = run(capsys, "check-algebra", "--file", str(bad))
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("old,new,message", [
        ("omega2 = e1^e3 + e4^e2", "omega2 = e1^e3 + e4^e2\nomega2 = e1^e3",
         "line 12: omega2 defined twice"),
        ("omega1 =", "omega1 = e1^e2\nomega1 =", "line 11: omega1 defined twice"),
        ("omega1 =", "qc horizontal = e1..e4 ; vertical = e5,e6,e7\nomega1 =",
         "line 10: second qc line; the first is line 9"),
        ("omega3 = e1^e4 + e2^e3", "", "line 9: qc block needs omega1, omega2, omega3"),
    ], ids=["repeated-omega", "omega1-twice", "repeated-qc", "incomplete-qc"])
    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_qc_block_refused_with_its_line(self, tmp_path, capsys, command, old, new, message):
        """A repeated omega<k> or qc line is refused as a repeated d e<k>
        line is, and an incomplete qc block names the line of its qc line."""
        path = tmp_path / "qc.alg"
        path.write_text(heisenberg_source(1).replace(old, new, 1))
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("old,new,message", [
        ("d e2 = 0", "d e1 = 0", "line 3: d e1 defined twice"),
        ("d e7 =", "d e9 = 0\nd e7 =", "line 8: d e9: index out of range for dim 7"),
        ("vertical = e5,e6,e7", "vertical = e5,e6,e9",
         "line 9: index e9 out of range for dim 7"),
    ], ids=["repeated-d", "d-out-of-range", "index-out-of-range"])
    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_differential_and_index_refused_with_their_line(self, tmp_path, capsys, command,
                                                           old, new, message):
        """A repeated d e<k> line, a d line past the frame and an index list
        past the frame each name their line, as the qc block refusals do."""
        path = tmp_path / "qc.alg"
        path.write_text(heisenberg_source(1).replace(old, new, 1))
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("old,new,message", [
        (heisenberg_source(1), "", "line 1: missing header"),
        ("vertical = e5,e6,e7", "vertical = e5,e6",
         "line 9: need three vertical directions and three fundamental forms"),
        ("horizontal = e1..e4", "horizontal = e1..e3",
         "line 9: horizontal rank must be a positive multiple of 4"),
        ("vertical = e5,e6,e7", "vertical = e4,e6,e7",
         "line 9: horizontal and vertical indices must partition the frame"),
        ("omega1 = e1^e2 + e3^e4", "omega1 = e1^e2 + e3^e5",
         "line 10: fundamental forms must be horizontal"),
        ("horizontal = e1..e4", "horizontal = e4..e1", "line 9: empty range 'e4..e1'"),
        ("omega3 = e1^e4 + e2^e3", "omega3 = e1^e2^e4",
         "line 12: form has degree 3, expected 2"),
        ("omega3 = e1^e4 + e2^e3", "omega3 = e1^e4 + e2",
         "line 12: mixed-degree form literal"),
    ], ids=["missing-header", "two-vertical", "rank-three", "no-partition", "vertical-omega",
            "empty-range", "degree-three", "mixed-degree"])
    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_malformed_file_refused_with_its_line(self, tmp_path, capsys, command, old, new,
                                                  message):
        """A file whose qc block or form literal is malformed, or that is
        empty, is refused with the line that is at fault; the qc frame's
        own refusals name the qc line."""
        path = tmp_path / "qc.alg"
        path.write_text(heisenberg_source(1).replace(old, new, 1))
        code, out, err = run(capsys, command, "--file", str(path))
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    def test_python_dash_m_runs_the_cli(self):
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-m", "qcforge", "check-algebra", "--catalog", "l1"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("overall: PASS\n")

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "check-algebra", "--catalog", "l7")
        assert code == 2


def _adding(stage, at, literal, field=None):
    """``stage`` with a form literal added to entry ``at`` of the forms it
    returns, or of the forms in its result's ``field``: an (int forms,
    denominator) pair, to which the literal adds its multiple of the
    denominator."""
    def patched(spec, *args):
        result = stage(spec, *args)
        forms, den = getattr(result, field) if field else result
        forms = list(forms)
        added = parse_form(literal, spec.dim, forms[at].degree)
        forms[at] = forms[at] + added.map_coefficients(lambda c: int(c * den))
        pair = (tuple(forms), den)
        return dataclasses.replace(result, **{field: pair}) if field else pair
    return patched


def _leaking(stage):
    """``stage`` with Gamma^5_{11} = 1 added: nabla_{e1} e1 leaves H."""
    def patched(*args):
        conn = stage(*args)
        conn.num[0, 0, 4] = conn.den
        return conn
    return patched


class TestQcReport:
    def test_l1_text(self, capsys):
        code, out, _ = run(capsys, "qc-report", "--catalog", "l1")
        assert code == 0
        assert "s: -1/2" in out
        assert "einstein: PASS" in out
        assert "wqc_zero: PASS" in out

    def test_l3_text(self, capsys):
        code, out, _ = run(capsys, "qc-report", "--catalog", "l3")
        assert code == 0  # internal cross-checks pass; flags describe geometry
        assert "s: -1" in out
        assert "einstein: FAIL" in out
        assert "wqc_zero: FAIL" in out

    def test_json_schema_and_roundtrip(self, capsys):
        code, out, _ = run(capsys, "qc-report", "--catalog", "heis(1)",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema())
        assert json.loads(json.dumps(doc)) == doc
        assert doc["results"]["s"] == "0"
        assert doc["results"]["einstein"] is True

    def test_text_json_agree_on_verdicts(self, capsys):
        code_t, out_t, _ = run(capsys, "qc-report", "--catalog", "l2")
        code_j, out_j, _ = run(capsys, "qc-report", "--catalog", "l2",
                               "--format", "json")
        doc = json.loads(out_j)
        assert code_t == code_j == 0
        assert ("einstein: PASS" in out_t) == doc["results"]["einstein"]
        assert ("wqc_zero: FAIL" in out_t) == (not doc["results"]["wqc_zero"])

    def test_reeb_failure_exit_three(self, tmp_path, capsys):
        src = """algebra broken dim 7
d e5 = 2 e1^e2 + 2 e3^e4 + e1^e5
d e6 = 2 e1^e3 + 2 e4^e2
d e7 = 2 e1^e4 + 2 e2^e3
qc horizontal = e1..e4 ; vertical = e5,e6,e7
omega1 = e1^e2 + e3^e4
omega2 = e1^e3 + e4^e2
omega3 = e1^e4 + e2^e3
"""
        f = tmp_path / "broken.alg"
        f.write_text(src)
        code, out, _ = run(capsys, "qc-report", "--file", str(f))
        assert code == 3

    def test_file_without_qc_block(self, tmp_path, capsys):
        f = tmp_path / "plain.alg"
        f.write_text("algebra plain dim 3\nd e1 = 0\nd e2 = 0\nd e3 = 0\n")
        code, _, err = run(capsys, "qc-report", "--file", str(f))
        assert code == 3

    def _heis1_file(self, tmp_path, old, new):
        text = heisenberg_source(1)
        assert old in text
        f = tmp_path / "edited.alg"
        f.write_text(text.replace(old, new))
        return str(f)

    def test_reeb_failure_of_integrable_file(self, tmp_path, capsys):
        path = self._heis1_file(tmp_path, "d e5 = 2 e1^e2 + 2 e3^e4",
                                "d e5 = 4 e1^e2 + 4 e3^e4")
        code, out, _ = run(capsys, "qc-report", "--file", path)
        assert code == 3
        assert "d eta_1|_H != 2 omega_1" in out
        code, out, _ = run(capsys, "qc-report", "--file", path, "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, schema())
        assert code == 3 and doc["results"]["reeb_ok"] is False
        assert doc["results"]["name"] == f"file:{path}"

    def test_jacobi_violating_file_exit_three(self, tmp_path, capsys):
        path = self._heis1_file(tmp_path, "d e7 = 2 e1^e4 + 2 e2^e3",
                                "d e7 = 2 e1^e4 + 2 e2^e3 + e5^e6")
        code, out, err = run(capsys, "qc-report", "--file", path)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Jacobi identity fails: d.d e7" in err

    def test_broken_quaternion_relations_exit_three(self, tmp_path, capsys):
        path = self._heis1_file(tmp_path, "omega3 = e1^e4 + e2^e3", "omega3 = e1^e4 - e2^e3")
        code, out, err = run(capsys, "qc-report", "--file", path)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "structural precondition failed" in err

    @pytest.mark.parametrize("target,patch,message", [
        # omega_1 added to rho_1 at S = 0 moves t_1 by tr(-I_1 I_1) = 4
        ("_rho_from_alpha", lambda f: _adding(f, 0, "e1^e2 + e3^e4"),
         "scalar invariant differs between traces: -5/2 vs -1/2"),
        ("sp1_forms_and_S", lambda f: _adding(f, 0, "e1^e3", "rho"),
         "D_1 is not symmetric; input is not qc"),
        # omega_2 added to rho_2 moves D_2 by a multiple of g, so U moves and T0 does not
        ("sp1_forms_and_S", lambda f: _adding(f, 1, "e1^e3 + e4^e2", "rho"),
         "rho_1 reconstruction failed; input is not qc"),
        ("adjust_by_torsion", _leaking,
         "connection does not preserve the splitting: Gamma^5_11 != 0"),
        ("sp1_forms_and_S", lambda f: _adding(f, 1, "e1", "alpha"),
         "nabla_1 xi_1 disagrees with the sp(1) rotation rule"),
        ("qc_ricci_forms", lambda f: _adding(f, 0, "e1^e6"),
         "dim-7 equivalence of closedness and vertical integrability failed"),
    ], ids=["scalar", "d-symmetry", "rho-reconstruction", "splitting", "rotation-rule",
            "dim-7"])
    def test_consistency_gate_fires(self, capsys, monkeypatch, target, patch, message):
        """Each gate that an input can fail, reached by breaking the stage
        before it: one stderr line naming the gate, exit 3."""
        monkeypatch.setattr(qc, target, patch(getattr(qc, target)))
        code, out, err = run(capsys, "qc-report", "--catalog", "l1")
        assert (code, out, err) == (3, "", f"structural precondition failed: {message}\n")

    def test_missing_file_exit_two(self, tmp_path, capsys):
        for command in ("qc-report", "check-algebra"):
            code, out, err = run(capsys, command, "--file", str(tmp_path / "absent.alg"))
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "absent.alg" in err

    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_empty_catalog_name_exit_two(self, capsys, command):
        code, out, err = run(capsys, command, "--catalog", "")
        assert code == 2
        assert out == ""
        assert err == "parse error: bad catalog name ''\n"

    @pytest.mark.parametrize("name", ["l0()", "heis()", "l1()"])
    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_empty_parentheses_exit_two(self, capsys, command, name):
        code, out, err = run(capsys, command, "--catalog", name)
        assert code == 2
        assert out == ""
        assert err == f"parse error: bad catalog name {name!r}\n"

    @pytest.mark.parametrize("name", ["heis", "l0"])
    def test_bare_name_keeps_its_default(self, capsys, name):
        code, out, _ = run(capsys, "check-algebra", "--catalog", name)
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("command,source", [
        ("qc-report", "catalog"), ("qc-report", "file"),
        ("check-algebra", "catalog"), ("check-algebra", "file"),
    ], ids=["catalog", "file", "check-algebra-catalog", "check-algebra-file"])
    def test_each_input_is_gated_once(self, tmp_path, capsys, monkeypatch, command, source):
        calls = []
        check, validate = algebra.jacobi_check, algebra.QcFrameSpec.validate

        def counting_check(alg):
            calls.append("jacobi")
            return check(alg)

        def counting_validate(spec):
            calls.append("validate")
            return validate(spec)

        for module in (algebra, cli):  # every site that can reach the check
            monkeypatch.setattr(module, "jacobi_check", counting_check)
        monkeypatch.setattr(algebra.QcFrameSpec, "validate", counting_validate)
        if source == "catalog":
            argv = ["--catalog", "l1"]
        else:
            path = tmp_path / "heis1.alg"
            path.write_text(heisenberg_source(1))
            argv = ["--file", str(path)]
        code, _, _ = run(capsys, command, *argv)
        assert code == 0
        # check-algebra checks integrability only; a catalog entry is loaded
        # through the full gate
        if command == "check-algebra" and source == "file":
            assert calls == ["jacobi"]
        else:
            assert sorted(calls) == ["jacobi", "validate"]


_LONG = "1" * 5000  # longer than int() reads from a string
_HEIS1 = heisenberg_source(1)


class TestLiteralLimits:
    """Integer literals that cannot name a frame index are refused with exit
    2 before int() reads them or anything is allocated by their size."""

    @pytest.mark.parametrize("old,new", [
        ("dim 7", f"dim {_LONG}"),
        ("dim 7", "dim 1000000000000"),
        ("dim 7", f"dim {MAX_DIM + 1}"),
        ("d e7 =", f"d e{_LONG} ="),
        ("vertical = e5,e6,e7", f"vertical = e5,e6,e{_LONG}"),
        ("horizontal = e1..e4", "horizontal = e1..e1000000000000"),
        ("vertical = e5,e6,e7", "vertical = e5,e6,e\u00b2"),
        ("d e7 = 2 e1^e4", f"d e7 = 2 e{_LONG}^e4"),
    ], ids=["long-dim", "huge-dim", "dim-above-limit", "long-index", "long-list",
            "huge-range", "superscript-digit", "long-form-index"])
    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_file_literal_refused(self, tmp_path, capsys, command, old, new):
        assert old in _HEIS1
        path = tmp_path / "literal.alg"
        path.write_text(_HEIS1.replace(old, new))
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("parse error: line ")
        assert len(err) < 200

    @pytest.mark.parametrize("n", ["1000000000000", str((MAX_DIM - 3) // 4 + 1)])
    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_huge_heisenberg_refused(self, capsys, command, n):
        code, out, err = run(capsys, command, "--catalog", f"heis({n})")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("parse error: ")
        assert len(err) < 200

    def test_long_form_index_names_the_dimension(self, tmp_path, capsys):
        path = tmp_path / "literal.alg"
        path.write_text(_HEIS1.replace("d e7 = 2 e1^e4", f"d e7 = 2 e{_LONG}^e4"))
        _, _, err = run(capsys, "check-algebra", "--file", str(path))
        assert err == ("parse error: line 8: "
                       "index e111111...(5000 digits) out of range for dim 7\n")

    @pytest.mark.parametrize("command", ["qc-report", "check-algebra"])
    def test_long_catalog_name_is_echoed_cut(self, capsys, command):
        code, out, err = run(capsys, command, "--catalog", f"heis({_LONG})")
        assert code == 2
        assert out == ""
        assert err == "parse error: bad catalog name 'heis(111111...(5000 digits))'\n"
        assert len(err) < 200

    @pytest.mark.parametrize("argv", [
        ["qc-report", "--catalog", f"l0({_LONG})"],
        ["build", "qk", "--family", "qk-l1", "--param", f"b={_LONG}"],
        ["check-algebra", "--file", "coefficient.alg"],
        ["qc-report", "--catalog", "x" * len(_LONG)],
    ], ids=["l0-argument", "param", "file-coefficient", "catalog-name"])
    def test_long_literal_is_echoed_cut(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "coefficient.alg"
        path.write_text(_HEIS1.replace("d e7 = 2 e1^e4", f"d e7 = {_LONG} e1^e4"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("parse error: ")
        assert len(err) < 200

    @pytest.mark.parametrize("argv", [
        ["qc-report", "--catalog", "l1", "x" * len(_LONG)],
        ["symbolic", "q" * len(_LONG)],
        ["build", "qk", "--family", "qk-l1", "--tol-ricci", "t" * len(_LONG)],
        ["build", "qk", "--family", "z" * len(_LONG)],
        ["build", "qk", "--family", "qk-l1", "--param", "p" * len(_LONG) + "=1"],
        ["build", "qk", "--family", "qk-l1", "--param", "p" * len(_LONG)],
        ["build", "qk", "--family", "qk-l1", "--param", "p" * len(_LONG) + "=1",
         "--param", "p" * len(_LONG) + "=2"],
        ["build", "qk", "--family", "qk-l1", "--samples=" + "a" * len(_LONG)],
    ], ids=["extra-argument", "symbolic-target", "tolerance", "family", "param-name",
            "param-without-value", "param-twice", "samples"])
    def test_long_argument_is_echoed_cut(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "...(5000 characters)" in err
        assert len(err.encode()) < 200

    def test_largest_dimension_parses(self):
        alg, _ = algebra.parse_algebra(f"algebra top dim {MAX_DIM}\n")
        assert alg.dim == MAX_DIM


class TestBuild:
    def test_qk_l2(self, capsys):
        code, out, _ = run(capsys, "build", "qk", "--family", "qk-l2",
                           "--param", "b=1")
        assert code == 0
        assert "einstein_const: -2" in out
        assert "closed_ok: PASS" in out

    def test_spin7_l2_json(self, capsys):
        code, out, _ = run(capsys, "build", "spin7", "--family", "spin7-l2",
                           "--param", "b=2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema())
        assert doc["results"]["curvature_rank"] == 21
        assert doc["results"]["verdicts"]["ricci_flat_ok"] is True

    def test_triaxial(self, capsys):
        code, out, _ = run(capsys, "build", "qk", "--family", "qk-triaxial",
                           "--param", "a1=0", "--param", "a2=1", "--param", "a3=2")
        assert code == 0
        assert "closed_ok: PASS" in out

    def test_ode_only_family(self, capsys):
        code, out, _ = run(capsys, "build", "qk", "--family", "qk-3sas")
        assert code == 0
        assert "ode_solqk7_ok: PASS" in out

    def test_domain_error_exit_four(self, capsys):
        code, _, err = run(capsys, "build", "spin7", "--family", "spin7-l1",
                           "--samples", "0.5,3.0")
        assert code == 4
        assert "domain error" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "build", "qk", "--family", "nope")
        assert code == 2

    @pytest.mark.parametrize("kind,names", [
        ("qk", ["ideal-family", "qk-3sas", "qk-heis", "qk-heis2", "qk-l1", "qk-l2",
                "qk-triaxial"]),
        ("spin7", ["spin7-3sas", "spin7-heis", "spin7-l1", "spin7-l2", "spin7-triaxial"]),
    ])
    def test_unknown_family_lists_its_kind(self, capsys, kind, names):
        code, out, err = run(capsys, "build", kind, "--family", "nope")
        assert code == 2
        assert out == ""
        assert err.rstrip("\n").split("; known: ")[1].split(", ") == names

    def test_wrong_kind(self, capsys):
        code, _, err = run(capsys, "build", "spin7", "--family", "qk-l1")
        assert code == 2

    def test_bad_param(self, capsys):
        code, _, err = run(capsys, "build", "qk", "--family", "qk-l1",
                           "--param", "zz=3")
        assert code == 2

    @pytest.mark.parametrize("params", [["b=1/3", "b=2"], ["b=2", " b=2"]])
    def test_repeated_param_exit_two(self, capsys, params):
        argv = ["build", "qk", "--family", "qk-heis"]
        for p in params:
            argv += ["--param", p]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "parse error: --param b given more than once\n"

    def test_failing_tolerance_exit_one(self, capsys):
        code, out, _ = run(capsys, "build", "qk", "--family", "qk-l1",
                           "--tol-residual", "1e-18")
        assert code == 1
        assert "FAIL" in out

    def test_every_sample_degenerate_exit_four(self, capsys):
        # h = sinh(0)/4 = 0: no metric at the only sample
        code, out, err = run(capsys, "build", "qk", "--family", "qk-l1",
                             "--samples", "0")
        assert code == 4
        assert out == ""
        assert err.startswith("domain error: every sample of qk-l1 is degenerate")
        assert err.count("\n") == 1

    def test_degenerate_samples_counted(self, capsys):
        code, out, _ = run(capsys, "build", "qk", "--family", "qk-l1",
                           "--samples", "0,1", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["degenerate_samples"] == 1

    def test_negative_first_sample(self, capsys):
        code, out, _ = run(capsys, "build", "qk", "--family", "qk-l1",
                           "--samples", "-0.5,0.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["samples"] == [-0.5, 0.5]

    @pytest.mark.parametrize("argv", [["--samples="], ["--samples=,"], ["--samples", ""],
                                      ["--samples", " , "]])
    def test_empty_sample_list_exit_two(self, capsys, argv):
        # an empty list is refused, not read as "use the default window"
        code, out, err = run(capsys, "build", "qk", "--family", "qk-l1", *argv)
        assert (code, out, err) == (2, "", "parse error: --samples needs at least one point\n")

    def test_spin7_triaxial_ricci_flat_verdict(self, capsys):
        code, out, _ = run(capsys, "build", "spin7", "--family", "spin7-triaxial",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["verdicts"]["ricci_flat_ok"] is True

    @pytest.mark.parametrize("kind,family,samples", [
        ("qk", "qk-3sas", "nan"),            # ode-only: passed with both residuals 0
        ("spin7", "spin7-3sas", "nan"),
        ("qk", "ideal-family", "-0.5,nan"),  # base-backed: LAPACK failure, exit 2
        ("qk", "qk-l1", "inf"),              # LAPACK noise, then exit 2
    ])
    def test_non_finite_sample_exit_four(self, capfd, kind, family, samples):
        code, out, err = run(capfd, "build", kind, "--family", family, "--samples", samples)
        assert code == 4
        assert out == ""
        bad = "nan" if "nan" in samples else "inf"
        assert err == f"domain error: sample {bad} is not a finite number\n"

    @pytest.mark.parametrize("kind,family,samples,bad", [
        ("qk", "qk-heis", "300", "300.0"),      # f = exp(2u): sqrt(f) overflows
        ("qk", "qk-heis", "100,200", "200.0"),  # x=100 succeeds: blame skips it
        ("qk", "qk-l1", "1,1e-100", "1e-100"),  # inf curvature: LAPACK failure, exit 2
        ("spin7", "spin7-heis", "1e60", "1e+60"),  # overflow in the ODE residual
    ])
    def test_jet_overflow_exit_four(self, capfd, kind, family, samples, bad):
        code, out, err = run(capfd, "build", kind, "--family", family, f"--samples={samples}")
        assert code == 4
        assert out == ""
        assert err.startswith(f"domain error: jet arithmetic breaks down at x={bad}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind,family,samples", [
        ("qk", "qk-l1", "300"),      # a power of the Cartan solve overflows
        ("qk", "qk-3sas", "1e-300"),  # a power in the coefficient h overflows
        ("spin7", "spin7-triaxial", "1e160")])
    def test_float_overflow_reads_as_a_sentence(self, capfd, kind, family, samples):
        code, out, err = run(capfd, "build", kind, "--family", family, f"--samples={samples}")
        assert code == 4
        assert out == ""
        assert err.endswith(": math range error\n") and err.count("\n") == 1
        assert "(34," not in err  # the errno tuple of float.__pow__

    @pytest.mark.parametrize("b", ["1e-158", "1e-170"])
    def test_einstein_constant_below_float_resolution_exit_four(self, capsys, b):
        # -16 b^2 is subnormal at 1e-158 and 0 at 1e-170, and no residual
        # or relative bound resolves a verdict there
        code, out, err = run(capsys, "build", "qk", "--family", "qk-heis", "--param", f"b={b}")
        assert code == 4
        assert out == ""
        assert err == ("domain error: qk-heis at the parameters b: the Einstein constant "
                       "is below float resolution\n")

    def test_jet_guard_names_the_sample(self, capfd):
        # u^2 overflows, so w = 1/(2 sqrt(u + u^2)) is 0 and d/dt divides by it
        code, out, err = run(capfd, "build", "qk", "--family", "qk-3sas", "--samples", "1,1e160")
        assert code == 4
        assert out == ""
        assert err == ("domain error: jet arithmetic breaks down at x=1e+160: "
                       "division by a jet with zero value\n")

    @pytest.mark.parametrize("param", ["a1=1e400", "C=0"])
    def test_parameter_out_of_domain_exit_four(self, capfd, param):
        code, out, err = run(capfd, "build", "spin7", "--family", "spin7-triaxial",
                             "--param", param)
        assert code == 4
        assert out == ""
        assert err.startswith("domain error: spin7-triaxial ") and err.count("\n") == 1
        assert f"parameters {param.split('=')[0]}:" in err
        assert not re.search(r"\d{20}", err)  # names a1, not its 401 digits

    @pytest.mark.parametrize("family,param", [
        ("spin7-l1", "b"), ("spin7-l2", "b"), ("spin7-3sas", "a")])
    def test_negative_window_exit_four(self, capsys, family, param):
        # the window end float(p) ** 0.6 is complex for p < 0
        code, out, err = run(capsys, "build", "spin7", "--family", family, "--param", f"{param}=-1")
        assert code == 4
        assert out == ""
        assert err == (f"domain error: {family} is undefined for the parameters {param}: "
                       "no finite real sample window\n")

    @pytest.mark.parametrize("option", ["--tol-residual", "--tol-ricci"])
    def test_nan_tolerance_exit_two(self, capsys, option):
        code, out, err = run(capsys, "build", "qk", "--family", "qk-l1", option, "nan")
        assert code == 2
        assert out == ""
        assert err == "parse error: tolerances must be positive\n"

    def test_unprintable_parameter_exit_two(self, capsys):
        # 10**5000 has more digits than Python prints, and the report prints it
        code, out, err = run(capsys, "build", "qk", "--family", "qk-l1", "--param", "b=1e5000")
        assert code == 2
        assert out == ""
        assert err == "parse error: bad rational literal '1e5000'\n"

    @pytest.mark.parametrize("argv,literal", [
        (["build", "qk", "--family", "qk-l1", "--param", "b=1e100000000"], "1e100000000"),
        (["build", "qk", "--family", "qk-l1", "--param", "b=1e-100000000"], "1e-100000000"),
        (["qc-report", "--catalog", "l0(1e100000000)"], "1e100000000"),
    ])
    def test_huge_exponent_refused_without_computing_it(self, argv, literal):
        # Fraction would compute 10**100000000 first; in a subprocess, so
        # that a regression fails at the timeout instead of hanging
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-m", "qcforge.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"parse error: bad rational literal '{literal}'\n"

    @pytest.mark.parametrize("kind,family,param", [
        ("qk", "qk-l1", "b=1e400"), ("qk", "qk-heis", "b=-1e400"), ("qk", "qk-3sas", "a=1e400"),
        ("spin7", "spin7-heis", "a=-1e400"), ("qk", "ideal-family", "a1=1e400"),
        ("qk", "qk-triaxial", "C=-1e400")])
    def test_huge_parameter_named_not_printed(self, capfd, kind, family, param):
        code, out, err = run(capfd, "build", kind, "--family", family, "--param", param)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and family in err
        assert not re.search(r"\d{20}", err)

    @pytest.mark.parametrize("kind,family,key", [
        ("qk", "qk-heis", "f"),  # exp(2e160) overflows
        ("spin7", "spin7-l1", "h"),  # (k u^(2/3))^3 overflows in the reciprocal
    ])
    def test_failed_evaluation_names_sample_and_key(self, capfd, kind, family, key):
        code, out, err = run(capfd, "build", kind, "--family", family, "--samples=1e160")
        assert code == 4
        assert out == ""
        assert err.startswith(f"domain error: jet arithmetic breaks down at x=1e+160: "
                              f"cannot evaluate {key}: ")
        assert err.count("\n") == 1

    def test_failed_least_squares_exit_four(self, capfd, monkeypatch):
        svd = np.linalg.svd

        def fail(a, *args, compute_uv=True, **kwargs):
            if compute_uv:  # the ideal test's SVD; the curvature rank asks for none
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, out, err = run(capfd, "build", "qk", "--family", "qk-l1", "--samples", "1,2")
        assert code == 4
        assert out == ""
        assert err == ("domain error: jet arithmetic breaks down at x=1.0: "
                       "SVD did not converge\n")

    def test_zero_denominator_in_a_parameter(self, capsys):
        code, out, err = run(capsys, "build", "qk", "--family", "qk-l1", "--param", "b=1/0")
        assert code == 2
        assert out == ""
        assert err == "parse error: bad rational literal '1/0'\n"


_ODD_NUMBER = st.one_of(
    st.sampled_from(["0", "-1", "-1/2", "1/0", "1e400", "-1e400", "1e-400", "1e5000",
                     "nan", "inf", "-inf", "", "x", "3/-2", " 2 "]),
    st.fractions().map(str), st.floats().map(repr), st.text(max_size=6))
_CHEAP_FAMILIES = [("qk", "qk-3sas"), ("spin7", "spin7-3sas"), ("qk", "qk-l1"),
                   ("spin7", "spin7-l1"), ("spin7", "spin7-triaxial")]
_CATALOG_NAME = st.one_of(
    st.sampled_from(["", "heis(x)", "heis(0)", "heis(-1)", "heis(1.5)", "l0(1/0)", "l0(abc)",
                     "l0(1e5000)", "l0(-2/3)", "l1(2)", "l9", "heis(", "(", " l1 "]),
    st.text(max_size=8))
_SOURCE_COMMAND = st.sampled_from(["qc-report", "check-algebra"])
_L3 = importlib.resources.files("qcforge.data").joinpath("l3.alg").read_text().splitlines()
_L3_BODY = [k for k, line in enumerate(_L3) if line.startswith(("d e", "qc", "omega"))]
_L3_SWAPS = [(" + ", " - "), (" - ", " + "), ("2 e", "3 e"), ("1/2", "1/3"), ("e1", "e2"),
             ("e4", "e6"), ("e5", "e7"), ("e5,e6", "e4,e6"), ("= e", "= 2 e")]


# Each strategy draws (argv, text): text, when not None, is written to a
# file that the argv names with --file.  Every option is glued to its value,
# so no draw becomes an argparse usage error.
@st.composite
def _build_case(draw):
    kind, family = draw(st.sampled_from(_CHEAP_FAMILIES))
    argv = ["build", kind, f"--family={family}"]
    for name in draw(st.lists(st.sampled_from(sorted(cli.FAMILIES[family].defaults)),
                              max_size=2)):
        argv.append(f"--param={name}={draw(_ODD_NUMBER)}")
    if draw(st.booleans()):
        argv.append("--samples=" + ",".join(draw(st.lists(_ODD_NUMBER, max_size=3))))
    return argv, None


@st.composite
def _catalog_case(draw):
    return [draw(_SOURCE_COMMAND), f"--catalog={draw(_CATALOG_NAME)}"], None


@st.composite
def _mutated_l3_case(draw):
    lines = list(_L3)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(_L3_BODY))
        if draw(st.booleans()):  # still parses, may break Jacobi, I_s or Reeb
            old, new = draw(st.sampled_from(_L3_SWAPS))
            lines[k] = lines[k].replace(old, new, 1)
            continue
        pos = draw(st.integers(0, len(lines[k])))
        token = draw(st.sampled_from(["", "e1", "e9", "^", "+", "-", "/", "0", "1/0", "2",
                                      ",", ";", "..", "=", "#", "1e5000", "\n"]))
        cut = draw(st.integers(0, 3))
        lines[k] = lines[k][:pos] + token + lines[k][pos + cut:]
    return [draw(_SOURCE_COMMAND)], "\n".join(lines) + "\n"


@st.composite
def _perturbed_catalog_text(draw):
    """A catalog coframe's text with one ``d`` or ``omega`` line changed: a
    term scaled, dropped or added, an index moved (up to dim + 1), or the
    line deleted or repeated."""
    spec = algebra.catalog(draw(st.sampled_from(algebra.CATALOG_NAMES)))
    dim = spec.algebra.dim
    lines = algebra.format_algebra(spec.algebra, spec).splitlines()
    at = draw(st.sampled_from([i for i, line in enumerate(lines)
                               if line.startswith(("d ", "omega"))]))
    op = draw(st.sampled_from(["scale", "drop", "add", "index", "delete", "repeat"]))
    if op == "delete":
        del lines[at]
    elif op == "repeat":
        lines.insert(at, lines[at])
    else:
        lhs, _, rhs = lines[at].partition(" = ")
        terms = [[c, *idx] for idx, c in sorted(parse_form(rhs, dim, 2).terms.items())]
        if op == "add" or not terms:
            pair = draw(st.lists(st.integers(1, dim), min_size=2, max_size=2, unique=True))
            terms.append([draw(st.sampled_from([1, -1, 2])), *sorted(pair)])
        else:
            k = draw(st.integers(0, len(terms) - 1))
            if op == "scale":
                terms[k][0] *= draw(st.sampled_from([-1, 2, Fraction(1, 2), 3]))
            elif op == "drop":
                del terms[k]
            else:
                terms[k][draw(st.sampled_from([1, 2]))] = draw(st.integers(1, dim + 1))
        rhs = " + ".join(f"{c} e{i}^e{j}" for c, i, j in terms) or "0"
        lines[at] = f"{lhs} = {rhs}"
    return "\n".join(lines) + "\n"


class TestExitContract:
    """Every input ends in a verdict or in a documented exit code with one
    line on stderr; anything else that escapes ``main`` is a bug."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.one_of(_build_case(), _catalog_case(), _mutated_l3_case()))
    def test_fuzzed_argv_keep_the_contract(self, case):
        argv, text = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if text is not None:
                path = Path(tmp) / "mutated.alg"
                path.write_text(text)
                argv = argv + [f"--file={path}"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3, 4)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1
        # a report on stdout, or one line on stderr saying why there is none
        assert bool(lines) == (out.getvalue() == "")

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_perturbed_catalog_text())
    def test_perturbed_catalog_coframes_keep_the_contract(self, text):
        """A one-line perturbation of a catalog coframe ends in a verdict, a
        parse error or a refused precondition, with at most one line on
        stderr, and gets exit 0 only if it passes ``require_qc``."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "perturbed.alg"
            path.write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["qc-report", "--file", str(path), "--format", "json"])
        assert code in (0, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
        if code == 0:
            algebra.require_qc(algebra.parse_algebra(text)[1])

    def test_one_exception_class_per_exit_code(self):
        """A refusal is raised as InputError, NotQcError or DomainError, whose
        exit code and stderr label ``main`` reads; the only subclasses are the
        two whose data a caller reads (``s`` and ``violations``).  Library
        misuse raises ValueError or TypeError."""
        defined = set()
        for info in pkgutil.iter_modules(qcforge.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"qcforge.{info.name}")
            defined |= {name for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__}
        assert defined == {"InputError", "NotQcError", "DomainError", "VerticalTerm",
                           "ReebFailure"}

    def test_a_bug_keeps_its_traceback(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not a refusal")

        monkeypatch.setattr(cli, "build_family", fail)
        with pytest.raises(np.linalg.LinAlgError):
            main(["build", "qk", "--family", "qk-l1"])


class TestSymbolic:
    @pytest.mark.parametrize("target", ["closedqc", "qk-closure",
                                        "spin7-closure", "triaxial",
                                        "hypo-evolution"])
    def test_targets_pass(self, capsys, target):
        code, out, _ = run(capsys, "symbolic", target)
        assert code == 0
        assert "overall: PASS" in out

    def test_spin7_closure_prints_system(self, capsys):
        _, out, _ = run(capsys, "symbolic", "spin7-closure")
        assert "2*f*f' - 12*f*h" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "symbolic", "triaxial", "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, schema())
        assert doc["ok"] is True


GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_ARGV = {
    **{f"qc-report_{e}.json": ["qc-report", "--catalog", e, "--format", "json"]
       for e in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3")},
    **{f"symbolic_{t}.json": ["symbolic", t, "--format", "json"]
       for t in ("closedqc", "qk-closure", "spin7-closure", "triaxial", "hypo-evolution")},
    # jet builds at default parameters: every float of the report is pinned
    **{f"build_{f}.json": ["build", "spin7" if f.startswith("spin7") else "qk",
                           "--family", f, "--format", "json"]
       for f in ("qk-heis", "qk-heis2", "qk-l1", "qk-l2", "qk-3sas", "qk-triaxial",
                 "ideal-family", "spin7-heis", "spin7-l1", "spin7-l2", "spin7-3sas",
                 "spin7-triaxial")},
    # 16-sample batches, as the benchmark builds them, at parameters it draws
    "build16_qk-triaxial.json": [
        "build", "qk", "--family", "qk-triaxial", "--param", "a1=1/2", "--param", "a2=1",
        "--param", "a3=3", "--format", "json", "--samples",
        "-0.2,-0.04,0.12,0.28,0.44,0.6,0.76,0.92,1.08,1.24,1.4,1.56,1.72,1.88,2.04,2.2"],
    "build16_spin7-triaxial.json": [
        "build", "spin7", "--family", "spin7-triaxial", "--param", "a1=1", "--param", "a2=6/5",
        "--param", "a3=-1", "--param", "C=2", "--format", "json", "--samples",
        "-3.5,-3.4,-3.3,-3.2,-3.1,-3.0,-2.9,-2.8,-2.7,-2.6,-2.5,-2.4,-2.3,-2.2,-2.1,-2.0"],
    # the largest batch: dimension 12 over heis(2), the benchmark's seed-1 argv
    "build16_qk-heis2.json": [
        "build", "qk", "--family", "qk-heis2", "--format", "json",
        "--samples=-0.305295,-0.295433,-0.248080,-0.166134,-0.088836,-0.049009,-0.039528,"
        "0.089170,0.128486,0.150606,0.184342,0.248966,0.274218,0.463627,0.504687,0.569108",
        "--param=b=2"],
    # every criterion's detail, byte for byte
    "sweep.json": ["sweep", "--format", "json"],
}


class TestGoldenOutputs:
    """The reports are pinned byte for byte: rationals, polynomials, the
    floats of the jet builds, verdicts and exit codes must not move."""

    def test_every_golden_file_is_checked(self):
        assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(GOLDEN_ARGV)

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_golden_file_fits_the_schema(self, name):
        jsonschema.validate(json.loads((GOLDEN / name).read_text()), schema())

    def test_schema_constrains_qc_report_results(self):
        doc = json.loads((GOLDEN / "qc-report_l1.json").read_text())
        for broken in ({"s": 0.5}, {"einstein": "yes"}, {"torsion_t0": {"1;1": "1"}},
                       {"extra": 1}, {"reeb_ok": False}):
            bad = {**doc, "results": {**doc["results"], **broken}}
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema())
        bad = {**doc, "results": {k: v for k, v in doc["results"].items() if k != "alphas"}}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema())

    def test_schema_constrains_build_results(self):
        doc = json.loads((GOLDEN / "build_spin7-l2.json").read_text())
        verdicts = doc["results"]["verdicts"]
        for broken in ({**verdicts, "rank_ok": "true"}, {**verdicts, "flat_ok": True}):
            bad = {**doc, "results": {**doc["results"], "verdicts": broken}}
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema())
        bad = {**doc, "results": {k: v for k, v in doc["results"].items() if k != "verdicts"}}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema())

    def test_schema_constrains_sweep_results(self):
        doc = json.loads((GOLDEN / "sweep.json").read_text())
        first = doc["results"]["criteria"][0]
        for broken in ({k: v for k, v in first.items() if k != "detail"}, {**first, "ok": 1},
                       {**first, "extra": 1}):
            bad = {**doc, "results": {"criteria": [broken]}}
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema())

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_output_matches(self, capsys, name):
        code, out, _ = run(capsys, *GOLDEN_ARGV[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text()


DIGEST = Path(__file__).parent / "data" / "digest.txt"


def test_output_digest_matches():
    """``tools/output_digest.py`` prints the lines of ``data/digest.txt``:
    the exit code and the bytes of stdout and stderr of every argv of its
    corpus are pinned.  A mismatch names each argv whose line moved."""
    tool = Path(__file__).parents[1] / "tools" / "output_digest.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True,
                          check=True)
    have, want = proc.stdout.splitlines(), DIGEST.read_text().splitlines()

    def argv(line):
        return f"qcforge {line.split(' ', 3)[3]}"[:120]

    moved = sorted({argv(line) for pair in zip(have, want) if pair[0] != pair[1]
                    for line in pair})
    assert not moved and len(have) == len(want), (len(have), len(want), moved)
