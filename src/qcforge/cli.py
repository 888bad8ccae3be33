"""Command-line front end.

Commands
--------
check-algebra   parse a structure-equation file or catalog entry and gate
                it on integrability
qc-report       run the full verification pipeline on a qc coframe
build           assemble a metric family and report residuals, Ricci data
                and the curvature-span rank
symbolic        run a symbolic coefficient-system verification
sweep           run the complete acceptance suite

Exit codes: 0 pass, 1 verification failure, 2 parse error, 3 structural
precondition failure, 4 domain error.  Every refusal is an ``InputError``
(2), ``NotQcError`` (3) or ``DomainError`` (4), and :func:`main` alone
turns it into its exit code and one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from . import __version__, acceptance, dga, qc
from .algebra import (JacobiReport, catalog, format_algebra, jacobi_check, parse_algebra,
                      require_qc, violation_text)
from .evolution import FAMILIES, TOL_RESIDUAL, TOL_RICCI, build_family, verdicts
from .scalars import (DomainError, InputError, NotQcError, parse_float, parse_rational,
                      shown_digits)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_STRUCTURAL = 3


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report(command: str, source: str, source_text: str, params: dict,
            ok: bool, results: dict) -> dict:
    return {
        "tool": "qcforge",
        "version": __version__,
        "command": command,
        "input": source,
        "input_sha256": _sha256(source_text),
        "params": {k: str(v) for k, v in params.items()},
        "ok": ok,
        "results": results,
    }


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"qcforge {report['version']}  {report['command']}  {report['input']}")
    if report["params"]:
        print("params: " + ", ".join(f"{k}={v}" for k, v in report["params"].items()))
    _emit_tree(report["results"], indent="  ")
    print(f"overall: {'PASS' if report['ok'] else 'FAIL'}")


def _emit_tree(node, indent):
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                print(f"{indent}{key}:")
                _emit_tree(value, indent + "  ")
            else:
                print(f"{indent}{key}: {_fmt(value)}")
    elif isinstance(node, list):
        for value in node:
            print(f"{indent}- {_fmt(value)}")


def _is_scalar_list(value):
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value)


def _fmt(value):
    if isinstance(value, bool) or value is None:
        return {True: "PASS", False: "FAIL", None: "n/a"}[value]
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _load_source(args):
    """(source, text, algebra, spec); spec is None for a file without a qc block."""
    if args.catalog is not None:
        spec = catalog(args.catalog)
        return f"catalog:{args.catalog}", format_algebra(spec.algebra, spec), spec.algebra, spec
    path = args.file
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise InputError(exc) from exc
    return (f"file:{path}", text, *parse_algebra(text))


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError(f"--param needs name=value, got {shown_digits(pair)!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key in out:
            raise InputError(f"--param {shown_digits(key)} given more than once")
        out[key] = parse_rational(value)
    return out


def _parse_samples(text):
    if text is None:
        return None
    points = [parse_float(x) for x in text.replace(",", " ").split()]
    if not points:
        raise InputError("--samples needs at least one point")
    return points


def cmd_check_algebra(args) -> int:
    source, text, alg, _ = _load_source(args)
    # a catalog entry is gated when it is loaded, so it has passed the check
    rep = jacobi_check(alg) if args.file is not None else JacobiReport(ok=True)
    results = {
        "dim": alg.dim,
        "jacobi_ok": rep.ok,
        "violations": [violation_text(v) for v in rep.violations[:10]],
    }
    _emit(_report("check-algebra", source, text, {}, rep.ok, results), args.format)
    return EXIT_OK if rep.ok else EXIT_VERIFICATION


def cmd_qc_report(args) -> int:
    source, text, _, spec = _load_source(args)
    if spec is None:
        raise NotQcError("input has no qc block")
    if args.file is not None:  # a catalog entry is gated when it is loaded
        require_qc(spec)
    try:
        report = qc.analyze(spec, source)
    except qc.ReebFailure as exc:
        results = {"name": source, "reeb_ok": False, "violations": exc.violations}
        _emit(_report("qc-report", source, text, {}, False, results), args.format)
        return EXIT_STRUCTURAL
    ok = all((report.scalar_crosscheck_ok, report.rho_crosscheck_ok,
              report.sp1curv_ok, report.lemma_closed))
    _emit(_report("qc-report", source, text, {}, ok, report.to_dict()), args.format)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_build(args) -> int:
    fam = FAMILIES.get(args.family)
    if fam is None:
        known = sorted(name for name, f in FAMILIES.items() if f.pattern == args.kind)
        raise InputError(f"unknown family {shown_digits(args.family)!r}; "
                         f"known: {', '.join(known)}")
    if fam.pattern != args.kind:
        raise InputError(f"family {args.family} is not of kind {args.kind}")
    if not (args.tol_residual > 0 and args.tol_ricci > 0):  # NaN is refused too
        raise InputError("tolerances must be positive")
    result = build_family(args.family, params=_parse_params(args.param) or None,
                          samples=_parse_samples(args.samples))
    result["verdicts"] = verdicts(args.family, result, args.tol_residual, args.tol_ricci)
    ok = all(result["verdicts"].values())
    fam_text = f"{fam.name} {sorted(result['params'].items())}"
    _emit(_report("build", f"family:{args.family}", fam_text,
                  result["params"], ok, result), args.format)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_symbolic(args) -> int:
    ok, results = dga.SYMBOLIC_TARGETS[args.target]()
    _emit(_report("symbolic", f"target:{args.target}", args.target, {}, ok, results),
          args.format)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    results = acceptance.run_all()
    ok = all(r[2] for r in results)
    if args.format == "json":
        payload = {
            "criteria": [{"number": n, "title": t, "ok": o, "detail": d}
                         for n, t, o, d in results],
        }
        _emit(_report("sweep", "acceptance", "acceptance", {}, ok, payload), "json")
    else:
        for n, t, o, d in results:
            print(f"criterion {n:2d} [{'PASS' if o else 'FAIL'}] {t}: {d}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFICATION


# longer than any choice or option name that argparse writes in a message
_ECHO_WORD = 32


class _Parser(argparse.ArgumentParser):
    """argparse, except that a message echoing an argument longer than
    ``_ECHO_WORD`` characters is cut through ``shown_digits`` and written as
    one line, without the usage.  Subparsers are of this class too."""

    def error(self, message):
        cut = re.sub(rf"[^\s']{{{_ECHO_WORD + 1},}}", lambda m: shown_digits(m[0]), message)
        if cut == message:
            super().error(message)  # the usage, then the message; exits 2
        self.exit(2, f"{self.prog}: error: {cut}\n")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand names
    its handler ``cmd_<command>``, looked up when :func:`main` runs it."""
    parser = _Parser(
        prog="qcforge",
        description="exact exterior-calculus verification of quaternionic "
                    "contact coframes and their special-holonomy metric families")
    parser.add_argument("--version", action="version", version=f"qcforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--catalog", help="catalog name, e.g. l1 or heis(2)")
        group.add_argument("--file", help="structure-equation file")

    add_io(sub.add_parser("check-algebra", help="parse and integrability-check a coframe"))
    add_io(sub.add_parser("qc-report", help="full verification pipeline on a qc coframe"))

    p = sub.add_parser("build", help="assemble and verify a metric family")
    p.add_argument("kind", choices=("qk", "spin7"))
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--samples", help="comma-separated sample points")
    p.add_argument("--tol-residual", type=float, default=TOL_RESIDUAL)
    p.add_argument("--tol-ricci", type=float, default=TOL_RICCI)

    p = sub.add_parser("symbolic", help="symbolic coefficient-system checks")
    p.add_argument("target", choices=tuple(dga.SYMBOLIC_TARGETS))

    sub.add_parser("sweep", help="run the acceptance suite")
    for p in sub.choices.values():  # the last option of every subcommand
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _join_samples(argv) -> list:
    """Glue each ``--samples`` to its value, so that a list starting with a
    negative point is not read as an option."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--samples":
            value = next(tokens, None)
            tok = tok if value is None else f"--samples={value}"
        out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_samples(argv))
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (InputError, NotQcError, DomainError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
