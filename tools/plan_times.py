"""Misses and self time of each cached plan builder of the jet path.

Usage, from the root of a checkout:

    python3 tools/plan_times.py --workload jet --seed 1 [--family qk-heis] [--src DIR]

Runs one cold pass over the inputs of a benchmark workload (``exact``,
``jet`` or ``sweep``, read from ``bench/inputs.py``) through
``qcforge.cli.main`` in this process, with the CLI's output captured, and
prints, for every cached plan builder of ``qcforge.riemann`` and
``qcforge.jetforms``, the number of plans it built (its cache misses) and
its self time: the time spent building them, less the time of the plans
other builders built inside it.  The last line is the builders' total and
its share of the pass.  ``--family`` keeps only the ``jet`` inputs of the
families named; ``--src`` imports the program from another checkout's
``src``.

Each builder is replaced, at every module attribute of ``qcforge`` that
holds it (such as ``evolution``'s import of ``_ideal_plan`` by name), by a
new, empty cache over a timed copy of the same function, so no plan is
warm and none escapes the count; the builders are restored at the end.
As in the benchmark's set-up, the ``jet`` workload's Einstein bases are
built before the pass and not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLAN_MODULES = ("qcforge.riemann", "qcforge.jetforms")


def _inputs():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module("inputs")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def builders() -> dict:
    """The cached functions of the plan modules, by ``module.attribute``."""
    out = {}
    for name in PLAN_MODULES:
        module = importlib.import_module(name)
        for attr, fn in vars(module).items():
            if hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
                out[f"{name.rpartition('.')[2]}.{attr}"] = fn
    return out


@contextlib.contextmanager
def timed_builders():
    """Replace every builder by an empty cache over a timed copy, at every
    module attribute of ``qcforge`` that holds it; yields {name: [misses,
    self seconds]} and restores the builders on exit."""
    stats, stack = {}, []

    def timed(name, fn):
        def run(*args):
            stats[name][0] += 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent = time.perf_counter() - start
                stats[name][1] += spent - stack.pop()
                if stack:
                    stack[-1] += spent
        return functools.lru_cache(maxsize=None)(run)

    swaps = {}
    for name, fn in builders().items():
        stats[name] = [0, 0.0]
        swaps[id(fn)] = (fn, timed(name, fn.__wrapped__))
    patched = []
    for module in [m for key, m in sys.modules.items() if key.startswith("qcforge")]:
        for attr, value in vars(module).items():
            if id(value) in swaps and swaps[id(value)][0] is value:
                patched.append((module, attr, value))
    try:
        for module, attr, value in patched:
            setattr(module, attr, swaps[id(value)][1])
        yield stats
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def workload_argv(workload: str, seed: int, families, workdir: Path) -> tuple:
    """(argv list, Einstein bases to build first) of one pass."""
    inputs = _inputs()
    if workload == "exact":
        argv = []
        for entry, text in inputs.exact_inputs(seed):
            path = workdir / f"{entry}.alg"
            path.write_text(text)
            argv.append(inputs.exact_argv(str(path)))
        return argv, ()
    if workload == "jet":
        return ([argv for family, _, _, argv in inputs.jet_inputs(seed)
                 if not families or family in families], inputs.EINSTEIN_BASES)
    return [inputs.SWEEP_ARGV], ()


def measure(workload: str, seed: int, families=()) -> tuple:
    """({builder: (misses, self seconds)}, pass seconds) of one cold pass."""
    from qcforge import cli, evolution

    with tempfile.TemporaryDirectory() as tmp:
        argvs, bases = workload_argv(workload, seed, families, Path(tmp))
        for name, scalar in bases:
            evolution.require_einstein_base(name, Fraction(scalar))
        with timed_builders() as stats:
            spent = 0.0
            for argv in argvs:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
                spent += time.perf_counter() - start
    return {name: tuple(x) for name, x in stats.items()}, spent


def report(stats: dict, spent: float) -> str:
    lines = [f"{'builder':<28} {'misses':>6} {'self ms':>9}"]
    for name, (misses, seconds) in sorted(stats.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<28} {misses:>6} {seconds * 1e3:>9.3f}")
    total = sum(seconds for _, seconds in stats.values())
    lines.append(f"plans {total * 1e3:.3f} ms of a {spent * 1e3:.3f} ms pass "
                 f"({100 * total / spent:.1f}%)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("exact", "jet", "sweep"), default="jet")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--family", action="append", default=[],
                        help="keep only this family's jet input (repeatable)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import qcforge from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    print(report(*measure(args.workload, args.seed, args.family)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
