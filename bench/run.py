"""The qcforge benchmark: exact catalog, dense jet builds and the acceptance sweep.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact|jet|sweep|all --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh single-threaded interpreter
(``bench/child.py``), so the program's module caches start cold, as they do
for a CLI user.  Passes repeat, one after another, while the next one fits in
``--seconds``; at least one always runs.  Every verdict is checked against the
known answers in ``bench/answers.py``.  Times are scaled to a reference
machine speed measured by ``bench/speed.py``; the unscaled medians are printed
too.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
run alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import inputs
import layers

WORKLOADS = ("exact", "jet", "sweep")
END_TO_END = [
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_share", "share"),
]
MIN_SETUPS = 5          # set-up samples per run, when one set-up is cheap
CHEAP_SETUP_S = 1.0
CHILD_TIMEOUT_S = 150
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"


class ChildFailed(RuntimeError):
    pass


def _workload_inputs(workload: str, seed: int, workdir: Path):
    """(plan inputs, bases to warm in set-up, checker per input label)."""
    if workload == "exact":
        items, checks = [], {}
        for entry, text in inputs.exact_inputs(seed):
            path = workdir / f"{entry}.alg"
            path.write_text(text)
            items.append({"label": entry, "argv": inputs.exact_argv(str(path))})
            checks[entry] = lambda outcome, e=entry: answers.check_exact(e, outcome)
        return items, [], checks
    if workload == "jet":
        items, checks = [], {}
        for family, params, _samples, argv in inputs.jet_inputs(seed):
            items.append({"label": family, "argv": argv})
            checks[family] = lambda outcome, f=family, p=params: answers.check_jet(f, p, outcome)
        return items, [list(b) for b in inputs.EINSTEIN_BASES], checks
    items = [{"label": "sweep", "argv": inputs.SWEEP_ARGV}]
    return items, [], {"sweep": answers.check_sweep}


def _run_child(root: Path, plan: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    plan = dict(plan, src=str(root / "src"), t0=time.monotonic())
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py")],
                          input=json.dumps(plan), capture_output=True, text=True,
                          cwd=root, env=env, timeout=CHILD_TIMEOUT_S)
    wall = time.monotonic() - plan["t0"]
    if proc.returncode != 0:
        raise ChildFailed(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"pass process printed no result: {proc.stdout[-500:]}") from exc
    result["wall_s"] = wall
    return result


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least a share q of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tally(passes, checks) -> tuple:
    """(attempted, failed, problems) over the outcomes of ``passes``; an
    outcome fails when its label's checker reports any problem."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for outcome in p["outcomes"]:
            attempted += 1
            found = checks[outcome["label"]](outcome)
            if found:
                failed += 1
                problems.extend(found)
        if p.get("setup_error"):
            problems.append(f"set-up: {p['setup_error']}")
    return attempted, failed, problems


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "qcforge").rglob("*.py")))


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload for ``seconds`` and return its metrics and checks."""
    workdir = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items, bases, checks = _workload_inputs(workload, seed, workdir)
        plan = {"inputs": items, "warm_bases": bases}
        # Warm the byte-code and file caches once; not measured.
        _run_child(root, dict(plan, setup_only=True, warm_bases=[]))
        passes = {False: [], True: []}
        start = time.monotonic()
        while True:
            traced = trace and len(passes[True]) < len(passes[False])
            passes[traced].append(_run_child(root, dict(plan, trace=traced)))
            following = trace and len(passes[True]) < len(passes[False])
            recent = passes[following] or passes[not following]
            if time.monotonic() - start + recent[-1]["wall_s"] > seconds \
                    and (not trace or passes[True]):
                break
        setups = [p["setup_s"] for p in passes[False]]
        if not trace:
            while len(setups) < MIN_SETUPS and statistics.median(setups) < CHEAP_SETUP_S:
                setups.append(_run_child(root, dict(plan, setup_only=True))["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    attempted, failed, problems = tally(passes[False] + passes[True], checks)
    run = {"workload": workload, "attempted": attempted, "failed": failed,
           "problems": problems, "passes": len(passes[False]), "traced_passes": len(passes[True])}
    plain = passes[False]
    by_input = {}
    for p in plain:
        for o in p["outcomes"]:
            by_input.setdefault(o["label"], []).append(o["seconds"])
    # each input's typical verdict time; a quantile over all pooled samples
    # would be the tail of a dozen noisy samples
    verdicts = [statistics.median(times) for times in by_input.values()]
    run["raw_pass_s"] = statistics.median(p["raw_pass_s"] for p in plain)
    run["raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in plain)
    run["verdict_samples"] = sum(len(times) for times in by_input.values())
    run["verdict_inputs"] = len(by_input)
    run["setup_samples"] = len(setups)
    if not trace:
        run["metrics"] = {
            "pass_s": statistics.median(p["pass_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "verdict_s.p50": _quantile(verdicts, 0.5),
            "verdict_s.p90": _quantile(verdicts, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
            "ok_share": 1.0 - failed / attempted,
        }
        return run
    traced_passes = passes[True]
    per_layer = {name: statistics.median(p["layers"][name] for p in traced_passes)
                 for name in traced_passes[0]["layers"]}
    per_layer["trace.overhead_share"] = (
        statistics.median(p["pass_s"] for p in traced_passes)
        / statistics.median(p["pass_s"] for p in plain) - 1.0)
    per_layer["repo.src_lines"] = src_lines(root)
    run["metrics"] = per_layer
    run["absent"] = sorted({a for p in traced_passes for a in p["absent"]})
    # self times must add up to the outermost span, cli.main
    run["self_sum_error_s"] = max(
        abs(p["self_sum_s"] - p["layers"]["trace.covered_share"] * p["pass_s"])
        for p in traced_passes)
    return run


def _units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, unit, _better in layers.PER_LAYER}
    return dict(END_TO_END)


def _print_run(run: dict, trace: bool, seed: int):
    w = run["workload"]
    units = _units(trace)
    if w == "sweep":
        note = (f"{run['passes']} passes, one verdict each; the seed ({seed}) is ignored, "
                "the inputs are pinned in acceptance.py")
    else:
        note = (f"verdict_s quantiles over the medians of {run['verdict_inputs']} inputs, "
                f"{run['verdict_samples']} verdicts in {run['passes']} passes")
    print(f"# {w}: {note}; {run['setup_samples']} set-ups"
          + (f"; {run['traced_passes']} traced passes" if trace else ""))
    print(f"# {w}: times at reference speed; unscaled medians: pass {run['raw_pass_s']:.4f} s, "
          f"set-up {run['raw_setup_s']:.4f} s")
    for name in units:
        if name in run["metrics"]:
            print(f"{w:6s} {name:34s} {run['metrics'][name]:14.6f} {units[name]}")
    if not trace:
        print(f"{w:6s} {'failed_share':34s} {run['failed'] / run['attempted']:14.6f} share"
              f"   ({run['failed']} of {run['attempted']} inputs)")
    if trace:
        print(f"# {w}: self times add up to the traced passes' cli.main spans within "
              f"{run['self_sum_error_s']:.2e} s")
        if run["absent"]:
            print(f"# {w}: absent trace targets: {', '.join(run['absent'])}")
    for problem in run["problems"][:20]:
        print(f"# {w}: FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qcforge" / "__init__.py").is_file():
        print("bench: run from the root of a qcforge checkout (src/qcforge not found)",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [measure(w, args.seed, args.seconds, trace, root) for w in names]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    units = _units(trace)
    metrics = {}
    for run in runs:
        _print_run(run, trace, args.seed)
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": run["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
