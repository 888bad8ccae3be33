"""Alternating benchmark pairs of two checkouts, and whether a gain holds.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --workload jet --seconds 8 \
        --pairs 10 --seed 11 [--claim pass_s] [--record BENCH_trajectory.json]

Runs ``python3 bench/run.py --workload W --seconds S --seed k`` in the
parent checkout and in the changed one, one run at a time, for N pairs;
pair i (1-based) runs at seed ``--seed + i - 1``, the parent first on odd
pairs and the change first on even ones.  Each run's last line of standard
output is the benchmark's JSON result; its unscaled pass median is read from
the ``# W: times at reference speed; unscaled medians: pass X s`` line.  The
tool prints every run's end-to-end metrics and unscaled pass, then per
metric each side's median and quartiles, the
relative change of the medians (change / parent - 1, in %), the
change's wins (ties count for neither side), whether a gain holds (the
change wins at least nine tenths of the pairs, and its median is better
than the parent's by more than the distance between the parent's
quartiles), whether the change is worse (its median is worse than the
parent's by more than the metric's ``bound`` times the parent's median)
and whether the comparison is unresolved (the distance between the
parent's quartiles exceeds that margin, and not every run of the change
reads better than every run of the parent).  The metrics, their
directions and their bounds are read from the change's
``BENCHMARK.json``.  The tool exits with 1 when a run fails, when any
metric is worse or unresolved, or when the gain of the metric named by
``--claim`` does not hold.  Below the table it prints each side's median
unscaled pass and the median over pairs of the change/parent ratio of the
unscaled passes; a pair's two runs are adjacent in time, so they see the
same machine-speed phase more often than medians across pairs do.  The
verdicts read the scaled metrics only.

``--record PATH`` adds the runs to the trajectory file PATH (its format is
in README.md): one entry per side, keyed by the checkout's commit, with the
workload's seeds, run length, every run and the quartiles of each
end-to-end metric, and every run's unscaled pass.  An entry of the same
commit gains the workload, or has it replaced; its other fields, the
tier-1 wall times included, are kept.

Each run starts in its own process group, which is killed if the run fails
or the tool is interrupted, so no benchmark process outlives the tool.
Checkouts whose paths differ in length can differ in peak RSS; use paths
of one length.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800
_UNSCALED = re.compile(r"# \S+: times at reference speed; unscaled medians: pass (\S+) s")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """The comparison of one metric over pairs of runs, ``parent[i]``
    beside ``change[i]``: each side's quartiles, the relative change of the
    medians (change / parent - 1; NaN on a parent median of 0), the
    change's wins, whether
    a gain holds (wins in at least nine tenths of the pairs, and medians
    that differ in the better direction by more than the parent's
    interquartile range), whether the change is worse (medians that differ
    in the worse direction by more than ``bound`` times the parent's
    median) and whether the comparison is unresolved (the parent's
    interquartile range exceeds that margin, and the change's runs do not
    all read better than all of the parent's)."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gain, spread = sign * (c_q[1] - p_q[1]), p_q[2] - p_q[0]
    margin = bound * abs(p_q[1])
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    relative = c_q[1] / p_q[1] - 1.0 if p_q[1] else math.nan
    return {"parent": p_q, "change": c_q, "relative": relative, "wins": wins, "pairs": len(parent),
            "holds": wins >= 0.9 * len(parent) and gain > spread, "worse": -gain > margin,
            "unresolved": spread > margin and not apart}


def unscaled_pass(out: str) -> float | None:
    """The unscaled pass median in s that ``bench/run.py`` prints on
    standard output, or None when it prints none."""
    found = _UNSCALED.search(out)
    return None if found is None else float(found.group(1))


def pair_ratio(parent: list, change: list) -> float:
    """The median over pairs of ``change[i] / parent[i]``."""
    return statistics.median(c / p for p, c in zip(parent, change))


def run_bench(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in ``root``; its JSON result with the run's
    ``unscaled_pass_s``, or a dict with an ``error`` when it fails."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None or proc.returncode != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {err.strip()[-300:]}"}
    return {**json.loads(lines[-1]), "unscaled_pass_s": unscaled_pass(out)}


def _git(root: Path, *args) -> str | None:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def checkout(root: Path) -> dict:
    """The commit of a checkout, its parent, whether its tracked files differ
    from the commit, and the benchmark's ``repo.src_lines``."""
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "parent": _git(root, "rev-parse", "HEAD^"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted((root / "src" / "qcforge").rglob("*.py")))}


def entry(source: dict, workload: str, seconds: float, seeds: list, runs: list,
          unscaled: list | None = None) -> dict:
    """The trajectory entry of one side's runs (dicts of end-to-end metric
    values, in seed order) of ``workload``, for the checkout ``source``,
    with the runs' ``unscaled`` passes when given."""
    metrics = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        metrics[name] = {"runs": values, "quartiles": list(quartiles(values))}
    work = {"seeds": seeds, "seconds": seconds, "metrics": metrics}
    if unscaled is not None:
        work["unscaled_pass_s"] = unscaled
    return {**source, "date": datetime.date.today().isoformat(),
            "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
            "workloads": {workload: work}}


def record(path: Path, new: list) -> None:
    """Merge the entries ``new`` into the trajectory file at ``path``."""
    data = json.loads(path.read_text()) if path.exists() else {"entries": []}
    for e in new:
        old = next((o for o in data["entries"] if o["commit"] == e["commit"]), None)
        if old is None:
            data["entries"].append({**e, "tier1_wall_s": []})
        else:
            old.update({k: v for k, v in e.items() if k != "workloads"})
            old["workloads"].update(e["workloads"])
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="the end-to-end metric whose gain must hold")
    parser.add_argument("--record", type=Path, help="the trajectory file to add the runs to")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim: no end-to-end metric {args.claim!r}")
    runs, unscaled = {"parent": [], "change": []}, {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(getattr(args, side), args.workload, args.seconds, seed)
            if "error" in result or not result.get("correct"):
                print(f"pair {i + 1} {side} seed {seed}: failed: "
                      f"{result.get('error', 'a verdict is wrong')}")
                return 1
            runs[side].append({name: result["metrics"][name]["value"] for name in metrics})
            unscaled[side].append(result.get("unscaled_pass_s"))
            shown = " ".join(f"{name}={runs[side][-1][name]:.6g}" for name in metrics)
            if unscaled[side][-1] is not None:
                shown += f" unscaled_pass_s={unscaled[side][-1]:.6g}"
            print(f"pair {i + 1} seed {seed} {side}: {shown}", flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}; quartiles q1 / median / q3")
    failed = []
    for name, (better, bound) in metrics.items():
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      better, bound)
        p, c = ("{:.6g} / {:.6g} / {:.6g}".format(*s[side]) for side in ("parent", "change"))
        print(f"{name:14s} parent {p}  change {c}  {100 * s['relative']:+.1f}%  "
              f"wins {s['wins']}/{s['pairs']}  "
              f"gain {'holds' if s['holds'] else 'does not hold'}"
              f"{'  WORSE' if s['worse'] else ''}{'  UNRESOLVED' if s['unresolved'] else ''}")
        if s["worse"] or s["unresolved"] or (name == args.claim and not s["holds"]):
            failed.append(name)
    raw = None not in unscaled["parent"] + unscaled["change"]
    if raw:
        p, c = (statistics.median(unscaled[side]) for side in ("parent", "change"))
        ratio = pair_ratio(unscaled["parent"], unscaled["change"])
        print(f"unscaled pass  parent {p:.6g}  change {c:.6g}  {100 * (c / p - 1):+.1f}%  "
              f"pair ratio {ratio:.4f} ({100 * (ratio - 1):+.1f}%)")
    if args.record is not None:
        seeds = list(range(args.seed, args.seed + args.pairs))
        record(args.record, [entry(checkout(getattr(args, side)), args.workload, args.seconds,
                                   seeds, runs[side], unscaled[side] if raw else None)
                             for side in ("parent", "change")])
    if failed:
        print(f"not accepted: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
