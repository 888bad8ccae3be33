"""One cold pass of a workload, in a fresh interpreter.

Reads a plan as JSON on stdin, imports the program from the plan's ``src``
directory, warms what set-up covers, runs every input through ``cli.main``
with the CLI's output captured, and prints one JSON line with the timings,
the raw outcome of each input and, when traced, the per-layer metrics.
A speed probe (``bench/speed.py``) runs from the start; every time is
reported both unscaled (``raw_*``) and scaled to the reference speed.
The benchmark's parent process checks the outcomes; this process only runs.

Plan keys: ``src``, ``t0`` (the parent's ``time.monotonic()`` just before
it started this process), ``inputs`` (``[{"label", "argv"}]``),
``warm_bases`` (``[[name, scalar]]`` for ``evolution.require_einstein_base``),
``setup_only`` and ``trace``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

from speed import SpeedProbe

SETUP_EXTRA_SAMPLES = 5


def _run_input(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an input that raises is a failed verdict, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "error": error}


def _timed_input(cli, argv, probe: SpeedProbe) -> dict:
    """Run one input between two probe samples; durations exclude the
    probe's time and are scaled to the reference speed."""
    first = probe.sample()
    spent, cpu0, wall0 = probe.spent, time.process_time(), time.perf_counter()
    outcome = _run_input(cli, argv)
    wall = time.perf_counter() - wall0 - (probe.spent - spent)
    cpu = time.process_time() - cpu0 - (probe.spent - spent)
    scale = probe.scale(first, probe.sample())
    return dict(outcome, raw_seconds=wall, seconds=wall * scale, cpu_seconds=cpu * scale)


def main() -> int:
    probe = SpeedProbe()
    first = probe.start()
    plan = json.load(sys.stdin)
    src = os.path.abspath(plan["src"])
    sys.path.insert(0, src)
    import qcforge
    from qcforge import cli, evolution

    if not os.path.abspath(qcforge.__file__).startswith(src + os.sep):
        raise ImportError(f"qcforge imported from {qcforge.__file__}, not from {src}")
    setup_error = None
    for name, scalar in plan.get("warm_bases", ()):
        try:
            evolution.require_einstein_base(name, Fraction(scalar))
        except Exception as exc:  # the builds that need this base will fail and count
            setup_error = f"{name}: {type(exc).__name__}: {exc}"
    raw_setup = time.monotonic() - plan["t0"] - probe.spent
    # a short set-up holds only two probe samples; a few more read the
    # machine's speed of the moment more surely
    for _ in range(SETUP_EXTRA_SAMPLES):
        last = probe.sample()
    setup_s = raw_setup * probe.scale(first, last)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup, "setup_error": setup_error}
    if plan.get("setup_only"):
        probe.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if plan.get("trace"):
        import layers
        from spans import Tracer

        tracer = probe.tracer = Tracer()
        layers.install(tracer)
    outcomes = []
    for item in plan["inputs"]:
        if tracer is not None:
            tracer.label = item["label"]
        outcomes.append(dict(_timed_input(cli, item["argv"], probe), label=item["label"]))
    probe.stop()
    raw_pass = sum(o["raw_seconds"] for o in outcomes)
    pass_s = sum(o["seconds"] for o in outcomes)
    result.update(pass_s=pass_s, raw_pass_s=raw_pass,
                  cpu_s=sum(o["cpu_seconds"] for o in outcomes), outcomes=outcomes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.label = None
        scale = pass_s / raw_pass
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        result["layers"] = {name: value * scale if units[name] == "s" else value
                            for name, value in layers.metrics(tracer, raw_pass).items()}
        result["absent"] = tracer.absent
        result["self_sum_s"] = layers.self_time_sum(tracer) * scale
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
