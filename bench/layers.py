"""Which public functions the traced run wraps, and the per-layer metrics
computed from its spans.

Keys name layers, not functions: every lookup site of one function shares a
key (``evolution.extended_d`` is looked up in ``evolution`` and in
``acceptance``).  All times are self times unless the metric says otherwise.
"""

from __future__ import annotations

from inputs import ENTRIES

# (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("algebra.parse_s", "s", "lower"),
    ("algebra.validate_s", "s", "lower"),
    ("algebra.jacobi_s", "s", "lower"),
    ("algebra.catalog_self_s", "s", "lower"),
    ("qc.reeb_s", "s", "lower"),
    ("qc.sp1_s", "s", "lower"),
    ("qc.torsion_s", "s", "lower"),
    ("qc.connection_s", "s", "lower"),
    ("qc.ricci_forms_s", "s", "lower"),
    ("qc.wqc_s", "s", "lower"),
    ("qc.fundamental_s", "s", "lower"),
    ("qc.analyze_self_s", "s", "lower"),
    ("qc.analyze_calls", "count", "lower"),
    ("qc.analyze_dup_share", "share", "lower"),
    ("riemann.curvature_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
]
for _e in ENTRIES:
    PER_LAYER += [
        (f"qc.analyze_s.{_e}", "s", "lower"),
        (f"riemann.curvature_s.{_e}", "s", "lower"),
        (f"qc.wqc_s.{_e}", "s", "lower"),
        (f"riemann.gamma_nnz_share.{_e}", "share", "higher"),
        (f"riemann.r_nnz_share.{_e}", "share", "higher"),
    ]
PER_LAYER += [
    ("evolution.build_s", "s", "lower"),
    ("evolution.builder_self_s", "s", "lower"),
    ("evolution.base_s", "s", "lower"),
    ("evolution.extended_d_s", "s", "lower"),
    ("evolution.extended_d_calls", "count", "lower"),
    ("evolution.ode_s", "s", "lower"),
    ("evolution.samples", "count", "higher"),
    ("evolution.ricci_sample_share", "share", "higher"),
    ("riemann.cartan_s", "s", "lower"),
    ("riemann.curvature_forms_s", "s", "lower"),
    ("riemann.ricci_rank_self_s", "s", "lower"),
    ("scalars.jet_new", "count", "lower"),
]
DGA_TARGETS = ("closedqc", "qk_closure", "spin7_closure", "triaxial_systems", "hypo_evolution")
PER_LAYER += [(f"dga.{t}_s", "s", "lower") for t in DGA_TARGETS]
PER_LAYER += [(f"acceptance.criterion_{k}_s", "s", "lower") for k in range(1, 15)]
PER_LAYER += [
    ("acceptance.run_all_self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.covered_share", "share", "higher"),
    ("trace.absent_targets", "count", "lower"),
    ("repo.src_lines", "lines", "lower"),
]


def _fingerprint(spec):
    """Structure of a qc coframe read through its public attributes."""
    alg = spec.algebra
    return (alg.dim, tuple(tuple(sorted(f.terms.items())) for f in alg.diff),
            tuple(spec.horizontal), tuple(spec.vertical),
            tuple(tuple(sorted(w.terms.items())) for w in spec.omega))


def targets():
    """``(key, module, attribute path, hook)`` for every wrapped lookup site."""
    seen = set()

    def analyze_hook(tracer, args, kwargs, result):
        spec = args[0] if args else kwargs.get("spec")
        try:
            key = _fingerprint(spec)
        except (AttributeError, TypeError):
            key = args[1] if len(args) > 1 else kwargs.get("name")
        tracer.counts["qc.analyze_dups"] += key in seen
        seen.add(key)

    def curvature_hook(tracer, args, kwargs, result):
        label = tracer.label
        if label is None or f"gamma_nnz@{label}" in tracer.counts:
            return
        conn = args[0] if args else kwargs.get("conn")
        try:
            n = conn.dim
            rng = range(1, n + 1)
            gamma = sum(conn.coeff(c, a, b) != 0 for a in rng for b in rng for c in rng)
            m = result.dim
            rng = range(1, m + 1)
            r = sum(result.entry(a, b, c, d) != 0
                    for a in rng for b in rng for c in rng for d in rng)
        except (AttributeError, TypeError, IndexError):
            return
        tracer.counts[f"gamma_nnz@{label}"] = gamma
        tracer.counts[f"gamma_all@{label}"] = n ** 3
        tracer.counts[f"r_nnz@{label}"] = r
        tracer.counts[f"r_all@{label}"] = m ** 4

    def build_hook(tracer, args, kwargs, result):
        if isinstance(result, dict):
            tracer.counts["evolution.samples"] += len(result.get("samples") or ())

    def dga(name):
        return (f"dga.{name}", "qcforge.dga", f"verify_{name}", None)

    return [
        ("cli.main", "qcforge.cli", "main", None),
        ("cli.command", "qcforge.cli", "cmd_qc_report", None),
        ("cli.command", "qcforge.cli", "cmd_build", None),
        ("cli.command", "qcforge.cli", "cmd_sweep", None),
        ("cli.command", "qcforge.qc", "QcReport.to_dict", None),
        ("algebra.parse", "qcforge.cli", "parse_algebra", None),
        ("algebra.parse", "qcforge.algebra", "parse_algebra", None),
        ("algebra.validate", "qcforge.algebra", "QcFrameSpec.validate", None),
        ("algebra.jacobi", "qcforge.algebra", "jacobi_check", None),
        ("algebra.jacobi", "qcforge.acceptance", "jacobi_check", None),
        ("algebra.catalog", "qcforge.cli", "catalog", None),
        ("algebra.catalog", "qcforge.evolution", "catalog", None),
        ("algebra.catalog", "qcforge.acceptance", "catalog", None),
        ("qc.analyze", "qcforge.qc", "analyze", analyze_hook),
        ("qc.reeb", "qcforge.qc", "reeb_check", None),
        ("qc.sp1", "qcforge.qc", "sp1_forms_and_S", None),
        ("qc.torsion", "qcforge.qc", "torsion_decomposition", None),
        ("qc.connection", "qcforge.qc", "biquard_connection", None),
        ("riemann.curvature", "qcforge.qc", "frame_curvature", curvature_hook),
        ("qc.ricci_forms", "qcforge.qc", "qc_ricci_forms", None),
        ("qc.wqc", "qcforge.qc", "wqc_tensor", None),
        ("qc.fundamental", "qcforge.qc", "fundamental_forms_check", None),
        ("evolution.build_family", "qcforge.cli", "build_family", build_hook),
        ("evolution.build_family", "qcforge.acceptance", "build_family", build_hook),
        ("evolution.base", "qcforge.evolution", "require_einstein_base", None),
        ("evolution.builder", "qcforge.evolution", "build_qk", None),
        ("evolution.builder", "qcforge.evolution", "build_spin7", None),
        ("evolution.builder", "qcforge.evolution", "build_diagonal", None),
        ("evolution.builder", "qcforge.evolution", "build_triaxial", None),
        ("evolution.extended_d", "qcforge.evolution", "extended_d", None),
        ("evolution.extended_d", "qcforge.acceptance", "extended_d", None),
        ("evolution.ode", "qcforge.evolution", "ode_residual", None),
        ("evolution.ode", "qcforge.acceptance", "ode_residual", None),
        ("riemann.ricci_rank", "qcforge.evolution", "ricci_and_rank", None),
        ("riemann.cartan", "qcforge.riemann", "cartan_connection", None),
        ("riemann.cartan", "qcforge.acceptance", "cartan_connection", None),
        ("riemann.curvature_forms", "qcforge.riemann", "curvature_forms", None),
        *(dga(t) for t in DGA_TARGETS),
        ("acceptance.run_all", "qcforge.acceptance", "run_all", None),
    ]


def install(tracer):
    tracer.install(targets())
    tracer.install_table("acceptance.criterion_{}", "qcforge.acceptance", "CRITERIA")
    tracer.count_calls("scalars.jet_new", "qcforge.scalars", "Jet.__init__")


def _share(num, den):
    return num / den if den else 0.0


def metrics(tracer, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass (every name of ``PER_LAYER``
    except the two the parent computes across passes)."""
    s, t, n, c = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    out = {
        "algebra.parse_s": s["algebra.parse"],
        "algebra.validate_s": s["algebra.validate"],
        "algebra.jacobi_s": s["algebra.jacobi"],
        "algebra.catalog_self_s": s["algebra.catalog"],
        "qc.reeb_s": s["qc.reeb"],
        "qc.sp1_s": s["qc.sp1"],
        "qc.torsion_s": s["qc.torsion"],
        "qc.connection_s": s["qc.connection"],
        "qc.ricci_forms_s": s["qc.ricci_forms"],
        "qc.wqc_s": s["qc.wqc"],
        "qc.fundamental_s": s["qc.fundamental"],
        "qc.analyze_self_s": s["qc.analyze"],
        "qc.analyze_calls": n["qc.analyze"],
        "qc.analyze_dup_share": _share(c["qc.analyze_dups"], n["qc.analyze"]),
        "riemann.curvature_s": s["riemann.curvature"],
        "cli.main_self_s": s["cli.main"],
        "cli.report_s": s["cli.command"],
    }
    for e in ENTRIES:
        out[f"qc.analyze_s.{e}"] = t[f"qc.analyze@{e}"]
        out[f"riemann.curvature_s.{e}"] = s[f"riemann.curvature@{e}"]
        out[f"qc.wqc_s.{e}"] = s[f"qc.wqc@{e}"]
        out[f"riemann.gamma_nnz_share.{e}"] = _share(c[f"gamma_nnz@{e}"], c[f"gamma_all@{e}"])
        out[f"riemann.r_nnz_share.{e}"] = _share(c[f"r_nnz@{e}"], c[f"r_all@{e}"])
    out.update({
        "evolution.build_s": t["evolution.build_family"],
        "evolution.builder_self_s": s["evolution.build_family"] + s["evolution.builder"],
        "evolution.base_s": s["evolution.base"],
        "evolution.extended_d_s": s["evolution.extended_d"],
        "evolution.extended_d_calls": n["evolution.extended_d"],
        "evolution.ode_s": s["evolution.ode"],
        "evolution.samples": c["evolution.samples"],
        "evolution.ricci_sample_share": _share(n["riemann.ricci_rank"], c["evolution.samples"]),
        "riemann.cartan_s": s["riemann.cartan"],
        "riemann.curvature_forms_s": s["riemann.curvature_forms"],
        "riemann.ricci_rank_self_s": s["riemann.ricci_rank"],
        "scalars.jet_new": c["scalars.jet_new"],
    })
    for name in DGA_TARGETS:
        out[f"dga.{name}_s"] = s[f"dga.{name}"]
    for k in range(1, 15):
        out[f"acceptance.criterion_{k}_s"] = t[f"acceptance.criterion_{k}"]
    out["acceptance.run_all_self_s"] = s["acceptance.run_all"]
    out["trace.covered_share"] = _share(t["cli.main"], pass_s)
    out["trace.absent_targets"] = len(tracer.absent)
    return out


def self_time_sum(tracer) -> float:
    """Sum of the self times of every span (per-input copies excluded)."""
    return sum(v for k, v in tracer.self_s.items() if "@" not in k)
