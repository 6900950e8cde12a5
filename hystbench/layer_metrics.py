"""Per-layer metrics of the traced run: which spans and counters feed them.

Times are per pass, scaled like wall_s by the pass's reference factor, and
reported as the median over the measured passes; counts are per pass.
"""

from __future__ import annotations

import statistics

import oracles
import spans
from workloads import EXPERIMENT_IDS

INTEGRATORS = (
    "integrate_plain",
    "integrate_play_controls",
    "integrate_play_state",
    "integrate_switching",
    "integrate_bank",
)

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "signals.combine_s": "s",
    "signals.l1_distance_s": "s",
    "signals.sup_distance_s": "s",
    "signals.sample_s": "s",
    "signals.antiderivative_s": "s",
    "signals.merged_knots": "count",
    "signals.combine_slope": "log-log",
    "signals.l1_distance_slope": "log-log",
    "signals.sup_distance_slope": "log-log",
    "signals.self_s": "s",
    "hysteresis.play_apply_s": "s",
    "hysteresis.truncated_play_apply_s": "s",
    "hysteresis.play_knots_out": "count",
    "hysteresis.bank_trace_s": "s",
    "hysteresis.bank_events": "count",
    "hysteresis.bank_trace_us_per_event": "us",
    "hysteresis.bank_trace_k_slope": "log-log",
    "hysteresis.self_s": "s",
    "constructions.build_vk_s": "s",
    "constructions.build_vj_s": "s",
    "constructions.schedule_s": "s",
    "constructions.self_s": "s",
    **{f"dynamics.{f}_s": "s" for f in INTEGRATORS},
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.events": "count",
    "dynamics.field_evals": "count",
    "dynamics.field_evals_per_step": "count/step",
    "dynamics.log_entries": "count",
    "dynamics.self_s": "s",
    **{f"experiments.{e}_s": "s" for e in EXPERIMENT_IDS},
    "experiments.self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


def _kind(s) -> str:
    return type(s).__name__


def _merged(metric):
    def hook(tr, args, out, secs):
        n = len(oracles.merged_grid(args[0], args[1]))
        tr.count("signals.merged_knots", n)
        tr.size_sample(metric, (_kind(args[0]), _kind(args[1])), n, secs)
    return hook


def _play_out(tr, args, out, secs):
    tr.count("hysteresis.play_knots_out", len(out.knots))


def _bank(tr, args, out, secs):
    bank, zeta = args[0], args[1]
    tr.count("hysteresis.bank_events", len(out[1]))
    tr.size_sample("hysteresis.bank_trace_k_slope", len(zeta.knots), bank.k, secs)


def _relay_outputs(log) -> int:
    """Relay outputs stored in a trajectory's hysteresis_log (play samples
    are arrays and do not count)."""
    n = 0
    for entries in log.values():
        if isinstance(entries, list):
            for e in entries:
                n += sum(len(x) for x in e) if e and isinstance(e[0], tuple) else len(e)
    return n


def _integrator(evented):
    def hook(tr, args, traj, secs):
        steps = len(traj.times) - 1
        tr.count("dynamics.steps", steps)
        tr.count("dynamics.events", len(traj.events))
        tr.count("dynamics.log_entries", _relay_outputs(traj.hysteresis_log))
        if evented:
            tr.count("dynamics.event_steps", steps)
    return hook


LABELS = {"experiments.run_experiment": lambda args: f"experiments.{args[0]}"}
HOOKS = {
    "signals.combine": _merged("signals.combine_slope"),
    "signals.l1_distance": _merged("signals.l1_distance_slope"),
    "signals.sup_distance": _merged("signals.sup_distance_slope"),
    "hysteresis.play_apply": _play_out,
    "hysteresis.truncated_play_apply": _play_out,
    "hysteresis.bank_trace": _bank,
    **{f"dynamics.{f}": _integrator(f in ("integrate_switching", "integrate_bank"))
       for f in INTEGRATORS},
}


def per_layer(tracer: spans.Tracer, measured, factors, traced_walls) -> dict:
    """Per-layer metric values over the measured passes (indices into the
    tracer's passes) with their reference scale factors."""
    per_pass = []
    for p, f in zip(measured, factors):
        ps = tracer.pass_spans(p)
        inclusive, layer_self = spans.pass_totals(ps)
        c = tracer.pass_counts[p]
        v = {}
        for name in ("signals.combine", "signals.l1_distance", "signals.sup_distance",
                     "signals.sample", "signals.antiderivative", "hysteresis.play_apply",
                     "hysteresis.truncated_play_apply", "hysteresis.bank_trace",
                     "constructions.build_vk", "constructions.build_vj", "cli.main",
                     *(f"dynamics.{g}" for g in INTEGRATORS),
                     *(f"experiments.{e}" for e in EXPERIMENT_IDS)):
            v[f"{name}_s"] = inclusive.get(name, 0.0) * f
        v["constructions.schedule_s"] = f * sum(
            t for n, t in inclusive.items() if n.startswith("constructions.") and "schedule" in n
        )
        for layer in spans.LAYERS:
            v[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * f
        v["signals.merged_knots"] = c["signals.merged_knots"]
        v["hysteresis.play_knots_out"] = c["hysteresis.play_knots_out"]
        v["hysteresis.bank_events"] = c["hysteresis.bank_events"]
        v["hysteresis.bank_trace_us_per_event"] = (
            1e6 * v["hysteresis.bank_trace_s"] / c["hysteresis.bank_events"]
            if c["hysteresis.bank_events"] else 0.0
        )
        for key in ("steps", "events", "field_evals", "log_entries"):
            v[f"dynamics.{key}"] = c[f"dynamics.{key}"]
        integ = sum(v[f"dynamics.{g}_s"] for g in INTEGRATORS)
        v["dynamics.us_per_step"] = 1e6 * integ / c["dynamics.steps"] if c["dynamics.steps"] else 0.0
        v["dynamics.field_evals_per_step"] = (
            c["dynamics.field_evals"] / c["dynamics.event_steps"] if c["dynamics.event_steps"] else 0.0
        )
        v["trace.spans"] = len(ps)
        per_pass.append(v)
    out = {name: statistics.median(v[name] for v in per_pass)
           for name in METRICS if name in per_pass[0]}
    keep = set(measured)
    scale = dict(zip(measured, factors))
    for metric, samples in tracer.sizes.items():
        out[metric] = spans.steepest_slope(
            (g, size, secs * scale[p]) for p, g, size, secs in samples if p in keep
        )
    for metric in METRICS:
        out.setdefault(metric, 0.0)
    out["trace.wall_s"] = statistics.median(traced_walls)
    return out
