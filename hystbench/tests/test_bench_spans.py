"""Self-time arithmetic, the slope fit and the wrapping of hystctl's layers."""

import pytest

import spans

# A[0,10] -> B[1,4] -> C[2,3];  A -> D[5,9]
TREE = [
    ("experiments.a", 0.0, 10.0, -1),
    ("signals.b", 1.0, 4.0, 0),
    ("signals.c", 2.0, 3.0, 1),
    ("dynamics.d", 5.0, 9.0, 0),
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(TREE) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_root():
    inclusive, layer_self = spans.pass_totals(TREE)
    assert dict(layer_self) == {"experiments": 3.0, "signals": 3.0, "dynamics": 4.0}
    assert sum(layer_self.values()) == inclusive["experiments.a"]


def test_nested_calls_of_one_function_count_once():
    rec = [("signals.f", 0.0, 5.0, -1), ("signals.f", 1.0, 2.0, 0), ("signals.g", 3.0, 4.0, 0)]
    assert spans.outermost(rec) == [True, False, True]
    inclusive, _ = spans.pass_totals(rec)
    assert inclusive["signals.f"] == 5.0 and inclusive["signals.g"] == 1.0


def test_slope_is_fitted_per_group_and_the_steepest_wins():
    quad = [("pp", n, 1e-7 * n ** 2) for n in (300, 600, 1200)]
    lin = [("ss", n, 3e-5 * n) for n in (300, 600, 1200)]
    assert spans.steepest_slope(quad + lin) == pytest.approx(2.0)
    assert spans.steepest_slope(lin) == pytest.approx(1.0)


def test_slope_takes_medians_and_needs_two_sizes():
    samples = [("g", 10, 1.0), ("g", 10, 1.0), ("g", 10, 50.0), ("g", 100, 10.0)]
    assert spans.steepest_slope(samples) == pytest.approx(1.0)
    assert spans.steepest_slope([("g", 10, 1.0), ("h", 20, 3.0)]) == 0.0
    # a group with one size adds nothing
    mixed = [("g", 10, 1.0), ("g", 1000, 1e4), ("h", 50, 7.0)]
    assert spans.steepest_slope(mixed) == pytest.approx(2.0)


def test_tracer_wraps_layer_boundaries_and_restores_them():
    import types

    import hystctl
    from hystctl import experiments, hysteresis, signals

    original = hysteresis.play_apply
    api = types.SimpleNamespace(run=experiments.run_experiment)
    tracer = spans.Tracer()
    seen = []
    tracer.install(
        hystctl, [api],
        labels={"experiments.run_experiment": lambda a: f"experiments.{a[0]}"},
        hooks={"hysteresis.play_apply": lambda tr, a, out, s: seen.append(len(out.knots))},
    )
    try:
        tracer.begin_pass()
        assert api.run("fig5_density").verdict
        # the defining module keeps its own, unwrapped function
        assert hysteresis.play_apply is original
        assert experiments.play_apply is not original
    finally:
        tracer.uninstall()
    assert experiments.play_apply is original and hystctl.play_apply is original
    assert signals.sup_distance is experiments.sup_distance
    ps = tracer.pass_spans(0)
    assert ps[0][0] == "experiments.fig5_density" and ps[0][3] == -1
    names = {n for n, *_ in ps}
    assert {"constructions.build_vj", "hysteresis.play_apply", "signals.sup_distance"} <= names
    assert all(par >= 0 for *_, par in ps[1:])  # everything ran inside the experiment
    assert len(seen) == 3  # one play_apply per j in the default sweep
    self_total = sum(spans.self_times(ps))
    assert self_total == pytest.approx(ps[0][2] - ps[0][1], rel=1e-9)
