"""Each workload's checks pass on the program's results and catch a wrong one
(at small sizes, so the test stays fast)."""

import dataclasses

import pytest

import workloads


def run(wl):
    return [fn() for _, fn in wl.ops()]


@pytest.fixture
def small(monkeypatch):
    for name, value in {
        "LONG_SIZES": (20, 40), "BANK_KS": (4, 8), "ZETA_KNOTS": 20,
        "SW_INTERVALS": 20, "IB_K": 8, "IB_SWEEPS": 2,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def test_long_signals_checks(small):
    wl = workloads.LongSignals(3, workloads.program_api())
    labels = [label for label, _ in wl.ops()]
    res = run(wl)
    assert wl.check(res) == [None] * len(res)
    bad = list(res)
    i = labels.index("n20.l1_pp")
    bad[i] = res[i] * (1 + 1e-6)
    j = labels.index("n40.sample_pa")
    bad[j] = res[j] + 1e-9
    k = labels.index("n40.derivative")
    bad[k] = wl.sizes[1].s2
    fails = [n for n, msg in enumerate(wl.check(bad)) if msg]
    assert fails == [i, j, k]


def test_relay_events_checks(small):
    wl = workloads.RelayEvents(4, workloads.program_api(), count_fields=True)
    res = run(wl)
    assert wl.check(res) == [None] * len(res)
    assert wl.field_evals[0] > 0 and wl.sw_events and all(wl.ib_events)
    bad = list(res)
    out, events, final = res[0]
    events = [dataclasses.replace(events[0], time=events[0].time + 1e-3)] + list(events[1:])
    bad[0] = (out, events, final)
    traj = res[-2]
    bad[-2] = dataclasses.replace(traj, events=traj.events[:-1])
    bad[-1] = RuntimeError("integrator failed")
    fails = [n for n, msg in enumerate(wl.check(bad)) if msg]
    assert fails == [0, len(res) - 2, len(res) - 1]


def test_paper_suite_checks(tmp_path):
    wl = workloads.PaperSuite(0, workloads.program_api(), str(tmp_path))
    res = run(wl)
    assert res[-1] == 0
    assert wl.check(res) == [None] * len(res)
    i = workloads.EXPERIMENT_IDS.index("fig5_density")
    rows = [dict(r, sup_error=r["sup_error"] * 1.01) for r in res[i].rows]
    bad = list(res)
    bad[i] = dataclasses.replace(res[i], rows=rows)
    fails = [n for n, msg in enumerate(wl.check(bad)) if msg]
    assert fails == [i]
