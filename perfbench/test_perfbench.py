"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import REF_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (build_calls, import_package, job_documents,  # noqa: E402
                       load_references)


def test_planted_wrong_reference_counts_as_failure():
    mods = import_package()
    good = run.check_pass(*_pass(build_calls("corpus", 1, mods, only={"ex_structure"})))
    assert good["errors"] == {}
    planted = copy.deepcopy(load_references("corpus"))
    planted["ex_structure"]["burch"]["burchIndex"] = 99
    calls = build_calls("corpus", 1, mods, references=planted, only={"ex_structure"})
    bad = run.check_pass(*_pass(calls))
    assert bad["errors"] == {"ex_structure": "report differs from the golden/reference"}


def _pass(calls):
    return calls, run.run_pass(calls)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_toy_call_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock, span_limit=1, overhead=(0.0, 0.0))
    f = {}

    def leaf():
        clock.t += 2

    def mid():
        clock.t += 1
        f["leaf"]()
        clock.t += 3
        f["leaf"]()

    def top():
        clock.t += 5
        f["mid"]()
        clock.t += 1

    def boom():
        raise KeyError("x")

    f["leaf"] = tr.wrap("b", "b.leaf", leaf)
    f["mid"] = tr.wrap("a", "a.mid", mid)
    f["top"] = tr.wrap("a", "a.top", top)
    f["boom"] = tr.wrap("b", "b.boom", boom)
    f["top"]()
    try:
        f["boom"]()
    except KeyError:
        pass

    fns = tr.fns
    assert (fns["b.leaf"].calls, fns["b.leaf"].total_s, fns["b.leaf"].self_s) == (2, 4, 4)
    assert (fns["a.mid"].total_s, fns["a.mid"].self_s) == (8, 4)
    assert (fns["a.top"].total_s, fns["a.top"].self_s) == (14, 6)
    layers = tr.layer_totals()
    assert layers["a"] == {"calls": 1, "self_s": 10, "errors": 0}
    assert layers["b"] == {"calls": 3, "self_s": 4, "errors": 1}
    # span_limit=1: the second leaf call is aggregated only, without a span
    assert tr.spans == [("a.top", 0, 14, -1), ("a.mid", 5, 13, 0), ("b.leaf", 6, 8, 1),
                        ("b.boom", 14, 14, -1)]


def test_wrapper_overhead_is_taken_out_of_self_time():
    # every call costs 1 s inside its span and 2 s outside it
    clock = FakeClock()
    tr = Tracer(clock=clock, overhead=(1.0, 2.0))
    f = {}

    def leaf():
        clock.t += 3

    def top():
        clock.t += 5
        f["leaf"]()
        clock.t += 2   # the outer cost of the leaf call

    f["leaf"] = tr.wrap("b", "b.leaf", leaf)
    f["top"] = tr.wrap("a", "a.top", top)
    clock.t += 4       # harness time
    f["top"]()
    clock.t += 2       # the outer cost of the top call
    assert tr.fns["b.leaf"].self_s == 3 - 1
    assert tr.fns["a.top"].self_s == 10 - (3 + 2) - 1
    assert tr.cost_s() == 2 * (1 + 2)
    wall = clock.t
    assert tr.outside_s(wall) == 4
    assert tr.outside_s(wall) + tr.cost_s() + sum(
        v["self_s"] for v in tr.layer_totals().values()) == wall


def test_speed_probe_reports_reference_seconds():
    clock = FakeClock()
    cost = [REF_S]

    def work():
        clock.t += cost[0]

    probe = SpeedProbe(clock=clock, work=work)
    probe.sample()                 # at the reference speed
    mark = probe.mark()
    clock.t += 1.0
    cost[0] = 3 * REF_S
    probe.sample()                 # at a third of it
    clock.t += 1.0
    raw, ref = probe.since(mark)
    assert raw == pytest.approx(2.0)               # the sampling time is taken out
    assert ref == pytest.approx(2.0 / 3)           # only the sample inside counts
    # a span without a sample of its own uses the last sample before it
    mark = probe.mark()
    clock.t += 0.5
    assert probe.since(mark) == pytest.approx((0.5, 0.5 / 3))


def test_speed_probe_samples_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.01) as probe:
        mark = probe.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        raw, ref = probe.since(mark)
    assert len(probe.samples) >= 5
    assert 0 < raw < 0.3 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_traced_pass_matches_untraced_pass():
    mods = import_package()
    calls = build_calls("corpus", 1, mods, only={"ex_structure", "ex_m2_2vars"})
    untraced = run.run_pass(calls)
    tr = Tracer()
    tr.install(mods)
    try:
        # names imported by another module are rebound too
        assert mods["pipeline"].minimalize is mods["contraction"].minimalize
        assert hasattr(mods["pipeline"].minimalize, "__wrapped__")
        traced = run.run_pass(calls)
    finally:
        tr.uninstall()
    assert not hasattr(mods["pipeline"].minimalize, "__wrapped__")
    assert not hasattr(mods["groebner"].Ideal.normal_form, "__wrapped__")
    strip = mods["report"].strip_timing
    assert untraced["errors"] == traced["errors"] == {}
    assert {n: strip(r) for n, r in traced["reports"].items()} == \
        {n: strip(r) for n, r in untraced["reports"].items()}
    layers = tr.layer_totals()
    assert layers["ainfty"]["calls"] > 0 and layers["krank"]["calls"] > 0
    self_s = sum(v["self_s"] for v in layers.values())
    assert abs(self_s + tr.outside_s(traced["wall"]) + tr.cost_s() - traced["wall"]) < 1e-9
    assert 0 < tr.cost_s() < traced["wall"]


def test_inputs_follow_the_seed():
    assert job_documents("theorem-a", 7) == job_documents("theorem-a", 7)
    for seed in range(20):
        doc = json.loads(dict(job_documents("theorem-a", seed))["random2"])
        rels = doc["module"]["presentation"]["relations"]
        (a, b), (c, d) = ([int(e.split("*")[0]) for e in col] for col in rels)
        assert [[e.split("*")[1] for e in col] for col in rels] == [["x", "y"], ["x", "y"]]
        assert (a * d - b * c) % 32003 != 0


def test_setup_sample_keeps_the_modules_in_use():
    mods = import_package()
    assert run.setup_sample("corpus", 1) > 0
    assert sys.modules["burchlab.linalg"] is mods["linalg"]
    assert sys.modules["burchlab"].linalg is mods["linalg"]


def test_benchmark_json_lists_the_harness_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_spec()
