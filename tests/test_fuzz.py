"""Seeded fuzz of both regimes over random Artinian quotients of k[x,y].

Rings k[x,y]/I with I = (x^a, y^b) plus up to two random monomials of
degree 2 or 3, and modules R/J for a few small J.  The dg jobs run the two
commands that build the acyclic closure and the semifree module:
verify-general with q = 4, 5 and the dg bar.  The A-infinity jobs run the
ainf bar, verify-golod and cycles at homDegree 5 on the same rings and
modules.  Every job must end in exit 0, or in an input or resource error
(2, 3); exit 1 would be a falsified bound on a theorem's hypotheses and
exit 4 a failed self-check.  `random_job` is the generator; a failing
job's document is in the assertion message.
"""

from __future__ import annotations

import copy
import random

from burchlab import pipeline
from burchlab.cli import FAILURE_TYPES, failure_exit, run_command
from burchlab.jobs import parse_job

MODULES = (["x", "y"], ["x"], ["y"], ["x+y"], ["x^2", "y"])
DG_COMMANDS = ({"command": "verify-general", "caps": {"homDegree": 5, "generalQs": [4, 5]}},
               {"command": "bar", "regime": "dg", "caps": {"homDegree": 5}})
AINF_COMMANDS = ({"command": "bar", "regime": "ainf", "caps": {"homDegree": 5}},
                 {"command": "verify-golod", "caps": {"homDegree": 5}},
                 {"command": "cycles", "caps": {"homDegree": 5}})
SEED, JOBS = 2026, 15
AINF_SEED, AINF_JOBS = 7, 45


def monomial(i: int, j: int) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e)


def random_job(rng: random.Random, commands=DG_COMMANDS) -> dict:
    ideal = [monomial(rng.randint(2, 4), 0), monomial(0, rng.randint(2, 4))]
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(2, 3)
        i = rng.randint(0, d)
        ideal.append(monomial(i, d - i))
    job = {"p": 32003, "vars": ["x", "y"], "ideal": ideal,
           "module": {"cyclic": rng.choice(MODULES)}}
    job.update(copy.deepcopy(commands[int(rng.random() * len(commands))]))
    return job


def run_job(job: dict) -> tuple:
    """(report body or None, exit code) as the CLI would end the job."""
    spec = parse_job(job)
    try:
        return run_command(spec.command, spec)
    except FAILURE_TYPES as e:
        return None, failure_exit(e)[0]


def test_seeded_dg_jobs_exit_cleanly_and_build_both_resolutions(monkeypatch):
    built = {"acyclic_closure": 0, "build_semifree_resolution": 0}
    for name in built:
        real = getattr(pipeline, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    rng = random.Random(SEED)
    for _ in range(JOBS):
        job = random_job(rng)
        body, code = run_job(job)
        assert code in (0, 2, 3), job
        rows = (body or {}).get("krank", {}).get("rows", [])
        assert all(row["ok"] for row in rows), job
    assert all(built.values()), built


def test_seeded_ainf_jobs_exit_cleanly_and_keep_their_golod_survivors():
    rng = random.Random(AINF_SEED)
    ran, survivor_rows = set(), 0
    for _ in range(AINF_JOBS):
        job = random_job(rng, AINF_COMMANDS)
        body, code = run_job(job)
        assert code in (0, 2, 3), job
        rows = (body or {}).get("krank", {}).get("rows", [])
        assert all(row["ok"] for row in rows), job
        if code == 0:
            ran.add(job["command"])
        if job["command"] == "verify-golod":
            for row in (body or {}).get("cycles", []):
                assert row["survivors"] == row["expected"], (job, row)
                survivor_rows += 1
    assert ran == {"bar", "verify-golod", "cycles"} and survivor_rows, (ran, survivor_rows)
