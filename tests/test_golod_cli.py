import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burchlab.ainfty import AInfAlgebra, AInfModule
from burchlab.bar import poincare_bound_series
from burchlab.burch import minimal_generators
from burchlab.contraction import minimalize
from burchlab.dgmodule import taylor_module_fast_path
from burchlab.errors import InputError
from burchlab.golod import golod_check
from burchlab.jobs import parse_job
from burchlab.report import reports_equal, strip_timing
from support.oracle import resolve_over_Q

CORPUS = Path(__file__).resolve().parents[1] / "src" / "burchlab" / "corpus"


def test_poincare_bound_series_m2():
    # P_k^Q / (1 - t(P_R^Q - 1)) = (1+t)^2 / (1 - t(3t + 2t^2)) = 1/(1-2t)
    series = poincare_bound_series([1, 3, 2], [1, 2, 1], 8)
    assert series == [2 ** i for i in range(9)]


def test_golod_check_m2(m2_ideal):
    R = m2_ideal.ring
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    alg = AInfAlgebra(ctr_x, X)
    mod = AInfModule(alg, ctr_y, Ymod)
    rep, bar = golod_check(alg, mod, m2_ideal, 8)
    assert rep["golod"] and rep["barMinimal"]
    assert rep["barRanks"] == rep["poincareBound"] == [2 ** i for i in range(9)]
    assert rep["PRoverQ"] == [1, 3, 2] and rep["PMoverQ"] == [1, 2, 1]


def test_golod_check_free_module_is_not_golod(m2_ideal):
    # M = R has Betti numbers (1, 0, 0, ...), far below the growth bound, so
    # the bar resolution cannot be minimal and the verdict is negative
    from burchlab.resolve import ModulePresentation
    from burchlab.dgmodule import build_semifree_resolution
    from burchlab.taylor import TaylorComplex

    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    Y = build_semifree_resolution(ModulePresentation.cyclic(m2_ideal, []), X, up_to=6)
    alg = AInfAlgebra(minimalize(X.complex), X)
    mod = AInfModule(alg, minimalize(Y.complex).truncated(5), Y)
    rep, bar = golod_check(alg, mod, m2_ideal, 5)
    assert not rep["golod"] and not rep["barMinimal"]
    # the least unit entry by (n, column, row), whatever the assembly order
    assert rep["firstUnitEntry"] == [2, 0, 2]
    # the rank formula itself still matches the series expansion
    assert rep["barRanks"] == rep["poincareBound"] == [1, 3, 5, 11, 21, 43]


@pytest.mark.parametrize("module", [
    {"presentation": {"generatorDegrees": [0, 0], "relations": [["x", "0"], ["y", "x"]]}},
    {"cyclic": ["x+y"]},
])
def test_presented_module_pm_over_q_is_the_q_resolution(module):
    # ainf_pair's semifree Y is exact through homDegree + 1 only; its minimal
    # model above that degree (the unkilled homology and Y's top degree) is
    # cut off, else PMoverQ grows entries no Q-resolution of M has
    from burchlab.cli import run_command

    spec = parse_job(m2_job(module=module, caps={"homDegree": 5}))
    body, code = run_command("verify-golod", spec)
    pres = spec.presentation(spec.context())
    assert body["golod"]["PMoverQ"] == resolve_over_Q(pres).poincare_coeffs()
    assert code == 0


# -- job parsing --------------------------------------------------------------


def test_parse_job_roundtrip():
    doc = json.loads((CORPUS / "ex_bione.json").read_text())
    spec = parse_job(doc)
    assert parse_job(spec.to_dict()).to_dict() == spec.to_dict()


def test_parse_job_missing_field():
    with pytest.raises(InputError):
        parse_job({"p": 32003, "vars": ["x"], "ideal": ["x^2"]})


def test_parse_job_rejects_linear_generator():
    with pytest.raises(InputError):
        parse_job({"p": 32003, "vars": ["x", "y"], "ideal": ["x"],
                   "module": {"cyclic": ["x"]}})


def test_parse_job_rejects_bad_polynomial():
    with pytest.raises(InputError):
        parse_job({"p": 32003, "vars": ["x"], "ideal": ["x**2"],
                   "module": {"cyclic": ["x"]}})


@pytest.mark.parametrize("p", [1022117, 21])   # 1009 * 1013 and 3 * 7
def test_parse_job_rejects_composite_p(p):
    with pytest.raises(InputError):
        parse_job({"p": p, "vars": ["x", "y"], "ideal": ["x^2", "y^2"],
                   "module": {"cyclic": ["x"]}})


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "burchlab.cli", *args],
                          capture_output=True, text=True)


def test_cli_burch_bione():
    r = run_cli("burch", "--job", str(CORPUS / "ex_bione.json"))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["burch"]["burchIndex"] == 1
    assert set(rep["burch"]["burchIdeal"]) == {"y", "x^2"}
    assert set(rep["burch"]["socle"]) == {"y^2", "x*y", "x^3"}


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("burch", "--job", str(CORPUS / "ex_m2_2vars.json"), "--out", str(out1)).returncode == 0
    assert run_cli("burch", "--job", str(CORPUS / "ex_m2_2vars.json"), "--out", str(out2)).returncode == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert reports_equal(a, b)
    assert json.dumps(strip_timing(a)) == json.dumps(strip_timing(b))


def test_cli_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 32003, "vars": ["x"], "ideal": ["x"],
                               "module": {"cyclic": ["x"]}}))
    r = run_cli("burch", "--job", str(bad))
    assert r.returncode == 2


def test_cli_composite_prime_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 1022117, "vars": ["x", "y"], "ideal": ["x^2", "y^2"],
                               "module": {"cyclic": ["x"]}}))
    assert run_cli("burch", "--job", str(bad)).returncode == 2
    r = run_cli("burch", "--job", str(CORPUS / "ex_bione.json"), "--prime", "21")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
def test_cli_unreadable_job_exit_code(tmp_path, capsys, kind):
    # each used to exit 4 as an internal error (FileNotFoundError and so on)
    from burchlab.cli import main

    path = tmp_path / "job.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not UTF-8":
        path.write_bytes(json.dumps(m2_job(name="ex")).encode().replace(b"ex", b"e\xff"))
    assert main(["burch", "--job", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err and err.count("\n") == 1


def test_cli_unwritable_out_exit_code(monkeypatch, tmp_path, capsys):
    # a single command printed a traceback and exited 1, the code of a failed
    # bound; corpus ran every job and then exited 4, and now runs none
    from burchlab import cli

    out = str(tmp_path / "missing" / "report.json")
    assert cli.main(["burch", "--job", str(CORPUS / "ex_m2_2vars.json"), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out}") and err.count("\n") == 1
    monkeypatch.setattr(cli, "corpus_entries",
                        lambda: [("ex_structure.json", CORPUS / "ex_structure.json")])
    monkeypatch.setattr(cli, "run_command", lambda command, spec: pytest.fail("a job ran"))
    assert cli.main(["corpus", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {out}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("options", [
    ["--job", "nothing.json"], ["--cap", "3"], ["--prime", "4"], ["--regime", "dg"],
    ["--cap", "3", "--prime", "4", "--job", "nothing.json"],
])
def test_corpus_refuses_per_job_options(monkeypatch, capsys, options):
    # each was ignored: corpus ran every job as written and exited 0
    from burchlab import cli

    monkeypatch.setattr(cli, "run_corpus", lambda out_path: pytest.fail("corpus ran"))
    assert cli.main(["corpus", *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: corpus") and err.count("\n") == 1
    assert all(option in err for option in options if option.startswith("--"))


def test_cli_vacuous_general_bounds_exit_zero():
    r = run_cli("verify-general", "--job", str(CORPUS / "ex_bione.json"))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["bounds"]["vacuous"] is True
    assert all(row["krank"] == 0 for row in rep["krank"]["rows"])


def test_adapted_burch_generators_are_the_tate_x1():
    # burch_data adapts a_1 := x*s here, so a Tate algebra that chose its own
    # minimal generators of I would miss the Burch generators
    from burchlab.cli import run_command

    spec = parse_job(json.dumps({
        "name": "adapted", "p": 32003, "vars": ["x", "y"],
        "ideal": ["x*y", "5*x*y+4*y^2", "x^2+y^2"], "module": {"cyclic": ["x", "y"]},
        "caps": {"homDegree": 6, "generalQs": [5]}}))
    body, code = run_command("verify-general", spec)
    assert code == 0 and body["bounds"]["allHold"] is True
    assert [(row["q"], row["algebra"], row["cycles"]) for row in body["cycles"]] == [(5, "tate", 1)]


def test_golod_cycles_take_the_socle_lift_of_the_larger_index():
    # the lifts of x and y are x^2 and y^2; with the lift of the smaller
    # index the q = 3 cycle did not survive and the job exited 1
    from burchlab.cli import run_command

    spec = parse_job(json.dumps(m2_job(ideal=["x^3", "y^3", "x*y"], caps={"homDegree": 5})))
    body, code = run_command("verify-golod", spec)
    assert code == 0 and body["bounds"]["allHold"] is True
    assert body["burch"]["witness"]["socleLifts"] == ["x^2", "y^2"]
    assert [(row["q"], row["survivors"], row["expected"]) for row in body["cycles"]] \
        == [(3, 1, 1), (4, 1, 1)]


def three_variable_job(ideal, cyclic):
    return json.dumps({"p": 32003, "vars": ["x", "y", "z"], "ideal": ideal,
                       "module": {"cyclic": cyclic},
                       "caps": {"homDegree": 4, "generalQs": [4]}})


def test_even_general_cycles_are_cycles_when_e_f_is_not_in_n():
    # the socle lifts are all x, and e*f has a coefficient outside n: the
    # two action terms of d(alpha) added up to 2x*[]y_(3,3) with the old
    # sign of the second word, and the job exited 4
    from burchlab.cli import run_command

    spec = parse_job(three_variable_job(["x^2", "y^3", "z^2", "x*z", "x*y"], ["x", "y"]))
    body, code = run_command("verify-general", spec)
    assert code == 0 and body["bounds"]["allHold"] is True
    assert [(row["q"], row["cycles"], row["allCyclesExact"], row["allSplit"])
            for row in body["cycles"]] == [(4, 3, True, True)]


def test_general_splitting_is_asserted_on_burch_pairs_only():
    # Burch index 2 and a third linear form from xExtension: pairs (1,3) and
    # (2,3) are no Burch pairs and do not split; they used to fail allHold
    from burchlab.cli import run_command

    spec = parse_job(three_variable_job(["x^2", "y^2", "z^3", "x*z^2", "y*z"], ["y", "z"]))
    body, code = run_command("verify-general", spec)
    assert body["burch"]["burchIndex"] == 2 and len(body["burch"]["witness"]["xExtension"]) == 1
    assert code == 0 and body["bounds"]["allHold"] is True
    assert [(row["q"], row["cycles"], row["allSplit"]) for row in body["cycles"]] \
        == [(4, 1, True)]


@pytest.mark.parametrize("command", ["verify-golod", "verify-general", "bar"])
def test_non_monic_monomial_generators_give_the_monic_report(command):
    # the Taylor complex of 3x^2, xy, 5y^2 has d(e_t) equal to the generator,
    # so its X_1 is aligned with the Burch generators
    from burchlab.cli import run_command

    bodies = []
    for ideal in (["x^2", "x*y", "y^2"], ["3*x^2", "x*y", "5*y^2"]):
        spec = parse_job(json.dumps(m2_job(ideal=ideal, caps={"homDegree": 5})))
        body, code = run_command(command, spec)
        assert code == 0
        body.pop("burch", None)
        bodies.append(strip_timing(body))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command", ["cycles", "verify-golod", "verify-general"])
def test_exit_code_reads_all_hold_only(monkeypatch, command):
    from burchlab import cli

    planted = {"bounds": {"vacuous": True, "allHold": False}}
    for name in ("verify_golod", "verify_general"):
        monkeypatch.setattr(cli, name, lambda *args: planted)
    spec = parse_job(json.dumps(m2_job()))
    assert cli.run_command(command, spec) == (planted, 1)
    planted["bounds"]["allHold"] = True
    assert cli.run_command(command, spec) == (planted, 0)


def test_cli_corpus_matches_goldens():
    r = run_cli("corpus")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "golden ok" in r.stdout
    assert "MISMATCH" not in r.stdout


def test_production_commands_never_import_the_oracles():
    # a fresh interpreter, so no other test can have imported tests/support;
    # tests/ is on its path, so a production import of the support package
    # would load it rather than fail
    tests_dir = str(Path(__file__).resolve().parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {tests_dir!r})\n"
        "from burchlab.cli import run_command\n"
        "from burchlab.jobs import load_job\n"
        f"spec = load_job({str(CORPUS / 'ex_m2_2vars.json')!r})\n"
        "for command in ('burch', spec.command):\n"
        "    assert run_command(command, spec)[1] == 0, command\n"
        "loaded = [m for m, mod in list(sys.modules.items())\n"
        f"          if (getattr(mod, '__file__', None) or '').startswith({tests_dir!r})]\n"
        "assert not loaded, loaded\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_cli_resource_cap_exit_code(tmp_path):
    # the 14 monomials of degree 13 (an Artinian quotient) trip the Taylor guard
    gens = [f"x^{13 - a}*y^{a}" if a and a != 13 else ("x^13" if a == 0 else "y^13")
            for a in range(14)]
    job = {"p": 32003, "vars": ["x", "y"], "ideal": gens,
           "module": {"cyclic": ["x", "y"]}, "regime": "dg"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(job))
    r = run_cli("bar", "--job", str(path), "--regime", "dg")
    assert r.returncode == 3


# -- caps validation, internal errors, corpus error records --------------------


def m2_job(**overrides):
    job = json.loads((CORPUS / "ex_m2_2vars.json").read_text())
    job.update(overrides)
    return job


@pytest.mark.parametrize("caps", [
    {"homDegree": "abc"}, {"arity": None}, {"generalQs": 5}, {"generalQs": [4, "x"]},
    {"degree": 2.5}, {"bruteForceDim": True}, {"generalQs": []}, {"generalQs": [3]}, 5,
    {"arity": 1}, {"arity": 0}, {"arity": -3},
    {"homdegree": 3},
    {"generalQs": [12]},
])
def test_cli_bad_caps_exit_code(tmp_path, capsys, caps):
    from burchlab.cli import main

    path = tmp_path / "job.json"
    path.write_text(json.dumps(m2_job(caps=caps)))
    assert main(["burch", "--job", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: caps") and err.count("\n") == 1


def test_general_qs_through_11_parse():
    # q = 11 builds its bar to 12, the largest cap check_hom_degree allows
    assert parse_job(m2_job(caps={"generalQs": [11]})).caps.general_qs == (11,)
    assert parse_job(m2_job(caps={"generalQs": [4, 11]})).caps.general_qs == (4, 11)


def test_cli_unknown_caps_key_names_the_key(tmp_path, capsys):
    # a misspelt key used to be ignored, and the job ran at homDegree 10
    from burchlab.cli import main

    path = tmp_path / "job.json"
    path.write_text(json.dumps(m2_job(caps={"homDegree": 4, "homdegree": 3})))
    assert main(["burch", "--job", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'homdegree'" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["bar", "verify-golod"])
@pytest.mark.parametrize("cap", ["-3", "0", "13"])
def test_cli_cap_override_out_of_range_exit_code(capsys, command, cap):
    # --cap gets the same 2..12 range check as a job's caps.homDegree
    from burchlab.cli import main

    assert main([command, "--job", str(CORPUS / "ex_m2_2vars.json"), "--cap", cap]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: caps.homDegree") and err.count("\n") == 1


def test_cli_non_ascii_digit_exit_code(tmp_path, capsys):
    from burchlab.cli import main

    path = tmp_path / "job.json"
    path.write_text(json.dumps(m2_job(ideal=["x^2", "x*y", "y^2+\u00b9"])))
    assert main(["burch", "--job", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ideal generator") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(caps=st.dictionaries(
    st.sampled_from(["homDegree", "arity", "degree", "bruteForceDim", "generalQs"]), json_values)
    | json_values)
def test_parse_job_caps_fuzz(caps):
    # any JSON value for caps (or for one of its fields) parses or is an InputError
    job = {"p": 32003, "vars": ["x"], "ideal": ["x^2"], "module": {"cyclic": ["x"]}, "caps": caps}
    try:
        spec = parse_job(job)
    except InputError:
        return
    assert isinstance(spec.caps.hom_degree, int) and 2 <= spec.caps.hom_degree <= 12
    assert spec.caps.arity >= 2
    assert spec.caps.general_qs and all(4 <= q <= 11 for q in spec.caps.general_qs)


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    from burchlab.cli import main
    from burchlab.errors import InternalCheckError
    from burchlab.taylor import DgAlgebra

    def broken(self, through=None):
        raise InternalCheckError("planted Leibniz failure")

    monkeypatch.setattr(DgAlgebra, "check_leibniz", broken)
    assert main(["verify-golod", "--job", str(CORPUS / "ex_m2_2vars.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error") and "planted" in err and err.count("\n") == 1


def test_cli_uncaught_exception_is_an_internal_error_in_one_line(monkeypatch, capsys):
    from burchlab import cli

    def run_command(command, spec):
        raise KeyError("planted")

    monkeypatch.setattr(cli, "run_command", run_command)
    assert cli.main(["verify-golod", "--job", str(CORPUS / "ex_m2_2vars.json")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error (KeyError): 'planted'\n"


def test_corpus_records_failing_jobs_and_carries_on(monkeypatch, tmp_path, capsys):
    from burchlab import cli
    from burchlab.errors import InternalCheckError

    bad = tmp_path / "bad_caps.json"
    bad.write_text(json.dumps(m2_job(caps={"arity": None})))
    monkeypatch.setattr(cli, "corpus_entries", lambda: [
        ("bad_caps.json", bad),
        ("ex_m2_2vars.json", CORPUS / "ex_m2_2vars.json"),
        ("ex_structure.json", CORPUS / "ex_structure.json"),
    ])
    real = cli.run_command

    def run_command(command, spec):
        if spec.name == "square-of-max-ideal-2vars":
            raise InternalCheckError("planted")
        return real(command, spec)

    monkeypatch.setattr(cli, "run_command", run_command)
    out = tmp_path / "corpus.json"
    assert cli.run_corpus(str(out)) == 4  # the worst exit code wins
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bad_caps.json: exit 2") and "caps.arity" in lines[0]
    assert lines[1].startswith("ex_m2_2vars.json: exit 4") and "planted" in lines[1]
    assert lines[2].startswith("ex_structure.json: exit 0") and lines[2].endswith("golden ok")
    results = json.loads(out.read_text())["results"]
    assert "caps.arity" in results["bad_caps.json"]["error"]
    assert results["ex_m2_2vars.json"] == {"error": "planted"}
    assert results["ex_structure.json"]["goldenMatch"] is True


def test_corpus_records_an_uncaught_exception_and_carries_on(monkeypatch, tmp_path, capsys):
    from burchlab import cli

    monkeypatch.setattr(cli, "corpus_entries", lambda: [
        ("ex_m2_2vars.json", CORPUS / "ex_m2_2vars.json"),
        ("ex_structure.json", CORPUS / "ex_structure.json"),
    ])
    real = cli.run_command

    def run_command(command, spec):
        if spec.name == "square-of-max-ideal-2vars":
            raise KeyError("planted")
        return real(command, spec)

    monkeypatch.setattr(cli, "run_command", run_command)
    out = tmp_path / "corpus.json"
    assert cli.run_corpus(str(out)) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ex_m2_2vars.json: exit 4") and "KeyError" in lines[0]
    assert lines[1].startswith("ex_structure.json: exit 0") and lines[1].endswith("golden ok")
    results = json.loads(out.read_text())["results"]
    assert results["ex_m2_2vars.json"] == {"error": "internal error (KeyError): 'planted'"}


def test_resolve_job_resolves_once(monkeypatch):
    from burchlab import resolve
    from burchlab.cli import run_command

    real = resolve.resolve_over_R
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("burchlab") and getattr(mod, "resolve_over_R", None) is real:
            monkeypatch.setattr(mod, "resolve_over_R", counting)
    spec = parse_job({"p": 32003, "vars": ["x", "y", "z"],
                      "ideal": ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"],
                      "module": {"cyclic": ["x", "y", "z"]}, "caps": {"homDegree": 6},
                      "command": "resolve"})
    body, code = run_command("resolve", spec)
    assert code == 0 and body["betti"] == [3 ** n for n in range(7)]
    assert calls == [1]


@pytest.mark.parametrize("command, job, depth", [
    ("verify-golod", {"caps": {"homDegree": 4}}, 5),                       # cap + 1
    ("verify-general", {"caps": {"homDegree": 4, "generalQs": [4]}}, 9),   # ORACLE_THROUGH
    ("verify-general", {"ideal": ["x^4", "x^2*y", "y^2"], "module": {"cyclic": ["x^2", "y"]},
                        "caps": {"homDegree": 4}}, 9),                     # Burch index < 2
])
def test_verdict_pipelines_resolve_only_as_deep_as_the_table(monkeypatch, command, job, depth):
    # syz_i is read as the image of d_i, so the verdicts through i = up_to
    # need the resolution through up_to and no further
    from burchlab import resolve
    from burchlab.cli import run_command

    real = resolve.resolve_over_R
    depths = []

    def recording(pres, up_to, **kwargs):
        depths.append(up_to)
        return real(pres, up_to, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("burchlab") and getattr(mod, "resolve_over_R", None) is real:
            monkeypatch.setattr(mod, "resolve_over_R", recording)
    spec = parse_job(m2_job(command=command, **job))
    body, code = run_command(command, spec)
    assert code == 0
    assert depths == [depth]
    assert [row["i"] for row in body["krank"]["rows"]] == list(range(1, depth + 1))


# one rank guard, errors.RANK_GUARD, read where each construction checks it;
# (job, guard, what the message names): ex_m2_2vars's module k is cyclic
# monomial and takes the Taylor fast path, R/(x+y) is resolved semifree; an
# odd q alone builds the acyclic closure first
GUARDED = {
    "semifree": ({"module": {"cyclic": ["x+y"]}, "caps": {"homDegree": 4}, "regime": "ainf",
                  "command": "bar"}, 3, "SemifreeDgModule rank"),
    "tate": ({"caps": {"homDegree": 4, "generalQs": [5]}, "command": "verify-general"}, 5,
             "TateAlgebra rank"),
    "resolve": ({"caps": {"homDegree": 4}, "command": "resolve"}, 5,
                "resolution over R through degree"),
    # ranks 1, 2, ..., 64: the bound series sums to 127 before any word is listed
    "bar": ({"caps": {"homDegree": 6}, "regime": "ainf", "command": "bar"}, 100,
            "BarComplex rank"),
}


@pytest.mark.parametrize("where", sorted(GUARDED))
def test_the_rank_guard_stops_each_construction(monkeypatch, where):
    from burchlab import errors
    from burchlab.cli import EXIT_RESOURCE, failure_exit, run_command

    job, guard, what = GUARDED[where]
    spec = parse_job(m2_job(**job))
    assert run_command(spec.command, spec)[1] == 0
    monkeypatch.setattr(errors, "RANK_GUARD", guard)
    with pytest.raises(errors.ResourceCapError, match=f"{what} .* exceeds the rank guard {guard}"
                       ) as info:
        run_command(spec.command, spec)
    assert failure_exit(info.value)[0] == EXIT_RESOURCE


# -- one RingContext per job, input errors in the module and the ideal --------


def write_job(tmp_path, job) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


@pytest.mark.parametrize("command", ["bar", "verify-golod"])
def test_cli_empty_ideal_exit_code(tmp_path, capsys, command):
    from burchlab.cli import main

    # I = 0 leaves R = Q, which is not Artinian
    path = write_job(tmp_path, m2_job(ideal=[], caps={"homDegree": 4}))
    assert main([command, "--job", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Artinian" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["resolve", "bar", "cycles", "verify-general",
                                     "verify-golod"])
def test_cli_non_artinian_quotient_exit_code(tmp_path, capsys, command):
    # k[x,y]/(x^2, xy) is not Artinian; every command but burch works degree
    # by degree over R, and cli.run_command rejects it as an input error
    from burchlab.cli import main

    path = write_job(tmp_path, m2_job(ideal=["x^2", "x*y"], caps={"homDegree": 4}))
    assert main([command, "--job", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Artinian" in err and err.count("\n") == 1


@pytest.mark.parametrize("module", [
    {"presentation": {"generatorDegrees": [0, 1], "relations": [["x", "x"]]}},
    {"presentation": {"generatorDegrees": [0], "relations": [[5]]}},
    {"cyclic": "x"},
    {"presentation": {"generatorDegrees": [0], "relations": "x"}},
    {"presentation": {"generatorDegrees": [], "relations": []}},   # M = 0
    {"cyclic": ["1"]},                                              # M = R/R = 0
    {"cyclic": ["x"], "presentation": {"generatorDegrees": [0], "relations": [["y"]]}},
])
def test_cli_bad_module_exit_code(tmp_path, capsys, module):
    from burchlab.cli import main

    path = write_job(tmp_path, m2_job(module=module, caps={"homDegree": 4}))
    assert main(["resolve", "--job", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_cli_non_string_name_exit_code(tmp_path, capsys):
    # a name of 5 was echoed in the report
    from burchlab.cli import main

    path = write_job(tmp_path, m2_job(name=5))
    assert main(["burch", "--job", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: name must be a string") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["resolve", "verify-general", "verify-golod"])
def test_cli_non_minimal_presentation_exit_code(tmp_path, capsys, command):
    # a relation with a unit entry (here M = R, presented on two generators)
    # is an input error, not a non-minimal resolution (exit 4)
    from burchlab.cli import main

    module = {"presentation": {"generatorDegrees": [0, 0], "relations": [["1", "0"]]}}
    path = write_job(tmp_path, m2_job(module=module, caps={"homDegree": 4}))
    assert main([command, "--job", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: relation") and "minimal" in err
    assert err.count("\n") == 1


def test_each_job_builds_its_context_once(monkeypatch):
    from burchlab import burch
    from burchlab.cli import main

    real = burch.burch_ideal
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("burchlab") and getattr(mod, "burch_ideal", None) is real:
            monkeypatch.setattr(mod, "burch_ideal", counting)
    parse_job((CORPUS / "ex_jn.json").read_text())
    assert calls == []
    for command, job in (("burch", "ex_jn.json"), ("verify-golod", "ex_m2_2vars.json")):
        calls.clear()
        assert main([command, "--job", str(CORPUS / job)]) == 0
        assert len(calls) == 1, command


def test_resolve_builds_no_burch_witness(tmp_path):
    # burch_data finds no witness for this ring (an open defect: x takes
    # x^3 = x * x^2 and y has no exact lift left), but resolve reads only
    # the Burch index and mu, so it runs
    path = write_job(tmp_path, {"p": 32003, "vars": ["x", "y", "z"],
                                "ideal": ["x^3", "y^2", "z^2", "y*z+6*x^2"],
                                "module": {"cyclic": ["x"]}, "caps": {"homDegree": 4}})
    r = run_cli("resolve", "--job", path)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["betti"] == [1, 1, 3, 9, 21]
    assert rep["krank"]["burchIndex"] == 3 and rep["krank"]["muI"] == 4
    assert all(row["ok"] for row in rep["krank"]["rows"])


# -- valid input that still ends in exit 4 (ROADMAP items 1(d) and 1(e)) --------


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="burch_data: no exact factorization for y; adaptation conflict or bug")
def test_burch_finds_a_shared_witness_when_no_exact_lift_is_left(tmp_path, capsys):
    # x takes x^3 = x * x^2, y has no exact lift left; x*y*z is a shared
    # witness, since x*(yz + 6x^2) lies in nI
    from burchlab.cli import main
    path = write_job(tmp_path, {"p": 32003, "vars": ["x", "y", "z"],
                                "ideal": ["x^3", "y^2", "z^2", "y*z+6*x^2"],
                                "module": {"cyclic": ["x", "y", "z"]}, "caps": {"homDegree": 4}})
    assert main(["burch", "--job", path]) == 0, capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="burch_cycles: Burch cycles are dependent modulo n Z_1")
def test_verify_general_on_a_ring_whose_witnesses_share_xyz(tmp_path, capsys):
    # all three x's take x*y*z; resolve reads every verdict row ok here
    from burchlab.cli import main
    path = write_job(tmp_path, {"p": 32003, "vars": ["x", "y", "z"],
                                "ideal": ["x^2", "y^2", "z^2", "x*y*z"],
                                "module": {"cyclic": ["x", "y", "z"]},
                                "caps": {"homDegree": 4, "generalQs": [4]}, "regime": "dg"})
    assert main(["verify-general", "--job", path]) == 0, capsys.readouterr().err


# -- the key order of each command's report ------------------------------------

# reports_equal and the golden check compare dicts, so only these lists see a
# reordered report; "" is the body itself and "cycles" its first cycle row
BIONE_JOB = {"ideal": ["x^4", "x^2*y", "y^2"], "module": {"cyclic": ["x^2", "y"]}}
BAR_KEYS = {"": ["regime", "ranks", "ddZero", "exactBelowCap", "minimal", "h0Dims",
                 "moduleDims", "timingSeconds"]}
GOLOD_KEYS = {
    "": ["burch", "golod", "cycles", "krank", "bounds", "timingSeconds"],
    "golod": ["golod", "barRanks", "poincareBound", "PRoverQ", "PMoverQ", "barMinimal",
              "firstUnitEntry"],
    "cycles": ["q", "cycles", "expected", "allSplit", "survivors", "witnesses"],
    "bounds": ["vacuous", "allHold"],
}
GENERAL_KEYS = {
    "": ["burch", "cycles", "krank", "bounds", "timingSeconds"],
    "cycles": ["q", "algebra", "cycles", "allCyclesExact", "allSplit", "witnesses",
               "survivors"],
    "bounds": ["vacuous", "allHold"],
}
VACUOUS_KEYS = {"": ["burch", "krank", "bounds", "cycles", "timingSeconds"],
                "bounds": ["vacuous", "allHold", "note"]}


@pytest.mark.parametrize("command, job, expected", [
    ("burch", {}, {"": ["burch"]}),
    ("resolve", {}, {"": ["betti", "krank", "timingSeconds"]}),
    ("bar", {"regime": "dg"}, BAR_KEYS),
    ("bar", {"regime": "ainf"}, BAR_KEYS),
    ("cycles", {"regime": "auto"}, GOLOD_KEYS),     # Burch index 2 picks ainf
    ("cycles", dict(BIONE_JOB, regime="auto"), VACUOUS_KEYS),
    ("verify-general", {}, GENERAL_KEYS),
    ("verify-general", BIONE_JOB, VACUOUS_KEYS),
    ("verify-golod", {}, GOLOD_KEYS),
], ids=["burch", "resolve", "bar-dg", "bar-ainf", "cycles", "cycles-bione",
        "verify-general", "verify-general-bione", "verify-golod"])
def test_report_key_order(command, job, expected):
    from burchlab.cli import run_command

    spec = parse_job(m2_job(**dict(job, caps={"homDegree": 5, "generalQs": [4, 5]})))
    body, code = run_command(command, spec)
    assert code == 0
    for part, keys in expected.items():
        value = body[part] if part else body
        assert list(value[0] if part == "cycles" else value) == keys, part


poly_strings = (st.sampled_from(["x^2", "x*y", "y^2", "x", "y", "0", "", "1", "x^2+y^2",
                                 "x+y^2", "2*x*y", "x^3", "z^2", "x**2", "y^2-x^2"])
                | st.text(alphabet="xy^*+-0123 ", max_size=6))
module_docs = (
    st.fixed_dictionaries({"cyclic": st.lists(poly_strings, max_size=3) | json_values})
    | st.fixed_dictionaries({"presentation": st.fixed_dictionaries({}, optional={
        "generatorDegrees": st.lists(st.integers(-1, 3), max_size=3) | json_values,
        "relations": st.lists(st.lists(poly_strings | json_values, max_size=3), max_size=3)
        | json_values,
    }) | json_values})
)
job_docs = st.fixed_dictionaries({}, optional={
    "p": st.sampled_from([32003, 2, 3, 4, 21]) | json_values,
    "vars": st.sampled_from([["x", "y"], ["x"], ["x", "x"], [], ["1a"]]) | json_values,
    "ideal": st.lists(poly_strings, max_size=4) | json_values,
    "module": module_docs | json_values,
    "caps": st.fixed_dictionaries({}, optional={"homDegree": st.integers(0, 14)}) | json_values,
    "regime": st.sampled_from(["dg", "ainf", "auto", "cyclic"]) | json_values,
    "command": st.sampled_from(["burch", "resolve", "bar", "nope"]) | json_values,
})


@settings(max_examples=150, deadline=None)
@given(doc=job_docs)
def test_parse_job_fuzz(doc):
    # any document parses to a JobSpec or is an InputError, nothing else
    from burchlab.jobs import JobSpec

    try:
        spec = parse_job(doc)
    except InputError:
        return
    assert isinstance(spec, JobSpec)


@settings(max_examples=150, deadline=None)
@given(module=module_docs)
def test_presentation_fuzz(module):
    # over k[x,y]/(x,y)^2, any module document presents a module or is an InputError
    spec = parse_job({"p": 32003, "vars": ["x", "y"], "ideal": ["x^2", "x*y", "y^2"],
                      "module": module})
    try:
        spec.presentation(spec.context())
    except InputError:
        pass
