"""Command-line interface: commands, exit codes, determinism."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcsym import classify, numeric, parser
from qcsym.calculus import eq_normalize
from qcsym.classify import fixture_json
from qcsym.cli import main, verify_paper
from qcsym.errors import VerificationError
from qcsym.parser import MAX_POWER, PARSE_CACHE_SIZE, parse


_FIXTURE = str(Path(classify.__file__).parent / "fixtures" / "instance_scaling.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_json_matches_catalogue(capsys):
    code, out, _ = run(capsys, "derive", "--family", "power", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "power"
    fixture = fixture_json("determining_power.json")["equations"]
    assert len(data["equations"]) == 4
    for got, want in zip(data["equations"], fixture):
        assert parse(got) == eq_normalize(parse(want))


def test_derive_exponential(capsys):
    code, out, _ = run(capsys, "derive", "--family", "exp")
    assert code == 0
    assert "exponential family" in out


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--case", "k=p-1", "--target", "2p+3")
    assert code == 0
    for value in ("-1", "-2", "-3", "-4", "-5", "-3/2"):
        assert value in out
    code, out, _ = run(capsys, "table", "--case", "k=p-1", "--target", "2p+1",
                       "--json")
    assert code == 0
    assert json.loads(out)["values"] == ["-", "-", "0", "-1", "-2", "-3", "-1/2"]


def test_table_unknown_case_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--case", "k=p+9", "--target", "2p+3")
    assert code == 2
    assert "error" in err


def test_coincide_default_and_custom(capsys):
    code, out, _ = run(capsys, "coincide", "--json")
    assert code == 0
    assert len(json.loads(out)) == 13
    code, out, _ = run(
        capsys, "coincide",
        "--exponents", "p+1,p,p-1,k,k-1,0",
        "--forbidden", "k=0,k=p,k=p+1,p=-1",
        "--json",
    )
    assert code == 0
    assert set(json.loads(out)) == {"k=p-1", "k=p+2", "p=0", "p=1", "k=1"}


def test_coincide_custom_list_in_order(capsys):
    # targets against every exponent: collisions of the target with itself are
    # skipped, constant differences give no case, and k vs 2*p+3 is met twice
    code, out, err = run(
        capsys, "coincide",
        "--exponents", "2*p+3,2*p+1,p+k+2,k,0,1/2*k-3/2",
        "--target", "2*p+3", "--target", "k",
        "--forbidden", "p!=-1,k!=2*p",
        "--json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == [
        "p=-2", "p=-3/2", "k=-3", "k=0", "k=p+1", "k=2*p+1", "k=2*p+3", "k=4*p+9",
    ]


def test_coincide_proportional_relations_give_one_case(capsys):
    # 2*p - 2*k and p - k are one relation; it is listed once
    code, out, _ = run(capsys, "coincide", "--exponents", "2*p,2*k,p,k", "--json")
    assert code == 0
    assert json.loads(out) == ["p=0", "k=0", "k=1/2*p", "k=p", "k=2*p"]
    code, out, _ = run(capsys, "coincide", "--exponents", "2*p,2*k,p,k")
    assert out.splitlines().count("  k=p") == 1


_TABLES = {
    "2*p+3": {
        "case": "k=p-1", "target": "2*p+3",
        "columns": ["2*p+1", "2*p", "2*p+2", "p+2", "p+1", "p", "p-1", "p-2", "1", "0"],
        "values": ["-", "-", "-", "-1", "-2", "-3", "-4", "-5", "-1", "-3/2"],
        "excluded": [False, False, False, True, True, True, False, False, True, False],
    },
    "2*p+1": {
        "case": "k=p-1", "target": "2*p+1",
        "columns": ["2*p", "2*p+2", "p+1", "p", "p-1", "p-2", "0"],
        "values": ["-", "-", "0", "-1", "-2", "-3", "-1/2"],
        "excluded": [False, False, True, True, True, True, False],
    },
}


@pytest.mark.parametrize("target", sorted(_TABLES))
def test_table_json_bytes_are_pinned(capsys, target):
    code, out, err = run(capsys, "table", "--case", "k=p-1", "--target", target, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(_TABLES[target], indent=2) + "\n"


def test_split_command(capsys):
    code, out, _ = run(
        capsys, "split",
        "lambda*(f_x + k*g)*V^k + lambda*k*h*V^(k-1) + f_t",
        "--forbidden", "k=0,k=1",
        "--json",
    )
    assert code == 0
    assert len(json.loads(out)["equations"]) == 3
    # V-powers that differ by a constant keep the keys apart whatever k and p are
    code, out, _ = run(capsys, "split", "a*V^2*exp(k*V) + f*V^3*exp(p*V)", "--json")
    assert code == 0
    assert len(json.loads(out)["equations"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["coincide", "--exponents", "p,k", "--forbidden", "k"],
        ["table", "--case", "k", "--target", "p"],
    ],
)
def test_relation_without_operator_is_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: relation 'k' needs '=' or '!='\n"


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["table", "--case", "k=", "--target", "p"], "--case 'k='"),
        (["coincide", "--forbidden", "k="], "--forbidden 'k='"),
        (["check-op", "--xi", "", "--eta", "0"], "--xi ''"),
        (["split", ""], "expression ''"),
    ],
)
def test_parse_error_names_the_flag(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: expected a value (at position 0)\n"


@pytest.mark.parametrize(
    ("argv", "err"),
    [
        (["split", "V^(1/0)"], "expression 'V^(1/0)': division by zero (at position 4)"),
        (["check-op", "--xi", "1/0", "--eta", "0"], "--xi '1/0': division by zero (at position 1)"),
        (["coincide", "--forbidden", "k=1/0"], "--forbidden 'k=1/0': division by zero (at position 1)"),
    ],
)
def test_division_by_zero_is_usage_error(argv, err, capsys):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_split_ambiguous_is_usage_error(capsys):
    code, _, err = run(capsys, "split", "g*V^k + h")
    assert code == 2
    assert "coincide" in err or "split" in err


def test_check_op_exit_codes(capsys):
    code, out, _ = run(capsys, "check-op", "--xi", "A", "--eta", "0")
    assert code == 0
    code, out, _ = run(capsys, "check-op", "--xi", "A", "--eta", "V^2")
    assert code == 1


def test_check_op_with_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fixture_json("instance_scaling.json")))
    code, out, _ = run(
        capsys, "check-op",
        "--xi=x/(2*t+1)", "--eta=-V/(2*t+1)",
        "--equation", str(path), "--json",
    )
    assert code == 0
    assert json.loads(out)["satisfied"] is True


def test_check_op_numeric(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fixture_json("instance_scaling.json")))
    code, out, _ = run(
        capsys, "check-op-numeric", "--equation", str(path),
        "--samples", "200", "--json",
    )
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-9


def test_check_op_numeric_json_reports_a_violation(tmp_path, capsys):
    data = fixture_json("instance_scaling.json")
    data["operator"]["eta"] = "V/(2*t+1)"  # the wrong sign: not a symmetry
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "check-op-numeric", "--equation", str(path),
        "--samples", "50", "--json",
    )
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["satisfied"] is False
    assert payload["max_residual"] > 1e-9


def test_check_op_numeric_overflow_exits_2(tmp_path, capsys):
    # exp(9999*V) overflows a float at every sample point; V^(1e308)
    # overflows wherever V > 1 and underflows to 0 below, where the check
    # must not pass on the samples that underflow
    for key, value in (("F", "exp(9999*V)"), ("k", 1e308), ("p", 1e308)):
        data = fixture_json("instance_scaling.json")
        data[key] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check-op-numeric", "--equation", str(path))
        assert (code, out) == (2, ""), key
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float range" in err


def test_split_of_a_huge_power_exits_2_promptly():
    # 9^9^9 asks for 9^387420489; the power cap refuses it before any work
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qcsym.cli", "split", "9^9^9"],
        capture_output=True, text=True, timeout=20,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"cap of {MAX_POWER}" in proc.stderr


def test_transform_command(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fixture_json("instance_scaling.json")))
    out_csv = tmp_path / "field.csv"
    code, out, _ = run(
        capsys, "transform", "--equation", str(path),
        "--eps", "0.1", "--out", str(out_csv), "--json",
    )
    assert code == 0
    assert json.loads(out)["ratio"] <= 5.0
    assert out_csv.read_text().startswith("t,x,V")


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.count("[PASS]") == 14
    assert "14/14 steps passed" in out


def test_verify_paper_json_mirrors_text(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 14
    assert all(step["status"] == "pass" for step in data)
    ids = [step["id"] for step in data]
    assert ids[0] == "determining-systems"
    assert ids[-1] == "substitution-roundtrip"


def test_verify_paper_corruption_fails(capsys):
    code, out, _ = run(capsys, "verify-paper", "--corrupt", "determining-systems")
    assert code == 1
    assert "[FAIL]" in out


def test_verify_paper_keep_going(capsys):
    code, out, _ = run(
        capsys, "verify-paper", "--corrupt", "determining-systems", "--keep-going"
    )
    assert code == 1
    assert out.count("[PASS]") == 13
    assert "[SKIP" not in out


def test_verify_paper_skips_after_a_failure(capsys, monkeypatch):
    calls = []
    for chain in ("case_c_chain_p0", "case_c_chain_k1_p2"):
        monkeypatch.setattr(classify, chain, lambda chain=chain: calls.append(chain))
    argv = ("verify-paper", "--corrupt", "determining-systems")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["status"] == "fail"
    assert [(r["status"], r["detail"]) for r in rows[1:]] == [("skipped", "")] * 13
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.count("[SKIPPED]") == 13
    assert out.splitlines()[-1] == "0/14 steps passed"
    assert calls == []


def test_system_json_key_order(capsys):
    code, out, _ = run(capsys, "derive", "--family", "power", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["family", "grading", "equations"]
    assert data["family"] == "power"
    code, out, _ = run(capsys, "split", "f*V^2 + g", "--json")
    assert code == 0
    assert list(json.loads(out)) == ["grading", "equations"]


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-paper", "--seed", "5")
    _, out2, _ = run(capsys, "verify-paper", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "derive", "--family", "power", "--json")
    _, out4, _ = run(capsys, "derive", "--family", "power", "--json")
    assert out3 == out4


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--bogus"],
        ["frobnicate"],
        ["derive", "--family", "nope"],
        ["derive", "--unknown-flag"],
        ["table"],
        ["table", "--case", "k=p-1"],
        ["check-op"],
        ["check-op-numeric"],
        ["split"],
        ["split", "((("],
        ["transform"],
        ["transform", "--equation", "/nonexistent.json"],
        ["verify-paper", "extra-positional"],
        ["verify-paper", "--corrupt", "eta-general-solution"],
        ["transform", "--equation", _FIXTURE, "--eps", "nan"],
        ["transform", "--equation", _FIXTURE, "--eps", "1e308"],
        ["transform", "--equation", _FIXTURE, "--eps=-400"],  # dt underflows to 0
        # refused by argparse before any step runs
        ["verify-paper", "--seed=-1"],
        ["check-op-numeric", "--equation", _FIXTURE, "--seed", "-1"],
        # deeper than the interpreter's recursion limit
        ["split", "(" * 3000 + "V" + ")" * 3000],
    ],
)
def test_malformed_argv_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err


def test_output_deterministic_across_processes():
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    mixed = ("a*V^(1/2) + f*V^(1/3) + g*V^2 + h*V^(5/2) + a_x*V^(-1/2)"
             " + f*exp((1/2)*V) + g*exp(V)")
    for argv in (
        ["derive", "--family", "power", "--json"],
        ["verify-paper", "--json"],
        ["split", mixed, "--json"],  # integral and non-integral exponent keys
    ):
        outs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "qcsym.cli", *argv],
                capture_output=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed,
                     "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "chain, check, chain_step, dependent_step",
    [
        ("case_c_chain_k1_p2", "cubic-split", "chain-k1-p2", "cubic-source-split"),
        ("case_c_chain_p0", "scaling-operator", "chain-p0", "scaling-operator-symbolic"),
    ],
)
def test_suite_reuses_chain_verdicts(monkeypatch, chain, check, chain_step, dependent_step):
    calls = []

    def stub():
        calls.append(chain)
        return (classify.StepResult(check, "stubbed", False),)

    monkeypatch.setattr(classify, chain, stub)
    report, ok = verify_paper(keep_going=True)
    assert not ok
    assert calls == [chain]
    failed = [step["id"] for step in report if step["status"] != "pass"]
    assert failed == [chain_step, dependent_step]


def test_suite_step_fails_when_its_chain_raises(monkeypatch):
    def stub():
        raise VerificationError("reduce-eq3", "stubbed")

    monkeypatch.setattr(classify, "case_c_chain_k1_p2", stub)
    report, ok = verify_paper(keep_going=True)
    assert not ok
    by_id = {step["id"]: step for step in report}
    for step_id in ("chain-k1-p2", "cubic-source-split"):
        assert by_id[step_id]["status"] == "fail"
        assert by_id[step_id]["detail"] == "step 'reduce-eq3' failed: stubbed"


@pytest.mark.parametrize("source", ["t*V", "V^2 + x"])
def test_transform_source_of_t_or_x_is_usage_error(tmp_path, capsys, source):
    data = fixture_json("instance_scaling.json")
    data["F"] = source
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform", "--equation", str(path))
    assert (code, out) == (2, "")
    assert err == "error: source term must be a concrete function of V\n"


@pytest.mark.parametrize("source", ["V^(1/2)", "V^(-1)"])
def test_transform_source_power_needs_positive_v(tmp_path, capsys, source):
    # at p = 0, k = 1 only the source's power asks for V > 0; the initial
    # row 0.2*x - 1 is not positive on the left half of [0, 10]
    data = fixture_json("instance_scaling.json")
    data["F"] = source
    data["initial"] = {"type": "linear", "slope": 0.2, "offset": -1.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform", "--equation", str(path))
    assert (code, out) == (2, "")
    assert err == "error: V must stay positive for this instance\n"


def test_transform_at_k_zero(tmp_path, capsys):
    data = fixture_json("instance_scaling.json")
    data["k"] = 0
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform", "--equation", str(path), "--json")
    assert code == 0
    assert err == ""
    assert json.loads(out)["epsilon"] == 0.1


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_transform_exact_baseline_has_no_ratio(tmp_path, capsys, monkeypatch):
    # a constant field solves the source-free equation exactly
    data = fixture_json("instance_scaling.json")
    data["F"] = "0"
    data["initial"] = {"type": "constant", "value": 1.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform", "--equation", str(path), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["baseline_residual"] == 0.0
    assert payload["ratio"] is None
    code, out, _ = run(capsys, "transform", "--equation", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "ratio               : n/a"
    # a non-finite value is refused instead of printed as invalid JSON
    monkeypatch.setattr(numeric, "invariance_residual", lambda *args: float("nan"))
    code, out, err = run(capsys, "transform", "--equation", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


_DELETE = object()
_NOT_JSON = object()  # the instance file is cut short
_NOT_UTF8 = object()  # the instance file is the head of an executable
_TOO_DEEP = object()  # the instance file nests deeper than the recursion limit


class _Literal(str):
    """A value written into an instance file as raw JSON text."""


@pytest.mark.parametrize(
    "entry",
    # a bare key is deleted; a (key, value) pair sets a bad value
    ["grid", "lambda", "grid.nx", pytest.param(_NOT_JSON, id="not-json"),
     pytest.param(_NOT_UTF8, id="not-utf-8"), pytest.param(_TOO_DEEP, id="too-deep")] + [
        pytest.param((key, value), id=f"{key}={value}")
        for key, value in (
            ("grid.nx", 1), ("p", "1/0"), ("m", "1/0"), ("k", "1/0"),
            ("lambda", "1/0"), ("lambda", "inf"),
            ("grid.dt", 0), ("grid.dt", -0.001), ("grid.dt", float("nan")),
            ("family", "exponential"), ("initial", [1, 2]), ("initial", "gaussian"),
            ("grid.steps", -1),
            # over 10**7 lattice cells; refused before anything is allocated
            ("grid.steps", 10**5), ("grid.nx", 10**5),
            ("initial.type", "bogus"), ("initial.width", None), ("initial.width", 0),
            ("initial.amplitude", "1"), ("initial.center", float("inf")),
            ("F", 0.1), ("F", 3), ("operator.eta", 0.1), ("operator.tau", 1),
            ("seed", None), ("seed", 1.5), ("seed", True), ("seed", -1),
            ("grid.x0", None), ("grid.x0", "0"),
            ("grid.x1", [1]), ("grid.x1", float("nan")),
            ("grid.nx", "abc"), ("grid.nx", 2.5), ("grid.steps", _Literal("1e400")),
            ("F", "1 +"), ("operator.xi", "x/"),
        )
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ["transform"],
        ["check-op-numeric"],
        ["check-op", "--xi", "A", "--eta", "0"],
    ],
)
def test_instance_missing_key_is_usage_error(tmp_path, capsys, entry, command):
    data = fixture_json("instance_scaling.json")
    path = tmp_path / "inst.json"
    if entry is _NOT_JSON:  # no entry to name: the message names the file
        key, text = str(path), json.dumps(data)[:-1].encode()
    elif entry is _NOT_UTF8:
        key, text = str(path), b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))
    elif entry is _TOO_DEEP:
        key, text = str(path), b"[" * 100000 + b"]" * 100000
    else:
        key, value = entry if isinstance(entry, tuple) else (entry, _DELETE)
        head, _, name = key.rpartition(".")
        doc = data[head] if head else data
        if value is _DELETE:
            del doc[name]
        else:
            if key == "m":  # "m" is read only where "p" is absent
                del data["p"]
            doc[name] = value
        text = json.dumps(data)
        if isinstance(value, _Literal):  # JSON text no Python value dumps as
            text = text.replace(json.dumps(value), value)
        text = text.encode()
    path.write_bytes(text)
    code, out, err = run(capsys, *command, "--equation", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(key) in err


_FIXTURE_DATA = fixture_json("instance_scaling.json")
# every entry of the fixture: top-level, or one level down in an object
_ENTRIES = sorted(
    [key for key in _FIXTURE_DATA]
    + [f"{head}.{name}" for head, doc in _FIXTURE_DATA.items()
       if isinstance(doc, dict) for name in doc]
)
_BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    st.sampled_from([float("inf"), float("-inf"), float("nan"),
                     1e308, -1e308, 10**400, -(10**400)]),
    st.integers(-10**6, -1),
    st.floats(-1e3, 1e3).filter(lambda v: v != int(v)),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_ENTRIES), _BAD_VALUES)
def test_instance_fuzz_exits_cleanly(tmp_path, capsys, key, value):
    data = fixture_json("instance_scaling.json")
    head, _, name = key.rpartition(".")
    (data[head] if head else data)[name] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    for command in (["check-op", "--xi", "A", "--eta", "0"],
                    ["check-op-numeric", "--samples", "10"]):
        code, out, err = run(capsys, *command, "--equation", str(path))
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_paper_json_matches_replay_reference(capsys):
    # the digests the benchmark's replay gate compares against; read only
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "replay_reference.json"
    digests = json.loads(reference.read_text())["sha256"]
    # every text parsed afresh, then every parse served by the cache
    for cold in (True, False):
        for seed in (0, 1, 7):
            if cold:
                parse.cache_clear()
            code, out, err = run(capsys, "verify-paper", "--json", "--seed", str(seed))
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digests[seed]


def test_cached_parses_are_shared_and_never_change(monkeypatch):
    assert parse("lambda*V^(p+1) + a_x") is parse("lambda*V^(p+1) + a_x")
    # the texts a replay parses: the tokenizer sees each one once, on its miss
    texts = []
    tokenize = parser._tokenize

    def recording(text):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "_tokenize", recording)
    parse.cache_clear()
    verify_paper(0)
    assert texts
    cached = {text: parse(text) for text in texts}
    before = {text: (str(e), e.terms) for text, e in cached.items()}
    verify_paper(1)
    verify_paper(7)
    for text, e in cached.items():
        assert parse(text) is e
        assert (str(e), e.terms) == before[text], text
    # the bound holds however many distinct texts arrive
    for i in range(2 * PARSE_CACHE_SIZE):
        parse(f"{i}*V")
    assert parse.cache_info().currsize <= PARSE_CACHE_SIZE


def test_case_b_derivations_run_once_per_replay():
    classify.solve_eta_case_b.cache_clear()
    classify.extract_F.cache_clear()
    verify_paper(0)
    assert classify.solve_eta_case_b.cache_info().misses == 1
    assert classify.extract_F.cache_info().misses == 1


# texts of at most eight characters: short sums and powers of the language's
# symbols, texts over its alphabet, and arbitrary ones
_TEXTS = st.one_of(
    st.lists(
        st.tuples(st.sampled_from("+-*/^"),
                  st.sampled_from(["a", "f", "V", "t", "x", "k", "p", "2", "9", "(a+f)",
                                   "V^p", "exp(V)", "F_V", "xi", "p=0", "k!=1"])),
        min_size=1, max_size=4,
    ).map(lambda parts: "".join(op + atom for op, atom in parts)[1:]),
    st.text(alphabet="0123456789+-*/^()=!,. Vtxpknaf_", max_size=8),
    st.text(max_size=8),
).filter(lambda text: len(text) <= 8)
_SMALL_INTS = st.integers(-3, 40).map(str)


def _argv_flags(tmp_path) -> dict:
    """Each subcommand's options and the values drawn for them; None marks
    a switch and "" the positional argument."""
    files = st.sampled_from([_FIXTURE, str(tmp_path / "missing.json"), __file__])
    return {
        "derive": {"--family": st.sampled_from(["power", "exp", "cubic"]), "--json": None},
        "coincide": {"--exponents": _TEXTS, "--target": _TEXTS, "--forbidden": _TEXTS,
                     "--json": None},
        "table": {"--case": st.one_of(st.just("k=p-1"), _TEXTS),
                  "--target": st.one_of(st.sampled_from(["2p+3", "2p+1"]), _TEXTS),
                  "--json": None},
        "check-op": {"--family": st.sampled_from(["power", "exp"]), "--tau": _TEXTS,
                     "--xi": _TEXTS, "--eta": _TEXTS, "--equation": files, "--json": None},
        "check-op-numeric": {"--equation": files, "--seed": _SMALL_INTS,
                             "--samples": _SMALL_INTS, "--json": None},
        "split": {"": _TEXTS, "--forbidden": _TEXTS, "--json": None},
        "transform": {"--equation": files,
                      "--eps": st.one_of(st.floats().map(repr), _TEXTS),
                      "--out": st.just(str(tmp_path / "field.csv")), "--json": None},
        "verify-paper": {"--json": None, "--seed": _SMALL_INTS, "--keep-going": None,
                         "--corrupt": st.sampled_from(["determining-systems", "chain-p0"])},
    }


# the arguments each subcommand requires, drawn in nine examples out of ten
_REQUIRED = {"table": ("--case", "--target"), "check-op": ("--xi", "--eta"),
             "check-op-numeric": ("--equation",), "split": ("",),
             "transform": ("--equation",)}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_argv_fuzz_exits_cleanly(tmp_path, capsys, data):
    flags = _argv_flags(tmp_path)
    command = data.draw(st.sampled_from(sorted(flags)))
    complete = data.draw(st.integers(0, 9)) > 0
    argv = [command]
    for flag, values in flags[command].items():
        wanted = complete and flag in _REQUIRED.get(command, ())
        if not (wanted or data.draw(st.booleans())):
            continue
        if values is None:
            argv.append(flag)
        else:
            value = data.draw(values)
            argv.append(f"{flag}={value}" if flag else value)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), argv
    if code != 2:
        assert err == "", argv
        return
    # one error line ends stderr; argparse may print its usage lines first
    *usage, last = err.splitlines() or [""]
    assert err.endswith("\n") and "error: " in last, (argv, err)
    assert last.startswith("error: ") or last.startswith("qcsym"), (argv, err)
    assert all(line.startswith(("usage:", " ")) for line in usage), (argv, err)
