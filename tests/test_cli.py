"""CLI surface: exit codes, canonical output, round trips."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.cli import main

X_MINUS = {
    "ring": "Q",
    "arity": 1,
    "terms": [{"coeff": "1", "tuple": ["0"]}, {"coeff": "-1", "tuple": ["2"]}],
}
GEN = [
    {
        "ring": "Q",
        "arity": 1,
        "terms": [{"coeff": "1", "tuple": ["0"]}, {"coeff": "-1", "tuple": ["1"]}],
    }
]


@pytest.fixture
def files(tmp_path):
    t = tmp_path / "x.json"
    g = tmp_path / "g.json"
    t.write_text(json.dumps(X_MINUS))
    g.write_text(json.dumps(GEN))
    return t, g, tmp_path


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_decide_member(files, capsys):
    t, g, _ = files
    code, out = run_cli(["decide", "--target", t, "--gens", g], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["repCount"] == 13
    assert payload["paramSet"] == ["0", "2"]
    assert payload["certificate"]["type"] == "span-witness"


def test_decide_with_witness_budget(files, capsys):
    t, g, _ = files
    code, out = run_cli(
        ["decide", "--target", t, "--gens", g, "--witness-budget", "4"], capsys
    )
    assert code == 0
    witness = json.loads(out)["certificate"]["explicitWitness"]
    assert witness["type"] == "explicit-witness"
    assert witness["summands"]


def test_decide_gf2(files, capsys, tmp_path):
    t = tmp_path / "sum.json"
    t.write_text(
        json.dumps(
            {
                "ring": "Q",
                "arity": 1,
                "terms": [
                    {"coeff": "1", "tuple": ["0"]},
                    {"coeff": "1", "tuple": ["1"]},
                ],
            }
        )
    )
    _, g, _ = files
    code, out = run_cli(
        ["decide", "--target", t, "--gens", g, "--ring", "GF(2)"], capsys
    )
    assert code == 0 and json.loads(out)["member"] is True
    code, out = run_cli(["decide", "--target", t, "--gens", g], capsys)
    assert code == 0 and json.loads(out)["member"] is False


def test_decide_emit_certificate(files, capsys):
    t, g, tmp = files
    out_file = tmp / "decision.json"
    code, out = run_cli(
        ["decide", "--target", t, "--gens", g, "--emit-certificate", out_file],
        capsys,
    )
    assert code == 0
    assert out_file.read_text().strip() == out.strip()


def test_decide_closed_stdout_still_writes_certificate(files):
    """A stdout whose reader is already gone: the certificate file is
    written before stdout, the command exits 1 with nothing on stderr (no
    traceback, no failed exit flush), and verify accepts the file."""
    t, g, tmp = files
    cert = tmp / "cert.json"
    cli = [sys.executable, "-m", "permod.cli"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [*cli, "decide", "--target", t, "--gens", g, "--emit-certificate", cert],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, b"")
    verify = subprocess.run([*cli, "verify", "--decision", cert, "--target", t, "--gens", g],
                            capture_output=True)
    assert verify.returncode == 0 and json.loads(verify.stdout) == {"verified": True}


def test_decide_unwritable_certificate_path_exit_2(files, capsys):
    """A certificate path in a missing directory, or naming a directory,
    is an input error: exit 2, one line, nothing on stdout."""
    t, g, tmp = files
    for cert in (tmp / "nodir" / "x.json", tmp):
        code = main([str(a) for a in ["decide", "--target", t, "--gens", g,
                                      "--emit-certificate", cert]])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_round_trip(files, capsys):
    t, g, tmp = files
    code, out = run_cli(["decide", "--target", t, "--gens", g], capsys)
    d = tmp / "d.json"
    d.write_text(out)
    code, out = run_cli(
        ["verify", "--decision", d, "--target", t, "--gens", g], capsys
    )
    assert code == 0 and json.loads(out) == {"verified": True}


def test_verify_detects_tampering(files, capsys):
    t, g, tmp = files
    code, out = run_cli(["decide", "--target", t, "--gens", g], capsys)
    payload = json.loads(out)
    payload["repCount"] = 12
    d = tmp / "d.json"
    d.write_text(json.dumps(payload))
    code, out = run_cli(
        ["verify", "--decision", d, "--target", t, "--gens", g], capsys
    )
    assert code == 3 and json.loads(out) == {"verified": False}


def test_omega_output(files, capsys):
    t, _, _ = files
    code, out = run_cli(["omega", "--target", t, "--params", "0,2"], capsys)
    assert code == 0
    assert json.loads(out) == {"p0=c0<p1": "1", "p0<p1=c0": "-1"}


def test_decide_with_params_override(files, capsys):
    t, g, _ = files
    code, out = run_cli(
        ["decide", "--target", t, "--gens", g, "--params", "0,1/2,2,7"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["paramSet"] == ["0", "1/2", "2", "7"]
    # the override must contain the target support
    code = main(["decide", "--target", str(t), "--gens", str(g), "--params", "0"])
    capsys.readouterr()
    assert code == 2


def test_malformed_rational_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"ring": "Q", "arity": 1, "terms": [{"coeff": "1/0", "tuple": ["0"]}]}
        )
    )
    _, g, _ = files
    code = main(["decide", "--target", str(bad), "--gens", str(g)])
    err = capsys.readouterr().err
    assert code == 2
    assert "1/0" in err


def input_error(argv, capsys):
    """Run the CLI on bad input; it must exit 2 with one error line."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("digits", ["\u0663", "\u0661/\u0662", "\uff17", "1/\u0968"])
def test_non_ascii_digits_exit_2(files, capsys, tmp_path, digits):
    """Arabic-Indic, fullwidth and Devanagari digits are not scalar text."""
    t, g, _ = files
    for vec in (
        {"ring": "Q", "arity": 1, "terms": [{"coeff": digits, "tuple": ["0"]}]},
        {"ring": "Q", "arity": 1, "terms": [{"coeff": "1", "tuple": [digits]}]},
        {"ring": "GF(3)", "arity": 1, "terms": [{"coeff": f"{digits} mod 3", "tuple": ["0"]}]},
        {"ring": "GF(\u0665)", "arity": 1, "terms": [{"coeff": "1", "tuple": ["0"]}]},
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(vec))
        input_error(["decide", "--target", bad, "--gens", g], capsys)
    input_error(["decide", "--target", t, "--gens", g, "--params", f"0,{digits},2"], capsys)
    input_error(["omega", "--target", t, "--params", digits], capsys)
    input_error(["decide", "--target", t, "--gens", g, "--ring", "GF(\u0665)"], capsys)
    input_error(["decide", "--target", t, "--gens", g, "--ring", "GF(1\u0663)"], capsys)


def test_character_with_zero_denominator_exit_2(files, capsys, tmp_path):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(dict(X_MINUS, ring="Z")))
    d = tmp_path / "d.json"
    d.write_text(json.dumps({
        "member": False, "paramSet": ["0", "2"], "repCount": 13,
        "certificate": {"type": "character", "character": {"p0<c0<p1": "1/0"}},
    }))
    _, g, _ = files
    input_error(["verify", "--decision", d, "--target", z, "--gens", g, "--ring", "Z"], capsys)


@pytest.mark.parametrize("point", ["1e10000000", "0.5", "1_000", "+1", " 1 / 2 ", "1/0"])
@pytest.mark.parametrize("where", ["tuple", "params"])
def test_points_are_integers_or_fractions(capsys, tmp_path, point, where):
    # "1e10000000" would build a 33-million-bit integer if it were read
    t = tmp_path / "t.json"
    tup = [point] if where == "tuple" else ["0"]
    t.write_text(json.dumps(dict(X_MINUS, terms=[{"coeff": "1", "tuple": tup}])))
    params = ["--params", f"0,{point}"] if where == "params" else []
    t0 = time.perf_counter()
    input_error(["omega", "--target", t, *params], capsys)
    assert time.perf_counter() - t0 < 1.0


def test_negative_fraction_point_parses(capsys, tmp_path):
    t = tmp_path / "t.json"
    t.write_text(json.dumps(dict(X_MINUS, terms=[{"coeff": "1", "tuple": ["-3/2"]}])))
    code, out = run_cli(["omega", "--target", t, "--params=-3/2,7"], capsys)
    assert code == 0 and json.loads(out) == {"p0=c0<p1": "1"}


@pytest.mark.parametrize("fields", [
    {"terms": [{"coeff": "1"}]}, {"terms": "abc"}, {"terms": 5},
    {"terms": [{"coeff": "1", "tuple": "01"}]}, {"terms": [{"coeff": 1, "tuple": ["0"]}]},
    {"terms": [["1", ["0"]]]}, {"arity": "1"}, {"arity": 1.5}, {"arity": True},
])
def test_malformed_vector_exit_2(files, capsys, tmp_path, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(X_MINUS, **fields)))
    _, g, _ = files
    input_error(["decide", "--target", bad, "--gens", g], capsys)


def test_decision_fields_must_have_their_json_types(capsys, tmp_path):
    # target support {0, 1}, so "01" read character by character would
    # name the same parameters and verify
    t = tmp_path / "t.json"
    t.write_text(json.dumps(GEN[0]))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(GEN))
    code, out = run_cli(["decide", "--target", t, "--gens", g], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["paramSet"] == ["0", "1"]
    for bad in ({"paramSet": "01"}, {"paramSet": ["0", 1]}, {"member": "true"},
                {"repCount": payload["repCount"] + 0.5}, {"repCount": str(payload["repCount"])}):
        d = tmp_path / "d.json"
        d.write_text(json.dumps(dict(payload, **bad)))
        input_error(["verify", "--decision", d, "--target", t, "--gens", g], capsys)


def test_negative_budgets_exit_2(files, capsys):
    t, g, _ = files
    input_error(["decide", "--target", t, "--gens", g, "--witness-budget", "-1"], capsys)
    input_error(["oracle-check", "--target", t, "--gens", g, "--max-grid", "-3"], capsys)


def test_huge_prime_modulus_terminates(files, capsys):
    t, g, _ = files
    code, out = run_cli(["decide", "--target", t, "--gens", g, "--ring", "GF(2305843009213693951)"],
                        capsys)
    assert code == 0 and json.loads(out)["member"] is True
    input_error(["decide", "--target", t, "--gens", g, "--ring", f"GF({2**89 - 1})"], capsys)


def test_usage_errors_print_one_line(files, capsys):
    t, g, _ = files
    for argv in (
        ["decide", "--target", t],
        ["generates-all", "--gens", g, "--structure", "pure-set"],
        ["decide", "--target", t, "--gens", g, "--witness-budget", "abc"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_degenerate_random_instance_profile_exit_2(capsys, tmp_path):
    for flag in ("--point-pool", "--arity", "--max-support"):
        input_error(["random-instance", "--seed", "1", "--out", tmp_path, flag, "0"], capsys)


def test_deeply_nested_json_exit_2(files, capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    _, g, _ = files
    input_error(["decide", "--target", deep, "--gens", g], capsys)


def test_missing_file_exit_2(files, capsys):
    _, g, _ = files
    code = main(["decide", "--target", "/nonexistent.json", "--gens", str(g)])
    assert code == 2


def test_min_support_cli(files, capsys):
    _, g, _ = files
    code, out = run_cli(["min-support", "--gens", g, "--k", "2"], capsys)
    assert code == 0
    v = json.loads(out)["vector"]
    assert v is not None and len(v["terms"]) == 2
    code, out = run_cli(["min-support", "--gens", g, "--k", "1"], capsys)
    assert code == 0 and json.loads(out)["vector"] is None


def test_generates_all_cli(files, capsys, tmp_path):
    single = tmp_path / "single.json"
    single.write_text(
        json.dumps([{"ring": "Q", "arity": 1, "terms": [{"coeff": "1", "tuple": ["0"]}]}])
    )
    code, out = run_cli(["generates-all", "--gens", single], capsys)
    assert code == 0 and json.loads(out)["generatesAll"] is True
    _, g, _ = files
    code, out = run_cli(["generates-all", "--gens", g], capsys)
    assert code == 0 and json.loads(out)["generatesAll"] is False


def test_cyclic_cli(files, capsys):
    _, g, _ = files
    code, out = run_cli(["cyclic", "--gens", g], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["back"]["member"] and payload["into"][0]["member"]


def test_oracle_check_cli(files, capsys):
    t, g, _ = files
    code, out = run_cli(
        ["oracle-check", "--target", t, "--gens", g, "--max-grid", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "yes" and payload["gridSize"] == 4


def test_chain_cli(files, capsys, tmp_path):
    _, g, _ = files
    bigger = tmp_path / "bigger.json"
    bigger.write_text(
        json.dumps(
            GEN + [{"ring": "Q", "arity": 1, "terms": [{"coeff": "1", "tuple": ["0"]}]}]
        )
    )
    code, out = run_cli(["chain", g, bigger], capsys)
    assert code == 0
    steps = json.loads(out)["steps"]
    assert steps[0]["proper"] is True
    assert steps[0]["witness"]["decision"]["member"] is False
    code, out = run_cli(["chain", g, g], capsys)
    assert json.loads(out)["steps"][0]["proper"] is False


def test_random_instance_cli(files, capsys, tmp_path):
    out_dir = tmp_path / "inst"
    code, out = run_cli(
        ["random-instance", "--seed", "5", "--out", out_dir, "--ring", "GF(3)"],
        capsys,
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5 and manifest["profile"]["ring"] == "GF(3)"
    target = json.loads((out_dir / "target.json").read_text())
    gens = json.loads((out_dir / "gens.json").read_text())
    assert target["ring"] == "GF(3)" and isinstance(gens, list)
    # decide runs on the emitted files
    code, out = run_cli(
        ["decide", "--target", out_dir / "target.json", "--gens", out_dir / "gens.json"],
        capsys,
    )
    assert code == 0


def test_pure_set_structure_flag(files, capsys, tmp_path):
    single = tmp_path / "single2.json"
    single.write_text(
        json.dumps({"ring": "Q", "arity": 2, "terms": [{"coeff": "1", "tuple": ["0", "1"]}]})
    )
    gens = tmp_path / "gens2.json"
    gens.write_text(
        json.dumps([{"ring": "Q", "arity": 2, "terms": [{"coeff": "1", "tuple": ["4", "3"]}]}])
    )
    code, out = run_cli(
        ["decide", "--structure", "pure-set", "--target", single, "--gens", gens],
        capsys,
    )
    assert code == 0 and json.loads(out)["member"] is True
    code, out = run_cli(["decide", "--target", single, "--gens", gens], capsys)
    assert code == 0 and json.loads(out)["member"] is False


def test_structure_flag_only_on_decide_and_verify(files, capsys):
    """The other subcommands answer the order question only, so they must
    reject --structure rather than ignore it."""
    t, g, _ = files
    for argv in (
        ["omega", "--target", t],
        ["generates-all", "--gens", g],
        ["min-support", "--gens", g, "--k", "1"],
        ["cyclic", "--gens", g],
        ["oracle-check", "--target", t, "--gens", g],
        ["chain", g, g],
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv] + ["--structure", "pure-set"])
        assert exc.value.code == 2
        assert "--structure" in capsys.readouterr().err


def test_pure_set_verify_round_trip(capsys, tmp_path):
    target = tmp_path / "t.json"
    gens = tmp_path / "gs.json"
    target.write_text(
        json.dumps({"ring": "Q", "arity": 2, "terms": [{"coeff": "1", "tuple": ["0", "1"]}]})
    )
    gens.write_text(
        json.dumps([{"ring": "Q", "arity": 2, "terms": [{"coeff": "1", "tuple": ["4", "3"]}]}])
    )
    code, out = run_cli(
        ["decide", "--structure", "pure-set", "--target", target, "--gens", gens],
        capsys,
    )
    assert code == 0
    d = tmp_path / "d.json"
    d.write_text(out)
    code, out = run_cli(
        ["verify", "--structure", "pure-set", "--decision", d, "--target", target, "--gens", gens],
        capsys,
    )
    assert code == 0 and json.loads(out) == {"verified": True}
    # without the reduct flag, the same certificate must not verify
    code, out = run_cli(
        ["verify", "--decision", d, "--target", target, "--gens", gens], capsys
    )
    assert code == 3 and json.loads(out) == {"verified": False}


def test_subprocess_byte_identical(files):
    t, g, _ = files
    cmd = [
        sys.executable,
        "-m",
        "permod.cli",
        "decide",
        "--target",
        str(t),
        "--gens",
        str(g),
        "--witness-budget",
        "4",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


# -- input contract fuzz ----------------------------------------------------------

JUNK_TEXT = ["", "x", "0", "1/0", "1 mod 4", "GF(4)", "GF(", "nan", "1e3", "p0<c0", "c0"]
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(width=16),
    st.sampled_from(JUNK_TEXT), st.text(max_size=3),
    st.lists(st.sampled_from(JUNK_TEXT), max_size=2), st.just({}),
)


def mostly(usual, other):
    """``usual`` three times in four, otherwise ``other``."""
    return st.sampled_from(range(4)).flatmap(lambda k: other if k == 3 else usual)


def field(valid):
    """``valid`` 23 times in 24, otherwise junk of any JSON type, so a
    typical document holds about one defect."""
    return st.sampled_from(range(24)).flatmap(lambda k: junk if k == 23 else valid)


point = field(st.sampled_from(["0", "1", "2", "1/2"]))
COEFFS = {"Q": ["1", "-1", "2", "1/2"], "Z": ["1", "-1", "2"], "GF(3)": ["1", "2", "1 mod 3"]}


def vector(ring, arity):
    term = st.fixed_dictionaries({
        "coeff": field(st.sampled_from(COEFFS[ring])),
        "tuple": field(st.lists(point, min_size=arity, max_size=arity))})
    return field(st.fixed_dictionaries({
        "ring": field(st.just(ring)), "arity": field(st.just(arity)),
        "terms": field(st.lists(field(term), min_size=1, max_size=3))}))


def decision_fields(ring, arity):
    """Replacement values for each top-level field of a decision."""
    coeff = field(st.sampled_from(COEFFS[ring]))
    summand = st.fixed_dictionaries({"coeff": coeff, "vector": vector(ring, arity)})
    rep = st.fixed_dictionaries({"coeff": coeff, "rep": vector(ring, arity)})
    certificate = field(st.one_of(
        st.fixed_dictionaries({
            "type": field(st.just("span-witness")),
            "coefficients": field(st.lists(field(rep), max_size=2)),
            "explicitWitness": field(st.one_of(st.none(), st.fixed_dictionaries(
                {"summands": field(st.lists(field(summand), max_size=2))})))}),
        st.fixed_dictionaries({
            "type": st.just("dual-functional"),
            "functional": field(st.dictionaries(st.sampled_from(JUNK_TEXT), coeff, max_size=2))}),
        st.fixed_dictionaries({
            "type": st.just("character"),
            "character": field(st.dictionaries(st.sampled_from(JUNK_TEXT), point, max_size=2))}),
    ))
    return {"member": field(st.booleans()), "paramSet": field(st.lists(point, max_size=3)),
            "repCount": field(st.integers(0, 40)), "certificate": certificate}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text
    return code, out.getvalue()


@given(data=st.data(), ring=st.sampled_from(["Q", "Z", "GF(3)"]), arity=st.integers(1, 2),
       override=mostly(st.none(), st.sampled_from(["Q", "Z", "GF(3)", "GF(4)", "R"])),
       params=mostly(st.none(), st.sampled_from(["", "0,1", "1,1", "0,1/2,1,2", "x", "1/0"])),
       structure=st.sampled_from(["dlo", "pure-set"]))
@settings(max_examples=200, deadline=None)
def test_cli_input_contract_fuzz(tmp_path_factory, data, ring, arity, override, params,
                                 structure):
    """Malformed but structured JSON never escapes as an exception: decide
    and omega answer 0 or 2, verify 0, 2, or 3 on a decision that parsed,
    and every exit 2 is one error line.  The decision fed to verify is the
    one decide emitted with some fields replaced, or a made-up one."""
    where = tmp_path_factory.mktemp("fuzz")
    files = {name: where / f"{name}.json" for name in ("target", "gens", "decision")}
    files["target"].write_text(json.dumps(data.draw(vector(ring, arity))))
    files["gens"].write_text(
        json.dumps(data.draw(field(st.lists(vector(ring, arity), max_size=2)))))
    target = ["--target", files["target"]]
    gens = ["--gens", files["gens"], "--structure", structure]
    ring_opt = ["--ring", override] if override else []
    params_opt = ["--params", params] if params is not None else []

    code, out = run_main(["omega", *target, *ring_opt, *params_opt])
    assert code in (0, 2)
    code, out = run_main(["decide", *target, *gens, *ring_opt, *params_opt])
    assert code in (0, 2)
    replace = decision_fields(ring, arity)
    replaced = set()
    if code == 0:
        decision = json.loads(out)
        replaced = data.draw(st.sets(st.sampled_from(sorted(replace))))
        for key in replaced:
            decision[key] = data.draw(replace[key])
    else:
        decision = data.draw(field(st.fixed_dictionaries(replace)))
    files["decision"].write_text(json.dumps(decision))
    verified, out = run_main(["verify", *target, *gens, *ring_opt,
                              "--decision", files["decision"]])
    assert verified in (0, 2, 3)
    if verified == 3:
        assert json.loads(out) == {"verified": False}
    if code == 0 and not replaced:
        assert verified == 0
