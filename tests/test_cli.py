"""CLI surface: exit codes, canonical output, round trips."""

import json
import subprocess
import sys

import pytest

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
