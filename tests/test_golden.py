"""Byte-identical decisions: sha256 of canonical decision JSON per case.

The fixture ``tests/data/golden_decisions.json`` was recorded with the
realise-every-representative pipeline (every placement built as a
vector, every row eliminated); the streaming pipeline must reproduce
every byte.  ``tests/data/golden_oracle.json`` was recorded with the
grid oracle that placed generators and target as `Fraction` tuples; it
holds oracle results, grid spans and the CLI's explicit witnesses.  To
re-record both after an intended output change:

    PYTHONPATH=src python tests/test_golden.py

``tests/data/golden_commands.json`` holds the exit code and the sha256 of
the stdout of `permod min-support`, `generates-all`, `cyclic` and `chain`
on fixed families and seeded random instances.  It was recorded with the
`min_support` that re-echelonised every row once per candidate subset,
and is never re-recorded; the command that wrote it was

    PYTHONPATH=src python tests/test_golden.py commands
"""

import hashlib
import json
import sys
from pathlib import Path

from permod import GF, QQ, ZZ, InstanceProfile, ModVector, ParamSet
from permod.cli import main as cli_main
from permod.decide import decision_to_json, membership, pure_set_expand
from permod.oracle import grid_span, oracle_membership, random_instance

FIXTURE = Path(__file__).parent / "data" / "golden_decisions.json"
ORACLE_FIXTURE = Path(__file__).parent / "data" / "golden_oracle.json"
COMMAND_FIXTURE = Path(__file__).parent / "data" / "golden_commands.json"
ORACLE_SEEDS = range(150)
ORACLE_GRIDS = (4, 7, 10)
RANDOM_RINGS = {"Q": QQ, "GF2": GF(2), "GF3": GF(3), "Z": ZZ}
CHAIN_RINGS = {"Q": QQ, "GF5": GF(5), "Z": ZZ}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _chain(ring, start, coeffs):
    return ModVector.from_terms(ring, 1, [((start + i,), c) for i, c in enumerate(coeffs)])


def _alternating(m, scale=1):
    return [scale * (-1) ** i for i in range(m)]


def _pure_set_case():
    gen = ModVector.from_terms(QQ, 2, [((i, (i + 1) % 4), (-1) ** i) for i in range(4)])
    target = ModVector.from_terms(
        QQ, 2, [((10 + (i + 1) % 4, 10 + i), (-1) ** i) for i in range(4)]
    )
    return target, [gen]


def decision_cases():
    """(case id, thunk returning a Decision) for every recorded decision."""
    for name, ring in CHAIN_RINGS.items():
        for m in range(1, 7):
            alt = _chain(ring, 0, _alternating(m))
            yield f"chain-{name}-m{m}-yes", lambda r=ring, m=m, g=alt: membership(
                _chain(r, 100, _alternating(m)), [g])
            yield f"chain-{name}-m{m}-ones", lambda r=ring, m=m, g=alt: membership(
                _chain(r, 0, [1] * m), [g])
            yield f"chain-{name}-m{m}-double", lambda r=ring, m=m: membership(
                _chain(r, 0, _alternating(m)), [_chain(r, 0, _alternating(m, 2))])
    # the benchmark's two m = 7 chains and a parameter superset
    yield "chain-Q-m7-yes", lambda: membership(
        _chain(QQ, 100, _alternating(7)), [_chain(QQ, 0, _alternating(7))])
    yield "chain-Z-m7-double", lambda: membership(
        _chain(ZZ, 0, _alternating(7)), [_chain(ZZ, 0, _alternating(7, 2))])
    for name, ring in CHAIN_RINGS.items():
        yield f"chain-{name}-m3-params", lambda r=ring: membership(
            _chain(r, 1, _alternating(3)), [_chain(r, 0, [1, -1])],
            param_set=ParamSet.of([0, 1, 2, 3, 7]))
    yield "pure-set", _pure_set_decision
    for name, ring in RANDOM_RINGS.items():
        for seed in range(400):
            yield f"random-{name}-{seed}", lambda r=ring, s=seed: _random_decision(s, r)


def _pure_set_decision():
    target, gens = _pure_set_case()
    return membership(target, pure_set_expand(gens))


def _random_decision(seed, ring):
    inst = random_instance(seed, InstanceProfile(ring=ring))
    return membership(inst.target, list(inst.generators))


OMEGA_CASES = {
    "omega-chain": ({"ring": "Q", "arity": 1, "terms": [
        {"coeff": "1", "tuple": ["0"]}, {"coeff": "-1", "tuple": ["2"]}]}, None),
    "omega-params": ({"ring": "Q", "arity": 1, "terms": [
        {"coeff": "1", "tuple": ["0"]}, {"coeff": "-1", "tuple": ["2"]}]}, "0,1/2,2"),
    "omega-pairs": ({"ring": "GF(3)", "arity": 2, "terms": [
        {"coeff": "1 mod 3", "tuple": ["0", "1"]},
        {"coeff": "2 mod 3", "tuple": ["1", "0"]},
        {"coeff": "1 mod 3", "tuple": ["1/2", "1/2"]}]}, "0,1"),
    "omega-triples": ({"ring": "Z", "arity": 3, "terms": [
        {"coeff": "3", "tuple": ["-1", "0", "5/3"]},
        {"coeff": "-2", "tuple": ["0", "0", "2"]},
        {"coeff": "1", "tuple": ["7", "1/3", "1/3"]}]}, "0,2"),
}


def omega_output(name, tmp_dir, capsys=None):
    vec, params = OMEGA_CASES[name]
    path = Path(tmp_dir) / f"{name}.json"
    path.write_text(json.dumps(vec))
    argv = ["omega", "--target", str(path)]
    if params is not None:
        argv += ["--params", params]
    if capsys is not None:
        assert cli_main(argv) == 0
        return capsys.readouterr().out
    from contextlib import redirect_stdout
    from io import StringIO

    buf = StringIO()
    with redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


def test_decisions_match_golden():
    golden = json.loads(FIXTURE.read_text())
    seen = 0
    for case_id, run in decision_cases():
        got = _sha(_canonical(decision_to_json(run())))
        assert got == golden[case_id], f"{case_id}: decision JSON changed"
        seen += 1
    assert seen == len([k for k in golden if not k.startswith("omega-")])


def test_omega_cli_matches_golden(tmp_path, capsys):
    golden = json.loads(FIXTURE.read_text())
    for name in OMEGA_CASES:
        assert _sha(omega_output(name, tmp_path, capsys)) == golden[name], name


def _summands_json(summands):
    return [{"coeff": v.ring.format(c), "vector": v.to_json()} for c, v in summands]


def oracle_results():
    """(case id, canonical [status, gridSize, witness summands]) for the
    random instances at every recorded grid bound."""
    for name, ring in RANDOM_RINGS.items():
        for seed in ORACLE_SEEDS:
            inst = random_instance(seed, InstanceProfile(ring=ring))
            for max_grid in ORACLE_GRIDS:
                res = oracle_membership(inst.target, list(inst.generators), max_grid)
                witness = None if res.witness is None else _summands_json(res.witness.summands)
                yield (f"oracle-{name}-{seed}-g{max_grid}",
                       _canonical([res.status, res.grid_size, witness]))


SPAN_GENERATORS = {
    "diff": lambda: [ModVector.from_terms(QQ, 1, [((0,), 1), ((1,), -1)])],
    "single": lambda: [ModVector.from_terms(QQ, 1, [((0,), 1)])],
    "z-doubled": lambda: [ModVector.from_terms(ZZ, 1, [((0,), 2)])],
    "gf2-pair": lambda: [ModVector.from_terms(GF(2), 1, [((0,), 1), ((1,), 1)])],
    "q-arity2": lambda: [ModVector.from_terms(QQ, 2, [((0, 1), 1), ((1, 0), -1)]),
                         ModVector.from_terms(QQ, 2, [((2, 2), 3)])],
    "z-arity2": lambda: [ModVector.from_terms(ZZ, 2, [((0, 1), 2), ((1, 1), 4)])],
}


def grid_spans():
    for name, gens in SPAN_GENERATORS.items():
        for size in range(3, 7):
            basis = grid_span(gens(), size)
            yield f"span-{name}-{size}", _canonical([v.to_json() for v in basis])


# (ring, seed, max grid) of random instances run through the CLI
ORACLE_CLI_CASES = [
    ("Q", 0, 8), ("Q", 3, 10), ("Q", 16, 8), ("GF3", 5, 8), ("GF2", 9, 6), ("Z", 2, 10),
    ("Z", 11, 4), ("Z", 13, 10),
]


def oracle_cli_outputs(tmp_dir):
    """stdout of `permod oracle-check` and `permod decide --witness-budget`
    for a few random instances."""
    from contextlib import redirect_stdout
    from io import StringIO

    for name, seed, grid in ORACLE_CLI_CASES:
        inst = random_instance(seed, InstanceProfile(ring=RANDOM_RINGS[name]))
        target = Path(tmp_dir) / f"{name}-{seed}-target.json"
        gens = Path(tmp_dir) / f"{name}-{seed}-gens.json"
        target.write_text(json.dumps(inst.target.to_json()))
        gens.write_text(json.dumps([g.to_json() for g in inst.generators]))
        common = ["--target", str(target), "--gens", str(gens)]
        for cmd, argv in (("oracle-check", ["oracle-check", *common, "--max-grid", str(grid)]),
                          ("decide", ["decide", *common, "--witness-budget", "8"])):
            buf = StringIO()
            with redirect_stdout(buf):
                assert cli_main(argv) == 0
            yield f"cli-{cmd}-{name}-{seed}-g{grid}", buf.getvalue()


def oracle_outputs(tmp_dir):
    yield from oracle_results()
    yield from grid_spans()
    yield from oracle_cli_outputs(tmp_dir)


def test_oracle_matches_golden(tmp_path):
    golden = json.loads(ORACLE_FIXTURE.read_text())
    seen = 0
    for case_id, text in oracle_outputs(tmp_path):
        assert _sha(text) == golden[case_id], f"{case_id}: oracle output changed"
        seen += 1
    assert seen == len(golden)


def _four_point(ring):
    """(0,1) - (1,2) + (2,3) - (3,0), the pure-set case's generator."""
    return ModVector.from_terms(ring, 2, [((i, (i + 1) % 4), (-1) ** i) for i in range(4)])


COMMAND_FAMILIES = {
    "diff": lambda r: [_chain(r, 0, [1, -1])],
    "second-diff": lambda r: [_chain(r, 0, [1, -2, 1])],
    "alt3": lambda r: [_chain(r, 0, _alternating(3))],
    "double": lambda r: [_chain(r, 0, [2])],
    "diff-and-second": lambda r: [_chain(r, 0, [1, -1]), _chain(r, 5, [1, -2, 1])],
    "swap": lambda r: [ModVector.from_terms(r, 2, [((0, 1), 1), ((1, 0), -1)])],
    "four-point": lambda r: [_four_point(r)],
}
COMMAND_SEEDS = range(60)


def command_cases():
    """(case id, generator sets, argv template) for every recorded command;
    ``{0}``, ``{1}`` ... in the template name the generator-set files."""
    for name, ring in RANDOM_RINGS.items():
        for fam, make in COMMAND_FAMILIES.items():
            gens = make(ring)
            arity = gens[0].arity
            top = 3 if arity == 1 or (fam == "four-point" and name in ("Q", "Z")) else 2
            for k in range(1, top + 1):
                yield f"min-support-{fam}-{name}-k{k}", [gens], ["min-support", "--gens", "{0}",
                                                               "--k", str(k)]
            yield f"generates-all-{fam}-{name}", [gens], ["generates-all", "--gens", "{0}"]
            yield f"cyclic-{fam}-{name}", [gens], ["cyclic", "--gens", "{0}"]
            other = COMMAND_FAMILIES["diff" if arity == 1 else "swap"](ring)
            yield f"chain-{fam}-{name}", [gens, gens + other, other], ["chain", "{0}", "{1}", "{2}"]
        for seed in COMMAND_SEEDS:
            inst = random_instance(seed, InstanceProfile(ring=ring, max_support=3))
            gens = list(inst.generators)
            for k in (1, 2):
                yield f"min-support-random-{name}-{seed}-k{k}", [gens], [
                    "min-support", "--gens", "{0}", "--k", str(k)]
            yield f"generates-all-random-{name}-{seed}", [gens], ["generates-all", "--gens", "{0}"]
            yield f"cyclic-random-{name}-{seed}", [gens], ["cyclic", "--gens", "{0}"]
            yield f"chain-random-{name}-{seed}", [gens, gens + [inst.target], gens], [
                "chain", "{0}", "{1}", "{2}"]


def command_outputs(tmp_dir):
    """(case id, [exit code, sha256 of stdout]) for every command case."""
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    for case_id, sets, template in command_cases():
        paths = []
        for i, gens in enumerate(sets):
            path = Path(tmp_dir) / f"{case_id}-{i}.json"
            path.write_text(json.dumps([g.to_json() for g in gens]))
            paths.append(str(path))
        argv = [a.format(*paths) for a in template]
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = cli_main(argv)
        yield case_id, [code, _sha(out.getvalue())]


def test_commands_match_golden(tmp_path):
    golden = json.loads(COMMAND_FIXTURE.read_text())
    seen = 0
    for case_id, got in command_outputs(tmp_path):
        assert got == golden[case_id], f"{case_id}: command output changed"
        seen += 1
    assert seen == len(golden)


def record_commands() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = dict(command_outputs(tmp))
    COMMAND_FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} command outputs to {COMMAND_FIXTURE}", file=sys.stderr)


def record() -> None:
    import tempfile

    out = {case_id: _sha(_canonical(decision_to_json(run())))
           for case_id, run in decision_cases()}
    with tempfile.TemporaryDirectory() as tmp:
        for name in OMEGA_CASES:
            out[name] = _sha(omega_output(name, tmp))
        oracle = {case_id: _sha(text) for case_id, text in oracle_outputs(tmp)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    ORACLE_FIXTURE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} decisions to {FIXTURE} and {len(oracle)} oracle "
          f"outputs to {ORACLE_FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    record_commands() if sys.argv[1:] == ["commands"] else record()
