"""Byte-identical decisions: sha256 of canonical decision JSON per case.

The fixture ``tests/data/golden_decisions.json`` was recorded with the
realise-every-representative pipeline (every placement built as a
vector, every row eliminated); the streaming pipeline must reproduce
every byte.  To re-record after an intended certificate change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from permod import GF, QQ, ZZ, InstanceProfile, ModVector, ParamSet
from permod.cli import main as cli_main
from permod.decide import decision_to_json, membership, pure_set_expand
from permod.oracle import random_instance

FIXTURE = Path(__file__).parent / "data" / "golden_decisions.json"
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


def record() -> None:
    import tempfile

    out = {case_id: _sha(_canonical(decision_to_json(run())))
           for case_id, run in decision_cases()}
    with tempfile.TemporaryDirectory() as tmp:
        for name in OMEGA_CASES:
            out[name] = _sha(omega_output(name, tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} cases to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    record()
