"""Command-line front end.

Every subcommand reads canonical JSON files (a target vector is one
vector object, a generator set is an array of them) and writes canonical
JSON to stdout: keys sorted, scalars as exact strings, no floats.
Identical inputs produce byte-identical outputs.

Exit codes: 0 decided/answered, 1 stdout closed early, 2 input error,
3 internal verification failure (an emitted certificate failed its own
re-check; a bug, never a mathematical outcome).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from permod import decide as dec
from permod import oracle as orc
from permod.pmod import ModVector, omega, support_points
from permod.ring import QQ, RingSpec
from permod.structure import ParamSet, parse_point


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with the one line every other input error gets."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None


def _load_target(path: str, ring: RingSpec | None) -> ModVector:
    obj = _load_json(path)
    try:
        return ModVector.from_json(obj, ring)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_generators(path: str, ring: RingSpec | None) -> list[ModVector]:
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise InputError(f"{path}: generator file must hold a JSON array of vectors")
    out = []
    for i, entry in enumerate(obj):
        try:
            out.append(ModVector.from_json(entry, ring))
        except ValueError as exc:
            raise InputError(f"{path}: generator {i}: {exc}") from None
    return out


def _parse_params(text: str) -> ParamSet:
    text = text.strip()
    if not text:
        return ParamSet.empty()
    return ParamSet.of(parse_point(p) for p in text.split(","))


def _ring_arg(args) -> RingSpec | None:
    return RingSpec.from_name(args.ring) if args.ring else None


def cmd_decide(args) -> int:
    ring = _ring_arg(args)
    target = _load_target(args.target, ring)
    gens = _load_generators(args.gens, ring)
    params = _parse_params(args.params) if args.params is not None else None
    if args.structure == "pure-set":
        if params is not None:
            raise InputError("--params is only supported with --structure dlo")
        gens = dec.pure_set_expand(gens)
    decision = dec.membership(
        target, gens, param_set=params, witness_budget=args.witness_budget
    )
    if not dec.verify_certificate(decision, target, gens):
        print("internal error: certificate failed re-verification", file=sys.stderr)
        return 3
    text = _dump(dec.decision_to_json(decision))
    if args.emit_certificate:  # first: stdout may close early
        try:
            Path(args.emit_certificate).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"{args.emit_certificate}: {exc}") from None
    print(text)
    return 0


def cmd_verify(args) -> int:
    ring = _ring_arg(args)
    target = _load_target(args.target, ring)
    gens = _load_generators(args.gens, ring)
    if args.structure == "pure-set":
        gens = dec.pure_set_expand(gens)
    obj = _load_json(args.decision)
    try:
        decision = dec.decision_from_json(obj, target.ring)
    except ValueError as exc:
        raise InputError(f"{args.decision}: {exc}") from None
    ok = dec.verify_certificate(decision, target, gens)
    print(_dump({"verified": ok}))
    return 0 if ok else 3


def cmd_omega(args) -> int:
    ring = _ring_arg(args)
    target = _load_target(args.target, ring)
    params = _parse_params(args.params) if args.params is not None else support_points(target)
    print(_dump(omega(target, params).to_json()))
    return 0


def cmd_generates_all(args) -> int:
    ring = _ring_arg(args)
    gens = _load_generators(args.gens, ring)
    if not gens:
        raise InputError("generates-all needs at least one generator")
    result = dec.generates_all(gens)
    payload = {
        "generatesAll": result.result,
        "decisions": [
            {"rep": w.to_json(), "decision": dec.decision_to_json(d)}
            for w, d in result.decisions
        ],
    }
    print(_dump(payload))
    return 0


def cmd_min_support(args) -> int:
    ring = _ring_arg(args)
    gens = _load_generators(args.gens, ring)
    found = dec.min_support(gens, args.k)
    print(_dump({"vector": found.to_json() if found is not None else None}))
    return 0


def cmd_cyclic(args) -> int:
    ring = _ring_arg(args)
    gens = _load_generators(args.gens, ring)
    try:
        result = dec.cyclic_generator(gens)
    except dec.VerificationError as exc:
        payload = {"error": str(exc)}
        if exc.decision is not None:
            payload["decision"] = dec.decision_to_json(exc.decision)
        print(_dump(payload), file=sys.stderr)
        return 3
    payload = {
        "generator": result.generator.to_json(),
        "into": [dec.decision_to_json(d) for d in result.into],
        "back": dec.decision_to_json(result.back),
    }
    print(_dump(payload))
    return 0


def cmd_oracle_check(args) -> int:
    ring = _ring_arg(args)
    target = _load_target(args.target, ring)
    gens = _load_generators(args.gens, ring)
    result = orc.oracle_membership(target, gens, args.max_grid)
    witness = result.witness
    payload = {
        "status": result.status,
        "gridSize": result.grid_size,
        "witness": witness.to_json()["summands"] if witness is not None else None,
    }
    print(_dump(payload))
    return 0


def cmd_chain(args) -> int:
    ring = _ring_arg(args)
    sets = [_load_generators(path, ring) for path in args.sets]
    if len(sets) < 2:
        raise InputError("chain needs at least two generator-set files")
    steps = []
    for i in range(len(sets) - 1):
        earlier, later = sets[i], sets[i + 1]
        witness = None
        for g in later:
            d = dec.membership(g, earlier)
            if not d.member:
                witness = {"generator": g.to_json(), "decision": dec.decision_to_json(d)}
                break
        steps.append({"from": i, "to": i + 1, "proper": witness is not None, "witness": witness})
    print(_dump({"steps": steps}))
    return 0


def cmd_random_instance(args) -> int:
    ring = RingSpec.from_name(args.ring) if args.ring else QQ
    profile = orc.InstanceProfile(
        arity=args.arity,
        max_support=args.max_support,
        ring=ring,
        point_pool=args.point_pool,
    )
    inst = orc.random_instance(args.seed, profile)
    manifest = {"seed": args.seed, "profile": profile.to_json(), "planted": inst.planted}
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "target.json").write_text(_dump(inst.target.to_json()) + "\n")
        (out / "gens.json").write_text(
            _dump([g.to_json() for g in inst.generators]) + "\n"
        )
        (out / "manifest.json").write_text(_dump(manifest) + "\n")
    except OSError as exc:
        raise InputError(f"{args.out}: {exc}") from None
    print(_dump(manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permod",
        description="decide membership in finitely generated order-invariant "
        "submodules of permutation modules, with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, structure=False, params=False, witness=False):
        if structure:
            p.add_argument("--structure", choices=["dlo", "pure-set"], default="dlo")
        p.add_argument("--ring", help="coerce vectors into this ring (Q, Z, GF(p))")
        if params:
            p.add_argument("--params", help='parameter points, e.g. "0,2" (optional)')
        if witness:
            p.add_argument("--witness-budget", type=int, default=0,
                           help="max oracle grid for the explicit-witness search")

    p = sub.add_parser("decide", help="decide membership of a target vector")
    p.add_argument("--target", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--emit-certificate", metavar="FILE",
                   help="also write the decision JSON to FILE")
    common(p, structure=True, params=True, witness=True)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="re-check an emitted decision from scratch")
    p.add_argument("--decision", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--gens", required=True)
    common(p, structure=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("omega", help="orbitwise coefficient sums of a vector")
    p.add_argument("--target", required=True)
    common(p, params=True)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("generates-all", help="do the generators span everything?")
    p.add_argument("--gens", required=True)
    common(p)
    p.set_defaults(func=cmd_generates_all)

    p = sub.add_parser("min-support", help="search for a small-support member")
    p.add_argument("--gens", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_min_support)

    p = sub.add_parser("cyclic", help="combine generators into one, verified")
    p.add_argument("--gens", required=True)
    common(p)
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("oracle-check", help="grid search for an explicit witness")
    p.add_argument("--target", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--max-grid", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("chain", help="probe consecutive generator sets for proper growth")
    p.add_argument("sets", nargs="+", metavar="GENS_FILE")
    common(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("random-instance", help="write a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ring")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--max-support", type=int, default=4)
    p.add_argument("--point-pool", type=int, default=4)
    p.set_defaults(func=cmd_random_instance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("witness_budget", "max_grid"):
            if getattr(args, name, 0) < 0:
                raise InputError(f"--{name.replace('_', '-')} must not be negative")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the rest of the buffer goes to devnull, not to a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
