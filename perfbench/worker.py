"""One benchmark process: builds a workload's inputs and runs passes of it.

    python3 perfbench/worker.py setup --workload W --seed N [--size smoke]
    python3 perfbench/worker.py pass  --workload W --seed N [--seconds T | --instances K]
                                      [--trace SPANS_FILE] [--size smoke]

``setup`` times import plus input construction and exits.  ``pass`` runs
the workload once (random-mix: instances until T seconds or K instances
have run), checks every output and prints one JSON object with the
per-instance timings, the checks that failed and, when traced, the
per-layer metrics.  run.py starts these processes; nothing here is meant
to be called by hand except for debugging.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 150

# placed representatives of an m-point chain over its own support, m = 1..7
CHAIN_REPS = {1: 3, 2: 13, 3: 63, 4: 321, 5: 1683, 6: 8989, 7: 48639}
PURE_SET_REPS = 3852
RANDOM_PASS = 100  # random-mix instances per pass; decide_s and verify_s are per pass
ORACLE_MAX_GRID = 10
# The grid oracle is a cross-check that may stay inconclusive.  On rare Z
# instances (about one in 1500) its integer elimination blows up and runs
# for minutes; a call that exceeds this budget is cut, counted and
# reported, never silently dropped.
ORACLE_BUDGET_S = 1.0
CLI_WITNESS_BUDGET = 8

SIZES = {
    # chain length for chain-yes, chain-no (Z and GF(5)) and cli-chain
    "full": {"yes": 7, "no_z": 7, "no_gf5": 6, "cli": 6},
    "smoke": {"yes": 3, "no_z": 3, "no_gf5": 2, "cli": 3},
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One decision of a fixed family, with its expected outcome."""

    label: str
    target: object
    gens: list
    member: bool
    reps: int
    kind: str
    pure_set: bool = False
    witness_budget: int = 0


def chain_vector(ring, start: int, coeffs):
    from permod import ModVector

    return ModVector.from_terms(ring, 1, [((start + i,), c) for i, c in enumerate(coeffs)])


def alternating(m: int, scale: int = 1) -> list[int]:
    return [scale * (-1) ** i for i in range(m)]


def pure_set_case():
    """Q, arity 2: sum_i (-1)^i (i, i+1 mod 4) against its coordinate-swapped
    translate by 10."""
    from permod import QQ, ModVector

    gen = ModVector.from_terms(QQ, 2, [((i, (i + 1) % 4), (-1) ** i) for i in range(4)])
    target = ModVector.from_terms(
        QQ, 2, [((10 + (i + 1) % 4, 10 + i), (-1) ** i) for i in range(4)]
    )
    return Case("pure-set", target, [gen], True, PURE_SET_REPS, "span-witness",
                pure_set=True)


def chain_cases(workload: str, size: dict) -> list[Case]:
    from permod import GF, QQ, ZZ

    if workload == "chain-yes":
        m = size["yes"]
        return [Case(f"Q-m{m}", chain_vector(QQ, 100, alternating(m)),
                     [chain_vector(QQ, 0, alternating(m))], True, CHAIN_REPS[m],
                     "span-witness")]
    if workload == "chain-no":
        m, k = size["no_z"], size["no_gf5"]
        gf5 = GF(5)
        return [
            Case(f"Z-m{m}", chain_vector(ZZ, 0, alternating(m)),
                 [chain_vector(ZZ, 0, alternating(m, 2))], False, CHAIN_REPS[m],
                 "character"),
            Case(f"GF5-m{k}", chain_vector(gf5, 0, [1] * k),
                 [chain_vector(gf5, 0, alternating(k))], False, CHAIN_REPS[k],
                 "dual-functional"),
        ]
    m = size["cli"]
    return [
        Case(f"Q-m{m}", chain_vector(QQ, 100, alternating(m)),
             [chain_vector(QQ, 0, alternating(m))], True, CHAIN_REPS[m], "span-witness",
             witness_budget=CLI_WITNESS_BUDGET),
        Case(f"Z-m{m}", chain_vector(ZZ, 0, alternating(m)),
             [chain_vector(ZZ, 0, alternating(m, 2))], False, CHAIN_REPS[m], "character"),
        pure_set_case(),
    ]


def random_stream(seed: int):
    """Default-profile random instances, with instance seeds drawn from
    ``random.Random(seed)``.

    The stream is stratified: instance k has ring Q, GF(2), GF(3), Z by
    k mod 4, arity 1 or 2 and planted or not as k runs through the other
    factors, and candidate seeds are drawn until one fits.  Each of the 16
    strata has probability exactly 1/16 under ``random_instance``, so the
    mix is the default profile's own; fixing the proportions only removes
    the run-to-run wobble of how many heavy instances a run gets.
    """
    from permod import GF, QQ, ZZ, InstanceProfile, oracle

    rings = [QQ, GF(2), GF(3), ZZ]
    rng = random.Random(seed)
    k = 0
    while True:
        profile = InstanceProfile(ring=rings[k % 4])
        arity = 1 + (k // 4) % 2
        planted = (k // 8) % 2 == 1
        while True:
            inst = oracle.random_instance(rng.getrandbits(40), profile)
            if inst.target.arity == arity and inst.planted == planted:
                break
        yield k, inst
        k += 1


def write_cli_files(cases: list[Case], where: str) -> list[dict]:
    os.makedirs(where, exist_ok=True)
    files = []
    for i, case in enumerate(cases):
        paths = {n: os.path.join(where, f"{i}-{n}.json") for n in ("target", "gens", "cert")}
        with open(paths["target"], "w") as fh:
            fh.write(canonical(case.target.to_json()) + "\n")
        with open(paths["gens"], "w") as fh:
            fh.write(canonical([g.to_json() for g in case.gens]) + "\n")
        files.append(paths)
    return files


def build_inputs(workload: str, seed: int, size: dict, where: str):
    if workload in ("chain-yes", "chain-no"):
        return chain_cases(workload, size)
    if workload == "cli-chain":
        import permod.cli  # noqa: F401  the start-up every CLI call pays

        cases = chain_cases(workload, size)
        return cases, write_cli_files(cases, where)
    stream = random_stream(seed)
    return [next(stream) for _ in range(RANDOM_PASS)]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def cert_kind(decision) -> str:
    from permod.decide import certificate_to_json

    return certificate_to_json(decision.certificate)["type"]


class Outcome:
    """Timings and failed checks of one instance; an operation (decide,
    verify, oracle) counts as failed once, however many checks it fails."""

    def __init__(self, ident: str):
        self.rec = {"id": ident, "decide_s": 0.0, "verify_s": 0.0, "oracle_s": 0.0,
                    "ops": 0, "errors": []}
        self.failed_ops: set[str] = set()

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.rec["errors"].append(message)

    def check(self, ok: bool, op: str, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def done(self, digest_text: str) -> dict:
        r = self.rec
        r["failed"] = len(self.failed_ops)
        r["wall_s"] = r["decide_s"] + r["verify_s"] + r["oracle_s"]
        r["digest"] = digest_text
        return r


def run_library_case(ident, target, gens, tracer, expect):
    """decide + verify (+ oracle) of one instance in this process.

    ``expect(decision, oracle_result, outcome)`` adds the case's checks.
    """
    from permod import decide, oracle

    out = Outcome(ident)
    if tracer:
        tracer.root = ident
    ctx = tracer.span("instance") if tracer else nullcontext()
    with ctx:
        out.rec["ops"] += 1
        t0 = time.perf_counter()
        try:
            d = decide.membership(target, gens)
        except Exception as exc:  # the failure is counted, never dropped
            out.fail("decide", f"decide raised {exc!r}")
            return out.done("")
        out.rec["decide_s"] = time.perf_counter() - t0
        out.rec["ops"] += 1
        t0 = time.perf_counter()
        try:
            out.check(decide.verify_certificate(d, target, gens) is True, "verify",
                      "verify_certificate did not return True")
        except Exception as exc:
            out.fail("verify", f"verify raised {exc!r}")
        out.rec["verify_s"] = time.perf_counter() - t0
        found = None
        if expect.oracle:
            out.rec["ops"] += 1
            t0 = time.perf_counter()
            try:
                found = within_budget(
                    lambda: oracle.oracle_membership(target, gens, ORACLE_MAX_GRID),
                    ORACLE_BUDGET_S)
            except OverBudget:
                out.rec["oracle_cut"] = 1
            except Exception as exc:
                out.fail("oracle", f"oracle raised {exc!r}")
            out.rec["oracle_s"] = time.perf_counter() - t0
        expect(d, found, out)
    return out.done(digest(canonical(decide.decision_to_json(d))))


class OverBudget(Exception):
    pass


def within_budget(call, seconds: float):
    """``call()``, interrupted with OverBudget after ``seconds`` of wall time."""
    armed = [True]

    def alarm(signum, frame):
        if armed[0]:
            raise OverBudget

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class ExpectCase:
    oracle = False

    def __init__(self, case: Case):
        self.case = case

    def __call__(self, d, found, out):
        c = self.case
        out.check(d.member == c.member, "decide", f"{c.label}: member={d.member}, expected {c.member}")
        out.check(d.rep_count == c.reps, "decide", f"{c.label}: {d.rep_count} reps, expected {c.reps}")
        kind = cert_kind(d)
        out.check(kind == c.kind, "decide", f"{c.label}: certificate {kind}, expected {c.kind}")


class ExpectRandom:
    oracle = True

    def __init__(self, inst):
        self.inst = inst

    def __call__(self, d, found, out):
        inst = self.inst
        if inst.planted:
            out.check(d.member, "decide", f"seed {inst.seed}: planted target decided NO")
        if found is not None and found.conclusive:
            out.check(d.member, "oracle", f"seed {inst.seed}: oracle witness against a decider NO")
        if d.member:
            want = "span-witness"
        else:
            want = "dual-functional" if inst.target.ring.is_field else "character"
        kind = cert_kind(d)
        out.check(kind == want, "decide", f"seed {inst.seed}: certificate {kind}, expected {want}")


def run_cli_case(i: int, case: Case, files: dict, spans_dir: str | None) -> tuple[dict, int]:
    """``permod decide --emit-certificate`` then ``permod verify`` as subprocesses."""
    out = Outcome(f"cli-{case.label}")
    structure = ["--structure", "pure-set"] if case.pure_set else []
    decide_args = ["decide", "--target", files["target"], "--gens", files["gens"],
                   "--emit-certificate", files["cert"], *structure]
    if case.witness_budget:
        decide_args += ["--witness-budget", str(case.witness_budget)]
    verify_args = ["verify", "--decision", files["cert"], "--target", files["target"],
                   "--gens", files["gens"], *structure]
    stdout_bytes = 0
    results = {}
    for step, args in (("decide", decide_args), ("verify", verify_args)):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "permod.cli", *args]
        else:
            stem = os.path.join(spans_dir, f"{i}-{step}")
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "cli_traced.py"),
                   stem, f"cli-{case.label}", *args]
        out.rec["ops"] += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.fail(step, f"{case.label}: {step} timed out")
            return out.done(""), stdout_bytes
        out.rec[f"{step}_s"] = time.perf_counter() - t0
        stdout_bytes += len(proc.stdout)
        results[step] = proc
        if proc.returncode != 0:
            out.fail(step, f"{case.label}: {step} exited {proc.returncode}: "
                     f"{proc.stderr.decode(errors='replace')[-300:]}")
            return out.done(""), stdout_bytes
    with open(files["cert"], "rb") as fh:
        emitted = fh.read()
    decided = results["decide"].stdout
    out.check(emitted == decided, "decide", f"{case.label}: --emit-certificate file differs from stdout")
    out.check(results["verify"].stdout == b'{"verified":true}\n', "verify",
              f"{case.label}: verify printed {results['verify'].stdout[:80]!r}")
    try:
        obj = json.loads(decided)
        member, reps = obj["member"], obj["repCount"]
        cert = obj["certificate"]
        out.check(member == case.member, "decide", f"{case.label}: member={member}")
        out.check(reps == case.reps, "decide", f"{case.label}: {reps} reps, expected {case.reps}")
        out.check(cert["type"] == case.kind, "decide", f"{case.label}: certificate {cert['type']}")
        if case.witness_budget:
            out.check(cert.get("explicitWitness") is not None, "decide",
                      f"{case.label}: no explicit witness within the budget")
    except (ValueError, KeyError, TypeError) as exc:
        out.fail("decide", f"{case.label}: unreadable decision JSON: {exc!r}")
    return out.done(digest(decided)), stdout_bytes


def cli_startup_s(probes: int) -> float:
    walls = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import permod.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_pass(args, inputs, tracer) -> dict:
    report: dict = {"instances": []}
    if args.workload in ("chain-yes", "chain-no"):
        for case in inputs:
            report["instances"].append(
                run_library_case(case.label, case.target, case.gens, tracer, ExpectCase(case)))
        return report

    if args.workload == "cli-chain":
        cases, files = inputs
        spans_dir = None
        if tracer:
            spans_dir = os.path.splitext(args.trace)[0] + ".cli"
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
        decide_wall = verify_wall = 0.0
        total_bytes = 0
        for i, (case, paths) in enumerate(zip(cases, files)):
            rec, nbytes = run_cli_case(i, case, paths, spans_dir)
            report["instances"].append(rec)
            decide_wall += rec["decide_s"]
            verify_wall += rec["verify_s"]
            total_bytes += nbytes
        if tracer:
            from tracing import sum_metrics

            parts = []
            for name in sorted(os.listdir(spans_dir)):
                if name.endswith(".metrics.json"):
                    with open(os.path.join(spans_dir, name)) as fh:
                        parts.append(json.load(fh))
            layers = sum_metrics(parts)
            layers.update({
                "cli.startup_s": cli_startup_s(3),
                "cli.decide.wall_s": decide_wall,
                "cli.verify.wall_s": verify_wall,
                "cli.stdout_bytes": total_bytes,
            })
            report["layers"] = layers
        return report

    stream = random_stream(args.seed)
    started = time.perf_counter()
    while True:
        if args.instances is not None:
            if len(report["instances"]) >= args.instances:
                break
        elif time.perf_counter() - started >= args.seconds:
            break
        if tracer:
            tracer.root = "stream"  # instance generation belongs to no instance
        k, inst = next(stream)
        gens = list(inst.generators)
        report["instances"].append(
            run_library_case(f"r{k}", inst.target, gens, tracer, ExpectRandom(inst)))
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "pass"])
    ap.add_argument("--workload", required=True,
                    choices=["chain-yes", "chain-no", "random-mix", "cli-chain"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--instances", type=int)
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import permod

    if not os.path.abspath(permod.__file__).startswith(SRC + os.sep):
        print(f"permod was imported from {permod.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    where = os.path.join(WORK, f"inputs-{os.getpid()}")
    inputs = build_inputs(args.workload, args.seed, SIZES[args.size], where)
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        shutil.rmtree(where, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        report = run_pass(args, inputs, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(where, ignore_errors=True)
    if tracer:
        tracer.dump(args.trace)
        if "layers" not in report:
            cut = {r["id"] for r in report["instances"] if r.get("oracle_cut")}
            report["layers"] = tracer.metrics(cut)
            report["layers"]["oracle.budget_cuts"] = len(cut)
    report["setup_s"] = setup_s
    report["rss_mb"] = peak_rss_mb()
    report["env"] = {
        "python": sys.version.split()[0],
        "kernel_backend": getattr(permod, "KERNEL_BACKEND", "absent"),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
