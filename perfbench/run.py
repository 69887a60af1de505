#!/usr/bin/env python3
"""The permod benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see perfbench/README.md for why each exists):

* chain-yes   cold Q membership + verify of the m = 7 alternating chain;
* chain-no    cold Z (m = 7) and GF(5) (m = 6) NO decisions + verify;
* random-mix  seeded random instances over Q, GF(2), GF(3), Z, each
              decided, verified and probed by the grid oracle, in one
              warm process;
* cli-chain   ``permod decide --emit-certificate`` and ``permod verify``
              as subprocesses on three instances.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs one untraced and one traced pass and prints
the per-layer metrics.  Every line but the last is for people; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output was correct.

All load is closed-loop: one client, one operation at a time.  Work runs
in child processes (perfbench/worker.py) so that every chain pass starts
with permod's caches empty, as a CLI call does.  ``--smoke`` runs every
workload at tiny sizes in both modes and checks that every metric is
printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("chain-yes", "chain-no", "random-mix", "cli-chain")
PASS_SIZE = {"chain-yes": 1, "chain-no": 2, "random-mix": 100, "cli-chain": 3}
SETUP_PROBES = {"full": 5, "smoke": 2}
TRACE_RANDOM_INSTANCES = {"full": 300, "smoke": 12}
BASELINE_BACKEND = "pure-python"
# a seed kept out of tuning; a claimed gain must also hold on it
HELD_OUT_SEED = 7919
DEADLINE_S = 170.0


class RunError(Exception):
    pass


class Run:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env: dict = {}

    # -- child processes ---------------------------------------------------

    def worker(self, mode: str, *extra: str) -> dict:
        """Run perfbench/worker.py and return its JSON report."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", a.workload, "--seed", str(a.seed), "--size", a.size, *extra]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunError("out of time before starting a worker")
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"worker {mode} ran past the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise RunError(f"worker {mode} exited {proc.returncode}: {err.strip()[-800:]}")
        return json.loads(out.strip().splitlines()[-1])

    def tally(self, report: dict) -> list[dict]:
        self.env = report.get("env", self.env)
        for rec in report["instances"]:
            self.attempted += rec["ops"]
            self.failed += rec["failed"]
            self.errors.extend(rec["errors"])
        return report["instances"]

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    # -- modes -------------------------------------------------------------

    def untraced(self) -> dict[str, float]:
        a = self.args
        setups = [self.worker("setup")["setup_s"] for _ in range(SETUP_PROBES[a.size])]
        reports = []
        begin = time.monotonic()
        if a.workload == "random-mix":
            reports.append(self.worker("pass", "--seconds", repr(a.seconds)))
        else:
            # fresh process per pass; start another only if it fits the budget
            while True:
                t0 = time.monotonic()
                reports.append(self.worker("pass"))
                took = time.monotonic() - t0
                if time.monotonic() - begin + took > a.seconds:
                    break
        instances = [rec for r in reports for rec in self.tally(r)]
        walls = sorted(rec["wall_s"] for rec in instances)
        n = len(walls)
        # the highest percentile with at least ten samples beyond it; below
        # 100 samples that percentile is not a tail, so report the maximum
        if n >= 100:
            tail, self.tail_pct = walls[n - 11], 100.0 * (n - 10) / n
        else:
            tail, self.tail_pct = walls[-1], 100.0
        self.samples = n
        self.cuts = sum(rec.get("oracle_cut", 0) for rec in instances)
        per_pass = PASS_SIZE[a.workload] / n
        return {
            "setup_s": statistics.median(setups),
            "decide_s": sum(rec["decide_s"] for rec in instances) * per_pass,
            "verify_s": sum(rec["verify_s"] for rec in instances) * per_pass,
            "pipeline_inst_per_s": n / sum(walls),
            "instance_p50_ms": statistics.median(walls) * 1e3,
            "instance_tail_ms": tail * 1e3,
            "peak_rss_mb": max(r["rss_mb"] for r in reports),
        }

    def traced(self, per_layer: list[dict]) -> dict[str, float]:
        a = self.args
        fixed = []
        if a.workload == "random-mix":
            fixed = ["--instances", str(TRACE_RANDOM_INSTANCES[a.size])]
        os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
        spans = os.path.join(WORK, "trace", f"{a.workload}-seed{a.seed}-{a.size}.spans.jsonl")
        plain = self.tally(self.worker("pass", *fixed))
        report = self.worker("pass", *fixed, "--trace", spans)
        traced = self.tally(report)
        self.spans_file = os.path.relpath(spans, ROOT)

        # the traced run must decide exactly as the untraced one
        for x, y in zip(plain, traced):
            self.attempted += 1
            if (x["id"], x["digest"]) != (y["id"], y["digest"]):
                self.failed += 1
                self.errors.append(f"{y['id']}: traced decision differs from untraced")

        layers = report["layers"]
        layers["trace.overhead_ratio"] = (
            sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain))
        out = {m["name"]: layers.get(m["name"], 0) for m in per_layer}
        self.check_fingerprint({m["name"]: out[m["name"]] for m in per_layer
                                if m["unit"] == "count"})
        return out

    def check_fingerprint(self, counts: dict) -> None:
        """Counts must repeat exactly across runs of one seed and one source tree."""
        a = self.args
        self.fingerprint = counts
        where = os.path.join(WORK, "fingerprints")
        os.makedirs(where, exist_ok=True)
        path = os.path.join(where, f"{a.workload}-seed{a.seed}-{a.size}-{source_digest()}.json")
        self.attempted += 1
        if os.path.exists(path):
            with open(path) as fh:
                before = json.load(fh)
            moved = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
            if moved:
                self.failed += 1
                self.errors.append(f"counts differ from an earlier run of this seed: {moved}")
            return
        with open(path, "w") as fh:
            json.dump(counts, fh, sort_keys=True)


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".pyx")):
                    with open(os.path.join(base, name), "rb") as fh:
                        h.update(name.encode() + fh.read())
    return h.hexdigest()[:12]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "permod", "__init__.py")):
        print(f"error: no permod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    r = Run(args)
    metrics: dict[str, float] = {}
    try:
        metrics = r.traced(wanted) if args.trace else r.untraced()
    except RunError as exc:
        r.failed += 1
        r.attempted = max(r.attempted, 1)
        r.errors.append(str(exc))

    backend = r.env.get("kernel_backend", "unknown")
    print(f"permod benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print(f"env: python={r.env.get('python', '?')} nproc={len(os.sched_getaffinity(0))} "
          f"kernel_backend={backend} baseline_backend={BASELINE_BACKEND} "
          f"held_out_seed={HELD_OUT_SEED} elapsed_s={r.elapsed():.1f}")
    if backend != BASELINE_BACKEND:
        print(f"WARNING: kernel backend {backend!r} differs from the baseline's "
              f"{BASELINE_BACKEND!r}; timings are not comparable")
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    if not args.trace and metrics:
        if args.workload == "cli-chain":
            print(f"  cli_decide_s = {metrics['decide_s']!r} s, "
                  f"cli_verify_s = {metrics['verify_s']!r} s (the subprocess walls above)")
        print(f"  instance_tail_ms is p{r.tail_pct:.2f} of {r.samples} instance samples")
        print(f"  oracle calls cut at the time budget: {r.cuts}")
    if args.trace and metrics:
        print(f"  spans: {r.spans_file}")
        print(f"  fingerprint: {json.dumps(r.fingerprint, sort_keys=True)}")
    print(f"error_rate = {r.failed / max(r.attempted, 1)!r} ({r.failed} failed of {r.attempted})")
    for e in r.errors[:20]:
        print(f"FAILED: {e}")
    correct = r.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(r.attempted, 1),
        "failed": r.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; every metric of
    BENCHMARK.json must come out with its unit and a correct verdict."""
    spec = load_spec()
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=DEADLINE_S + 10)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            problems = []
            if proc.returncode != 0 or not result.get("correct"):
                problems.append(f"exit {proc.returncode}, correct={result.get('correct')}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            got = result.get("metrics", {})
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"] \
                        or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"metric {m['name']} missing or without unit {m['unit']}")
                elif not any(line.startswith(m["name"] + " = ") and line.endswith(m["unit"])
                             for line in lines):
                    problems.append(f"metric {m['name']} not printed with its unit")
            if set(got) - {m["name"] for m in wanted}:
                problems.append(f"unexpected metrics {sorted(set(got) - {m['name'] for m in wanted})}")
            status = "ok" if not problems else "FAIL"
            print(f"smoke {workload} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            if problems:
                print(proc.stderr[-2000:])
                bad.append((workload, trace))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny instances, for checking the harness")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at smoke size in both modes")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
