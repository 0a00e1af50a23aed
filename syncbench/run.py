#!/usr/bin/env python3
"""syncbench: the whole-system benchmark of the syncmark reproduction.

Run from the repository root:

    python3 syncbench/run.py --jobs 2 --workload paper_full --seed 7 --seconds 42 --trace 0

Builds `syncbench/` (a cargo package of its own) in release mode, then runs
repetitions of the workload until `--seconds` are spent, each in a fresh
process, and checks every artifact each one produces. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(repetitions then alternate between an untraced and a traced process, which
gives `trace.overhead_frac`). See `syncbench/README.md`.

`--repin` recomputes `syncbench/pinned.json` (artifact digests and
instruction counts) from the current program. Only do that for a change
that is meant to move the outputs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, "results")
PINNED = os.path.join(HERE, "pinned.json")

WORKLOADS = ("paper_full", "multigrid_sweep", "reduce_stream")
# Registry entries whose output depends on the fault seed.
SEEDED = ("sync_resilience", "sync_recovery")
# Entries without a committed results/*.txt, checked against pinned digests.
DIGESTED = ("fused_pipeline", "synccheck") + SEEDED
PINNED_SEEDS = ("7", "42")
# The traced run's rebuilt sync-chain experiments (engine layer) and its
# reduction-driver experiments (reduction layer).
CHAIN_EXPERIMENTS = ("fig5", "fig7", "fig8")
REDUCE_EXPERIMENTS = ("allreduce", "fig16", "fig15", "table6")
REDUCTION_TIMES = ("reduction.allreduce_s", "reduction.multi_gpu_reduce_s",
                   "reduction.device_reduce_s")
SETUP_PROBES = 21
REP_TIMEOUT_S = 170


def die(msg):
    print(f"syncbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Build the benchmark binary; exit nonzero if the program is not there."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "syncbench")


def run_child(binary, args, timeout=REP_TIMEOUT_S):
    """Run the benchmark binary once; returns (record, spawn-to-exit s)."""
    spawn = time.monotonic_ns()
    proc = subprocess.run([binary, *args, "--spawn-ns", str(spawn)],
                          capture_output=True, text=True, timeout=timeout)
    took = (time.monotonic_ns() - spawn) / 1e9
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None, took
    return json.loads(proc.stdout.strip().splitlines()[-1]), took


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


class Checker:
    """Counts operations and failures; one operation per artifact and per
    cross-check of a repetition."""

    def __init__(self, pinned, seed):
        self.pinned = pinned
        self.seed = str(seed)
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"syncbench: check failed: {what}", file=sys.stderr)

    def expected_instrs(self, names, rep):
        """The pinned instruction total for `names`, with the seeded entries
        taken from the serial re-run (their count depends on the seed)."""
        seeded = {s["name"]: s["sim_instrs"] for s in rep["seeded"]}
        fixed = self.pinned["experiment_instrs"]
        return sum(seeded[n] if n in SEEDED else fixed[n] for n in names)

    def rep(self, rep, out_dir):
        """Verify one repetition's artifacts and counters."""
        names = [e["name"] for e in rep["experiments"]]
        pins = self.pinned
        seed_pins = pins["seeded"].get(self.seed)
        for exp in rep["experiments"]:
            name = exp["name"]
            text = read(os.path.join(out_dir, f"{name}.txt"))
            if exp["error"] is not None or text is None:
                self.check(False, f"{name}: {exp['error']}")
                continue
            ref = os.path.join(RESULTS, f"{name}.txt")
            if name in SEEDED:
                serial = read(os.path.join(out_dir, f"{name}.serial.txt"))
                self.check(text == serial, f"{name}: differs from its serial re-run")
                if seed_pins is not None:
                    self.check(sha256(os.path.join(out_dir, f"{name}.txt"))
                               == seed_pins["digests"][name],
                               f"{name}: digest differs from seed {self.seed}'s pin")
            elif name in DIGESTED:
                self.check(sha256(os.path.join(out_dir, f"{name}.txt"))
                           == pins["digests"][name], f"{name}: digest differs from pin")
            else:
                self.check(text == read(ref), f"{name}: differs from results/{name}.txt")
        for s in rep["seeded"]:
            self.check(s["error"] is None, f"{s['name']} serial re-run: {s['error']}")
            if seed_pins is not None:
                self.check(s["sim_instrs"] == seed_pins["experiment_instrs"][s["name"]],
                           f"{s['name']}: sim_instrs differs from seed {self.seed}'s pin")
        want = self.expected_instrs(names, rep)
        self.check(rep["sim_instrs"] == want,
                   f"sim_instrs {rep['sim_instrs']} != pinned {want}")
        # Busy time is how long each entry occupied a registry worker, so
        # the workers together cannot have been busy for longer than
        # workers x wall time; more means time was counted twice.
        busy = sum(e["busy_s"] for e in rep["experiments"])
        self.check(busy <= rep["jobs"] * rep["wall_s"],
                   f"experiments.busy_s {busy:.3f} > {rep['jobs']} workers x wall_s"
                   f" {rep['wall_s']:.3f}")
        if rep["mode"] == "trace":
            layers = dict(rep["layers"])
            chain = [n for n in names if n in CHAIN_EXPERIMENTS]
            self.check(layers["engine.sim_instrs"] == self.expected_instrs(chain, rep),
                       "traced engine.sim_instrs differs from the pinned chain total")


def layer_metrics(traced, untraced, pinned):
    """Per-layer metrics: medians over the traced repetitions, plus the
    figures derived from pins and from the untraced repetitions."""
    names = [e["name"] for e in traced[0]["experiments"]]
    keys = [k for k, _ in traced[0]["layers"]]
    m = {k: statistics.median(dict(r["layers"])[k] for r in traced) for k in keys}
    # The reduction drivers report no instruction counts of their own: their
    # share is the run's counted total minus every other experiment's pin.
    fixed = pinned["experiment_instrs"]
    rest = [n for n in names if n not in REDUCE_EXPERIMENTS]
    shares = []
    for r in traced:
        seeded = {s["name"]: s["sim_instrs"] for s in r["seeded"]}
        shares.append(r["sim_instrs"] - sum(seeded.get(n, fixed.get(n, 0)) for n in rest))
    m["reduction.sim_instrs"] = statistics.median(shares)
    red_s = sum(m[k] for k in REDUCTION_TIMES)
    m["reduction.host_ns_per_instr"] = (red_s * 1e9 / m["reduction.sim_instrs"]
                                        if m["reduction.sim_instrs"] else 0.0)
    plain = statistics.median(r["wall_s"] for r in untraced)
    m["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced) - plain) / plain
    return m


def end_to_end(reps, setups, checker):
    """End-to-end metrics: medians over the run's repetitions (and, for
    set-up time, its set-up probes)."""
    med = lambda key: statistics.median(key(r) for r in reps)
    return {
        "wall_s": med(lambda r: r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "sim_minstr_per_s": med(lambda r: r["sim_instrs"] / r["wall_s"] / 1e6),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "setup_s": statistics.median(setups),
        "verified_frac": 1.0 - checker.failed / max(checker.attempted, 1),
    }


def repin(binary, work):
    """Recompute pinned.json from the current program."""
    pinned = {"digests": {}, "experiment_instrs": {}, "seeded": {}}
    for seed in PINNED_SEEDS:
        out = os.path.join(work, f"calibrate-{seed}")
        proc = subprocess.run([binary, "--calibrate", "--seed", seed, "--out", out],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            die(f"calibration failed:\n{proc.stderr}")
        counts = dict(json.loads(proc.stdout.strip().splitlines()[-1]))
        digest = {n: sha256(os.path.join(out, f"{n}.txt")) for n in DIGESTED}
        pinned["seeded"][seed] = {
            "digests": {n: digest[n] for n in SEEDED},
            "experiment_instrs": {n: counts[n] for n in SEEDED},
        }
        for n in DIGESTED:
            if n not in SEEDED:
                pinned["digests"][n] = digest[n]
        for n, c in counts.items():
            if n not in SEEDED:
                pinned["experiment_instrs"][n] = c
    with open(PINNED, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"syncbench: wrote {PINNED}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7, help="fault seed (default 7)")
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=2, help="sweep workers")
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args()
    if not args.repin and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isdir(RESULTS):
        die(f"no reference artifacts at {RESULTS}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(target)
    work = os.path.join(target, "syncbench-runs", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.repin:
            repin(binary, work)
            return
        with open(PINNED) as f:
            pinned = json.load(f)
        result = measure(args, binary, work, pinned, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, binary, work, pinned, spec):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--jobs", str(args.jobs)]
    checker = Checker(pinned, args.seed)
    setups = []
    for _ in range(SETUP_PROBES):
        rec, _ = run_child(binary, common + ["--mode", "setup"])
        if rec is None:
            die("set-up probe failed")
        setups.append(rec["setup_s"])
    modes = ["run", "trace"] if args.trace else ["run"]
    reps = {m: [] for m in modes}
    took = {m: [] for m in modes}
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        mode = modes[i % len(modes)]
        # Start another repetition only if it is expected to end in time;
        # every mode runs at least once.
        if took[mode] and time.monotonic() + statistics.median(took[mode]) > deadline:
            break
        out = os.path.join(work, f"rep{i}")
        rec, dt = run_child(binary, common + ["--mode", mode, "--out", out])
        took[mode].append(dt)
        if rec is None:
            checker.check(False, f"repetition {i} ({mode}) crashed")
        else:
            print(f"syncbench: rep {i} {mode}: wall {rec['wall_s']:.3f}s cpu {rec['cpu_s']:.3f}s"
                  f" rss {rec['peak_rss_mb']:.1f}MB setup {rec['setup_s'] * 1e3:.2f}ms",
                  file=sys.stderr)
            checker.rep(rec, out)
            reps[mode].append(rec)
            setups.append(rec["setup_s"])
        shutil.rmtree(out, ignore_errors=True)
        i += 1
    if any(not reps[m] for m in modes):
        return {"correct": False, "attempted": checker.attempted,
                "failed": checker.failed, "metrics": {}}
    if args.trace:
        values = layer_metrics(reps["trace"], reps["run"], pinned)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(reps["run"], setups, checker)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


if __name__ == "__main__":
    main()
