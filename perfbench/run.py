#!/usr/bin/env python3
"""Time-to-key benchmark of the FALCON side-channel attack pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crack-store --seed 1 --seconds 10 --trace 0

It builds perfbench/bench.exe with dune, sets up four victims of the
workload (one process each; cheap set-ups are repeated, and setup_s is
the median of them all), then attacks
them in turn, one process each, for --seconds seconds: attack_s and
traces_used are the mean over victims of each victim's median.
A fixed reference computation runs between any two of these processes;
each set-up and attack time is scaled by REF_NOMINAL_S over the mean of
the references just before and after it, so the times read as on the
machine at its usual speed even while it slows down by itself.
Every attack's output is checked against the victim's ground truth and
against the other attacks on that victim.  With --trace 1 it alternates
untraced attacks with traced replays and reports the per-layer metrics
of BENCHMARK.json instead.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT = 850  # the first run in a fresh checkout builds everything
RUN_BUDGET = 150  # set-up plus measurement, after the build
# Victims per run: each set up once (setup_s is the median of these
# set-ups) and attacked in turn, so one key's stop points or candidate
# sets do not set a whole run's figures.  Victim k of --seed s is
# bench.exe's seed s * SEED_STRIDE + k.
VICTIMS = 4
SEED_STRIDE = 1000
MIN_ROUNDS = 2  # rounds of one attack per victim, at least, whatever --seconds says
SETUP_SECONDS = 1.0  # cheap set-ups are repeated until they have taken this long
SETUP_MOST = 16  # set-ups per run, at most
# Seconds `bench.exe reference` takes at its usual speed on the machine
# the benchmark was tuned on (an x86-64 VM with 2 vCPUs); reported times
# are scaled to that speed
REF_NOMINAL_S = 0.085


class BenchError(Exception):
    pass


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            cmd + ["build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if p.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed:\n" + p.stdout + p.stderr)


def child(args, deadline, log):
    """Run bench.exe to completion; return (its JSON, peak RSS in KiB).

    The peak RSS comes from wait4 on this one process, so it belongs to
    one set-up or one attack and nothing else."""
    out = os.path.join(WORK, "child.out")
    with open(out, "w") as so, open(os.path.join(WORK, "child.err"), "w") as se:
        p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=so, stderr=se)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() > deadline:
        raise BenchError(f"timed out: bench.exe {' '.join(args)}")
    with open(out) as f:
        lines = f.read().splitlines()
    if p.returncode != 0 or not lines:
        with open(os.path.join(WORK, "child.err")) as f:
            raise BenchError(f"bench.exe {' '.join(args)} exited {p.returncode}: {f.read()[-2000:]}")
    log.append(lines[-1])
    return json.loads(lines[-1]), ru.ru_maxrss


class Clock:
    """Brackets every timed process with runs of the reference computation."""

    def __init__(self, deadline, log):
        self.deadline, self.log = deadline, log
        self.last = self.reference()
        self.speeds = []

    def reference(self):
        r, _ = child(["reference"], self.deadline, self.log)
        return r["ref_s"]

    def scale(self, seconds):
        """Scale the time of the process that just ended to REF_NOMINAL_S."""
        before, self.last = self.last, self.reference()
        speed = REF_NOMINAL_S / ((before + self.last) / 2)
        self.speeds.append(speed)
        return seconds * speed


def median_layers(samples):
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="toy sizes, one victim and one attack (self-check)")
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(f"{ROOT} holds no source tree to build (dune-project, lib/)")
    with open(spec_path) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    deadline = time.monotonic() + RUN_BUDGET

    def common(k):
        return ["--workload", a.workload, "--seed", str(a.seed * SEED_STRIDE + k)] + (["--toy"] if a.toy else [])

    log = []
    try:
        result = run(a, common, deadline, declared, log)
    except BenchError as e:
        fail(str(e))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in log:
        print(line)
    print(json.dumps(result))


def run(a, common, deadline, declared, log):
    victims = 1 if a.toy or a.trace else VICTIMS
    rounds = 1 if a.toy else MIN_ROUNDS
    problems = []

    # set-up: one fresh campaign per victim, each timed; cheap set-ups
    # are repeated into a scratch directory until SETUP_SECONDS have gone
    clock = Clock(deadline, log)
    setup_runs = []
    start = time.monotonic()
    extra = not (a.toy or a.trace)
    while len(setup_runs) < victims or (
        extra and len(setup_runs) < SETUP_MOST and time.monotonic() - start < SETUP_SECONDS
    ):
        k = len(setup_runs) % victims
        d = os.path.join(WORK, f"victim-{k}" if len(setup_runs) < victims else "again")
        s, _ = child(["setup", "--dir", d] + common(k) + (["--trace"] if a.trace else []), deadline, log)
        s["setup_s"] = clock.scale(s["setup_s"])
        if a.trace and not s["replay_identical"]:
            problems.append("traced set-up replay wrote different files")
        if len(setup_runs) >= victims:
            shutil.rmtree(d)
        setup_runs.append(s)

    def attack(k, rep, trace=False):
        args = ["attack", "--dir", os.path.join(WORK, f"victim-{k}"), "--rep", str(rep)] + common(k)
        r, rss = child(args + (["--trace"] if trace else []), deadline, log)
        r["victim"], r["rss_kb"] = k, rss
        return r

    # warm-up: flush the freshly written campaigns and attack once
    # untimed, so the first timed attack does not compete with writeback
    os.sync()
    warm = attack(0, 0)
    clock.last = clock.reference()

    # measurement: rounds of one attack per victim, back to back for
    # --seconds; traced replays alternate with untraced attacks so
    # trace.overhead compares like with like
    plain, traced = [], []
    start = time.monotonic()
    rep = 1
    while len(plain) < rounds * victims or time.monotonic() - start < a.seconds:
        for k in range(victims):
            for tr in ([False, True] if a.trace else [False]):
                r = attack(k, rep, tr)
                r["attack_s"] = clock.scale(r["attack_s"])
                (traced if tr else plain).append(r)
                rep += 1

    attacks = [warm] + plain + traced
    for r in attacks:
        if r["units_ok"] != r["units"] or r["key_ok"] != 1:
            problems.append(f"attack rep {attacks.index(r)}: {r['units_ok']}/{r['units']} units, key_ok {r['key_ok']}")
    for k in range(victims):
        if len({r["digest"] for r in attacks if r["victim"] == k}) != 1:
            problems.append(f"attacks on victim {k} disagree on the recovered key or stop points")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    med = lambda rs, k: statistics.median(r[k] for r in rs)
    # per victim first, so every victim weighs the same
    per_victim = lambda k: statistics.mean(med([r for r in plain if r["victim"] == v], k) for v in range(victims))
    if a.trace:
        layers = median_layers([r["layers"] for r in traced])
        setup_layers = setup_runs[0]["layers"]
        clash = set(layers) & set(setup_layers)
        if clash:
            raise BenchError(f"layers measured in both set-up and attack: {sorted(clash)}")
        layers.update(setup_layers)
        layers["trace.overhead"] = med(traced, "attack_s") / med(plain, "attack_s") - 1
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared}
    else:
        values = {
            "setup_s": med(setup_runs, "setup_s"),
            "attack_s": per_victim("attack_s"),
            "unit_ok_rate": sum(r["units_ok"] for r in plain) / sum(r["units"] for r in plain),
            "key_ok": statistics.mean(r["key_ok"] for r in plain),
            "traces_used": float(per_victim("traces_used")),
            "peak_rss_mb": med(plain, "rss_kb") / 1024,
            "campaign_mb": med(plain, "campaign_bytes") / 1e6,
        }
    print(
        f"perfbench: {a.workload} seed {a.seed}: {victims} victims, "
        f"{len(plain)} attacks, {len(traced)} traced replays; attack_s samples "
        + ", ".join(f"{r['attack_s']:.4f}" for r in plain)
        + f"; machine speed {min(clock.speeds):.3f} to {max(clock.speeds):.3f} of nominal",
        file=sys.stderr,
    )
    return {
        "correct": not problems,
        "attempted": sum(r["units"] for r in attacks),
        "failed": sum(r["units"] - r["units_ok"] for r in attacks),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


if __name__ == "__main__":
    main()
