"""kmlat benchmark: runs one workload of CLI jobs and prints its metrics.

    python3 perfbench/run.py --workload verify|char2-search|root-action \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it benchmarks the checkout's src/.
Each job is one kmlat.cli.main(argv) call in a fresh interpreter
(child.py), one at a time.  A run repeats whole rounds of the workload's
fixed job set, each round in an order shuffled from --seed, until S
seconds have passed.  Every time is normalized by the calibration loop the
child runs right before and right after its job (calib.py).  Every output
is checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs every job both
traced and untraced and prints the per-layer metrics and the tracing
overhead.  The last stdout line is the JSON result; per-job raw seconds,
calibration times and, for traced runs, the spans go to perfbench/out/.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from calib import C_REF
from checks import check_round, parse_report
from jobs import WORKLOADS
from selftest import selftest
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
JOB_TIMEOUT_S = 150


def run_child(argv, trace):
    """One job in a fresh interpreter: (record, problem)."""
    cmd = [sys.executable, "-E", "-S", os.path.join(HERE, "child.py"),
           "--trace", "1" if trace else "0", "--"] + list(argv)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % JOB_TIMEOUT_S
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, "child exited %d: %s" % (proc.returncode,
                                               proc.stderr.strip()[-500:])
    rec = json.loads(lines[-1])
    if rec["rc"] != 0:
        return rec, "kmlat exited %s: %s" % (rec["rc"], (
            rec["error"] or rec["stdout"]).strip()[-500:])
    return rec, None


def speed_factor(rec):
    """C_REF over the mean calibration time around and during the job:
    turns the job's seconds into seconds at reference speed."""
    cal = [rec["cal_before_s"], rec["cal_after_s"]] + rec["cal_during_s"]
    return C_REF * len(cal) / sum(cal)


def normalized(rec, key):
    if key == "setup_raw_s":  # the import runs right after cal_before_s
        return rec[key] * C_REF / rec["cal_before_s"]
    return rec[key] * speed_factor(rec)


def run_round(jobs, trace, rng, log):
    """Every job once (twice with trace: traced and untraced), in an order
    shuffled by rng.  Returns [[argv, traced, record, report, problems]]."""
    order = [(argv, False) for argv in jobs]
    if trace:
        order += [(argv, True) for argv in jobs]
    rng.shuffle(order)
    done = []
    for argv, traced in order:
        rec, problem = run_child(argv, traced)
        report = None
        if problem is None:
            report, problem = parse_report(rec["stdout"])
        done.append([argv, traced, rec, report, [problem] if problem else []])
    for mode in (False, True):
        checked = check_round({argv: report for argv, traced, _, report, _
                               in done if traced == mode})
        for item in done:
            if item[1] == mode and item[0] in checked:
                item[4] += checked[item[0]]
    for argv, traced, rec, _, problems in done:
        if rec is not None:
            log.append({"argv": argv, "traced": traced,
                        "setup_raw_s": rec["setup_raw_s"],
                        "job_raw_s": rec["job_raw_s"],
                        "cal_before_s": rec["cal_before_s"],
                        "cal_after_s": rec["cal_after_s"],
                        "cal_during_s": rec["cal_during_s"],
                        "maxrss_kb": rec["maxrss_kb"],
                        "problems": problems})
    return done


def per_job_medians(rounds, traced, value):
    """{argv: median over rounds of value(record)} over the jobs that ran."""
    samples = {}
    for done in rounds:
        for argv, tr, rec, _, problems in done:
            if tr == traced and not problems:
                samples.setdefault(argv, []).append(value(rec))
    return {argv: statistics.median(v) for argv, v in samples.items()}


def end_to_end(rounds, traced=False):
    recs = [rec for done in rounds for _, tr, rec, _, problems in done
            if tr == traced and not problems]
    jobs = per_job_medians(rounds, traced,
                           lambda rec: normalized(rec, "job_raw_s"))
    return {
        "setup_s": statistics.median(normalized(r, "setup_raw_s")
                                     for r in recs),
        "time_s": sum(jobs.values()),
        "job_s.max": max(jobs.values()),
        "peak_rss_mb": max(r["maxrss_kb"] for r in recs) / 1024,
    }


def per_layer(rounds):
    totals = {}
    keys = {k for done in rounds for _, tr, rec, _, p in done
            if tr and not p for k in rec["layers"]}
    for key in keys:
        scaled = key.split(".")[0].endswith("_ms")
        for v in per_job_medians(
                rounds, True, lambda rec: rec["layers"][key]
                * (speed_factor(rec) if scaled else 1)).values():
            totals[key] = totals.get(key, 0) + v
    orbit_points = sum(sum(report["orbit_sizes"])
                       for _, tr, _, report, p in rounds[0]
                       if tr and not p and "orbit_sizes" in report)
    metrics = layer_metrics(totals, orbit_points)
    metrics["trace.overhead_s"] = (end_to_end(rounds, True)["time_s"]
                                   - end_to_end(rounds)["time_s"])
    return metrics


def write_spans(path, rounds):
    with open(path, "w") as f:
        for n, done in enumerate(rounds):
            for argv, tr, rec, _, _ in done:
                if tr and rec is not None:
                    job = "round%d:%s" % (n, " ".join(argv))
                    for sid, parent, name, t0, t1 in rec["spans"]:
                        f.write(json.dumps({"job": job, "id": sid,
                                            "parent": parent, "name": name,
                                            "start": t0, "end": t1}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kmlat", "cli.py")):
        sys.exit("perfbench: no src/kmlat/cli.py in %s; run from a kmlat "
                 "checkout" % ROOT)
    broken = selftest()
    if broken:
        sys.exit("perfbench: output checks failed their self-test:\n"
                 + "\n".join(broken))
    # compiles kmlat's bytecode once, as an installed kmlat has it
    _, problem = run_child(["--help"], False)
    if problem:
        sys.exit("perfbench: kmlat does not start: %s" % problem)

    jobs = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    rounds, log = [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(run_round(jobs, bool(args.trace), rng, log))
    wall = time.perf_counter() - t0

    attempted = sum(len(done) for done in rounds)
    failures = [(argv, tr, p) for done in rounds
                for argv, tr, _, _, p in done if p]
    wrong = any(rec is not None and report is not None and p
                for done in rounds for _, _, rec, report, p in done)
    for mode in {False, bool(args.trace)}:
        if all(p for done in rounds for _, tr, _, _, p in done if tr == mode):
            sys.exit("perfbench: every %sjob failed, first: %s" % (
                "traced " if mode else "",
                next(f for f in failures if f[1] == mode)))

    if args.trace:
        values = per_layer(rounds)
        units = {k: ("ms" if k.endswith("_ms") else
                     "s" if k.endswith("_s") else
                     "ratio" if "_per_" in k else "count") for k in values}
    else:
        values = end_to_end(rounds)
        units = {"setup_s": "s", "time_s": "s", "job_s.max": "s",
                 "peak_rss_mb": "MB"}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds": len(rounds), "wall_s": wall, "c_ref_s": C_REF,
                   "metrics": values, "jobs": log}, f, indent=1)
    if args.trace:
        write_spans(stem + ".spans.jsonl", rounds)

    for argv, tr, p in failures:
        print("FAILED %s%s: %s" % (" ".join(argv), " (traced)" if tr else "",
                                   "; ".join(p)))
    print("workload %s: %d rounds in %.1f s, %d jobs attempted, %d failed"
          % (args.workload, len(rounds), wall, attempted, len(failures)))
    for k in sorted(values):
        print("  %-40s %14.6f %s" % (k, values[k], units[k]))
    print("  per-job raw seconds and calibration times: %s.json" % stem)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in sorted(values)}}))


if __name__ == "__main__":
    main()
