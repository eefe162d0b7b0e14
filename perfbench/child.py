"""Run one kmlat job in this fresh interpreter and report its timings.

    python3 -E -S perfbench/child.py --trace 0|1 -- <kmlat arguments>

The job is one kmlat.cli.main(argv) call against the checkout's src/,
uninstalled.  The child times the calibration loop, the import of
kmlat.cli (set-up), the main() call (the job) and the calibration loop
again, in that order.  During an untraced job a timer signal also takes a
short calibration sample every PROBE_EVERY_S seconds; the job's time
leaves the samples out.  Nothing but sys, time and the calibration module
is imported before the import of kmlat.cli is timed, so its figure
includes every module kmlat pulls in.  It prints one JSON line on stdout:
the raw times, the calibration times, kmlat's exit code and stdout, and
peak RSS.  With --trace 1 it also wraps kmlat's public functions (see
tracer.py) after set-up and reports the per-layer figures and the spans.
"""

import sys
import time

from calib import PROBE_EVERY_S, PROBE_ROUNDS, calibrate

# run.py starts this file by its absolute path, <checkout>/perfbench/child.py;
# os is not imported here, so that its import is not hidden from set-up.
ROOT = __file__.rsplit("/", 2)[0]


def main(argv):
    if len(argv) < 3 or argv[0] != "--trace" or argv[2] != "--":
        sys.stderr.write("usage: child.py --trace 0|1 -- <kmlat args>\n")
        return 2
    trace = argv[1] == "1"
    job_argv = argv[3:]
    pc = time.perf_counter
    sys.path.insert(0, ROOT + "/src")

    cal_before = calibrate(pc)
    t0 = pc()
    import kmlat.cli
    setup = pc() - t0

    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    import io
    import signal
    probes = []  # (start, seconds taken, calibration time it gives)

    def probe(signum, frame):
        t = pc()
        c = calibrate(pc, PROBE_ROUNDS)
        probes.append((t, pc() - t, c))

    real_stdout = sys.stdout
    buf = io.StringIO()
    error = None
    signal.signal(signal.SIGALRM, probe)
    sys.stdout = buf
    if tracer is None:  # a probe inside a traced call would count as its time
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = pc()
    try:
        rc = kmlat.cli.main(job_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed job, not a crash
        import traceback
        rc = 1
        error = "".join(traceback.format_exception(exc))
    t1 = pc()
    signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stdout = real_stdout
    probes = [p for p in probes if p[0] < t1]
    job = t1 - t0 - sum(p[1] for p in probes)
    cal_after = calibrate(pc)

    import json
    import resource
    out = {
        "rc": rc,
        "stdout": buf.getvalue(),
        "error": error,
        "setup_raw_s": setup,
        "job_raw_s": job,
        "cal_before_s": cal_before,
        "cal_after_s": cal_after,
        "cal_during_s": [p[2] for p in probes],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_figures()
        out["spans"] = tracer.spans
    real_stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
