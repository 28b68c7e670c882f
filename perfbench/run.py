"""The quasifold benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout, one report at a time in a
closed loop with one client, and prints every metric by name with its
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Inputs, the full result with quartiles and run metadata, and the trace
sidecar are written under ``.perfbench_out/`` in the checkout.

See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import gate
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(REPO, ".perfbench_out")

SMALL_GALLERY = ("quasisphere", "cp2-11a", "hirzebruch", "kite")

# About the seconds one pass of each workload took at the seed commit on a
# 2-core sandbox.  A run makes round(seconds / nominal) passes (at least
# one), so it measures about --seconds there, and its sample count, and
# with it fail_frac, never depends on timing noise.
NOMINAL_PASS_S = {"small-cli": 2.0, "dodecahedron": 4.0,
                  "polytope-60": 12.0, "param-fan": 3.7}

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

# The host's speed drifts by a factor of up to two within a minute (other
# tenants share it; CPU time drifts as much as wall time), and no hardware
# counters are available.  So every timed interval is scaled to a reference
# speed by a calibration of the same kind of work that runs no quasifold
# code, timed as close to the interval as it can be without running beside
# it:
# - an in-process pass by the Fraction loop below, which a timer runs every
#   SAMPLE_PERIOD_S seconds during the pass (its own time is kept out of
#   the pass): wall seconds times CAL_LOOP_S over the loops' mean time;
# - fresh processes (a set-up child, a small-cli pass) by a calibration
#   child that starts the interpreter and imports the third-party modules
#   the set-up child imports, right before and right after: wall seconds
#   times CAL_CHILD_S over the two calibration children's mean time.
# A fresh process tracks the loop poorly (correlation 0.3 over 90 s) but
# the calibration child well (0.6); in-process work tracks the loop (0.75).
CAL_LOOP_S = 0.020
CAL_CHILD_S = 0.300
CAL_CHILD = ["-c", "import fractions, json, jsonschema, numpy"]
SAMPLE_PERIOD_S = 0.5


def _calibration_loop():
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


class Sampler:
    """Calibration loops timed during in-process passes.

    Inside ``with sampler:`` a SIGALRM timer runs one loop every
    SAMPLE_PERIOD_S seconds, the first after half a period; a pass too short
    for one gets one loop at its end.  ``clock()`` is ``perf_counter()``
    less the seconds spent in those loops, so neither the pass nor a trace
    span counts them.
    """

    def __init__(self):
        self.loops = []
        self.spent = 0.0

    def clock(self):
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.loops.append(_calibration_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._first = len(self.loops)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S / 2,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.loops) == self._first:
            self._sample(None, None)

    def scale(self):
        """CAL_LOOP_S over the mean loop time of the last ``with`` block."""
        return CAL_LOOP_S / statistics.mean(self.loops[self._first:])


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _child(args, timeout=CHILD_TIMEOUT_S):
    """Run a Python child to completion; returns the CompletedProcess."""
    return subprocess.run([sys.executable, *args], cwd=REPO, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)


def _jobs(workload, seed, path):
    """(reference key, CLI argv) of every report in one pass."""
    s = ["--seed", str(seed)]
    if workload == "small-cli":
        return [(name, ["gallery", name, *s]) for name in SMALL_GALLERY]
    if workload == "dodecahedron":
        return [("dodecahedron", ["gallery", "dodecahedron", "--format", "json", *s])]
    command = {"polytope-60": "polytope", "param-fan": "atlas"}[workload]
    return [(workload, [command, path, "--format", "json", *s])]


def _setup_inputs(workload, path):
    if workload == "small-cli":
        return list(SMALL_GALLERY)
    return ["dodecahedron"] if path is None else [path]


# ---------------------------------------------------------------------------
# running one report
# ---------------------------------------------------------------------------

def _in_process(cli, argv, tracer=None):
    """(exit code, report text, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", "cli", cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a wrong report, not a stop
            error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def _subprocess(argv, sidecar=None):
    """(exit code, report text, error) of one fresh ``quasifold`` process."""
    if sidecar is None:
        args = ["-m", "quasifold", *argv]
    else:
        args = [os.path.join(HERE, "child.py"), "traced", sidecar, *argv]
    try:
        proc = _child(args)
    except subprocess.TimeoutExpired:
        return None, "", "timed out"
    error = ("traceback" if "Traceback (most recent call last)" in proc.stderr
             else None)
    return proc.returncode, proc.stdout, error


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: its reports, their verdicts and timings."""

    def __init__(self, jobs, reference, cli, import_s, to_identity=None):
        self.jobs = jobs
        self.reference = reference
        self.to_identity = to_identity   # see gate.judge
        self.cli = cli               # None: a fresh process per report
        self.import_s = import_s     # in-process: this process's import
        self.attempted = 0
        self.wrong = []          # (report number, key, problems)
        self.first_bytes = {}    # key -> report text of the first pass
        self.sampler = Sampler()
        self.calibration_children = []   # seconds of each one

    def calibration_child(self):
        start = time.perf_counter()
        _child(CAL_CHILD)
        self.calibration_children.append(time.perf_counter() - start)
        return self.calibration_children[-1]

    def timed_children(self, run_children):
        """Wall and scaled seconds of ``run_children()``, which starts fresh
        processes, and its result."""
        before = (self.calibration_children[-1] if self.calibration_children
                  else self.calibration_child())
        start = time.perf_counter()
        result = run_children()
        wall = time.perf_counter() - start
        after = self.calibration_child()
        return wall, wall * CAL_CHILD_S * 2 / (before + after), result

    def fail(self, key, problems):
        self.attempted += 1
        self.wrong.append((self.attempted, key, problems))

    def judge(self, key, code, text, error):
        """Judge one report; a wrong one is recorded with its problems."""
        problems = gate.judge(self.reference[key], code, text, error,
                              self.to_identity)
        first = self.first_bytes.setdefault(key, text)
        if text != first:
            problems.append("report bytes differ from the first repetition")
        self.attempted += 1
        if problems:
            self.wrong.append((self.attempted, key, problems))

    def _child_pass(self, traced):
        results = []
        for j, (key, argv) in enumerate(self.jobs):
            record = os.path.join(OUT, f"child-{j}.json") if traced else None
            results.append((key, _subprocess(argv, record), record))
        return results

    def _in_process_pass(self, tracer):
        results = []
        with self.sampler:
            start = self.sampler.clock()
            for key, argv in self.jobs:
                record = None
                if tracer is not None:
                    tracer.begin_report()
                outcome = _in_process(self.cli, argv, tracer)
                if tracer is not None:
                    record = dict(tracer.end_report(), import_s=self.import_s)
                results.append((key, outcome, record))
            wall = self.sampler.clock() - start
        return wall, wall * self.sampler.scale(), results

    def passes(self, count, tracer=None, sidecars=None):
        """Run `count` passes and judge every report.

        Returns the wall and the scaled seconds of every pass and, for a
        traced run (``sidecars`` given), one merged trace record per pass;
        every report's own record is appended to ``sidecars``.  In-process
        reports are traced by ``tracer``, which the caller has installed
        with ``self.sampler.clock`` as its clock.
        """
        traced = sidecars is not None
        seconds, scaled, records = [], [], []
        for _ in range(count):
            if self.cli is None:
                wall, fair, results = self.timed_children(
                    lambda: self._child_pass(traced))
            else:
                wall, fair, results = self._in_process_pass(tracer)
            seconds.append(wall)
            scaled.append(fair)
            pass_records = []
            for key, (code, text, error), record in results:
                self.judge(key, code, text, error)
                if traced:
                    if isinstance(record, str):
                        record = _read_sidecar(record)
                    record["report"] = len(sidecars)
                    record["report_bytes"] = len(text.encode())
                    sidecars.append(record)
                    pass_records.append(record)
            if traced:
                records.append(tracing.merge(pass_records))
        return seconds, scaled, records


def _read_sidecar(path):
    """A traced child's record; an empty one if the child wrote none."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"spans": [], "counts": {}}
    finally:
        if os.path.exists(path):
            os.remove(path)


def _setup_seconds(run, paths):
    """Wall and scaled seconds of fresh children that import and load the
    inputs, and the error output of the first child that failed, if any."""
    args = [os.path.join(HERE, "child.py"), "setup", *paths]
    procs = [_child(args), _child(CAL_CHILD)]   # fill bytecode caches
    walls, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        wall, fair, proc = run.timed_children(lambda: _child(args))
        walls.append(wall)
        scaled.append(fair)
        procs.append(proc)
    errors = [p.stderr.strip()[-500:] for p in procs if p.returncode != 0]
    return walls, scaled, errors[0] if errors else None


def _median(values):
    """The median; for counts an observed one, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metadata():
    """Revision, toolchain and size of the code under test."""
    import numpy
    files = sorted(glob.glob(os.path.join(SRC, "quasifold", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for name in files:
        with open(name, "rb") as handle:
            data = handle.read()
        digest.update(data)
        lines += data.count(b"\n")
    revision = None
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            proc = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _generated_input(workload, seed):
    """Write the seeded input of a generated workload and check it in a
    child process; returns its path and the check's problems."""
    path = os.path.join(OUT, f"{workload}-{seed}.json")
    with open(path, "w") as handle:
        json.dump(inputs.GENERATORS[workload](inputs.unimodular(seed)), handle,
                  indent=1)
    proc = _child([os.path.join(HERE, "child.py"), "precheck", workload, path,
                   str(seed)])
    if proc.returncode != 0:
        return path, [f"input check exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}"]
    return path, json.loads(proc.stdout)


def _end_to_end(run, pass_s, setup):
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if run.cli is None
                             else resource.RUSAGE_SELF).ru_maxrss
    return {
        "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"},
        # add-one share: never 0, and one new wrong report shows
        "fail_frac": {"value": (len(run.wrong) + 1) / (run.attempted + 1),
                      "unit": "ratio"},
    }


def _per_layer(run, count, sidecar_path):
    """Traced passes after the untraced ones; returns every per-layer metric
    but the overhead, and the scaled seconds of the traced passes, and
    writes every report's spans."""
    sidecars = []
    tracer = None
    if run.cli is not None:
        tracer = tracing.Tracer(run.sampler.clock)
        tracer.install()
    try:
        _, traced_s, records = run.passes(count, tracer, sidecars)
    finally:
        if tracer is not None:
            tracer.uninstall()
    with open(sidecar_path, "w") as handle:
        json.dump({"reports": sidecars}, handle)
    per_pass = [tracing.report_metrics(r) for r in records]
    metrics = {name: {"value": _median([p[name] for p in per_pass]),
                      "unit": unit}
               for name, unit in tracing.per_layer_units().items()
               if name != "trace.overhead_s"}
    return metrics, traced_s


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quasifold", "cli.py")):
        print(f"perfbench: no quasifold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import quasifold.cli as cli
    import_s = time.perf_counter() - start

    os.makedirs(OUT, exist_ok=True)
    workload, seed = args.workload, args.seed
    path, problems, to_identity = None, [], None
    if workload in inputs.GENERATORS:
        path, problems = _generated_input(workload, seed)
    if workload == "polytope-60":
        to_identity = inputs.polytope60_to_identity(inputs.unimodular(seed))
    run = Run(_jobs(workload, seed, path), gate.load_reference()["inputs"],
              None if workload == "small-cli" else cli, import_s, to_identity)
    if problems:
        run.fail("input check", problems)
    setup_wall, setup, setup_error = _setup_seconds(
        run, _setup_inputs(workload, path))
    if setup_error is not None:
        run.fail("set-up", [f"set-up child failed: {setup_error}"])
    count = max(1, round(args.seconds / NOMINAL_PASS_S[workload]))
    pass_wall, pass_s, _ = run.passes(count)
    samples = {"pass_s": pass_s, "setup_s": setup,
               "pass_wall_s": pass_wall, "setup_wall_s": setup_wall}
    if args.trace:
        metrics, samples["traced_pass_s"] = _per_layer(
            run, count, os.path.join(OUT, f"trace-{workload}-{seed}.json"))
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(samples["traced_pass_s"])
                      - statistics.median(samples["pass_s"])),
            "unit": "s"}
    else:
        metrics = _end_to_end(run, samples["pass_s"], samples["setup_s"])

    meta = metadata()
    print(f"perfbench {workload} seed {seed} trace {args.trace}: "
          f"{count} passes, {run.attempted} reports, {len(run.wrong)} wrong")
    for name, values in samples.items():
        q1, q2, q3 = _quartiles(values)
        print(f"  {name:<14} median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"n={len(values)}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    for number, key, problems in run.wrong[:10]:
        print(f"  wrong report {number} ({key}): {'; '.join(problems)}")
    for name, values, unit in (
            ("loop", run.sampler.loops, CAL_LOOP_S),
            ("child", run.calibration_children, CAL_CHILD_S)):
        if values:
            print(f"  calibration {name} mean {statistics.mean(values):.5f} s "
                  f"(reference {unit} s), n={len(values)}")
    print(f"  metadata {json.dumps(meta, sort_keys=True)}")
    result = {"correct": not run.wrong, "attempted": run.attempted,
              "failed": len(run.wrong), "metrics": metrics}
    with open(os.path.join(OUT, f"result-{workload}-{seed}-{args.trace}.json"),
              "w") as handle:
        json.dump(dict(result, metadata=meta, samples=samples,
                       calibration_loops=run.sampler.loops,
                       calibration_children=run.calibration_children,
                       wrong=run.wrong),
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
