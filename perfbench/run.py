"""Benchmark of the quantales command line over four seeded corpora.

    python3 perfbench/run.py --workload quotient|tensor|eval|sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a quantales checkout.  Each verdict is one command
run in a fresh interpreter (`python3 -m quantales ...`), one after the
other: a closed loop with one client.  Every report is compared with an
answer computed by `oracle.py`.  With `--trace 0` verdicts repeat for
about S seconds and the end-to-end metrics are printed; with `--trace 1`
each item runs once untraced and once traced, and the per-layer metrics
and the tracing overhead are printed.  The last line of stdout is a JSON
result; the exit code is 1 when a verdict failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work" / str(os.getpid())

INVOCATION_LIMIT_S = 60.0   # a verdict slower than this counts as failed
RUN_DEADLINE_S = 140.0      # no new verdict starts after this
SETUP_REPEATS = 7
WORKLOADS = ("quotient", "tensor", "eval", "sweep")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("max_verdict_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Verdict:
    'One finished invocation: times, peak RSS, exit code and output.'

    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str
    timed_out: bool


class Launcher:
    """Runs commands through launcher.py, which measures each with wait4.

    The rusage of wait4 belongs to one child; RUSAGE_CHILDREN would report
    the largest RSS of every child reaped so far.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def invoke(self, cmd, cwd, limit):
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        request = {"cmd": cmd, "cwd": str(cwd), "stdout": str(out_path),
                   "stderr": str(err_path), "limit": limit}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        r = json.loads(self.proc.stdout.readline())
        return Verdict(r["wall"], r["cpu"], r["rss_mb"], r["rc"],
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"), r["timed_out"])

    def close(self):
        'Lets the launcher finish its current command, then waits for it.'
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def failure(item, v):
    'Why a verdict fails, or None.'
    if v.timed_out:
        return f"exceeded the {INVOCATION_LIMIT_S:.0f} s limit"
    if v.rc < 0 or "Traceback (most recent call last)" in v.stderr:
        return f"crashed (exit {v.rc}): {v.stderr.strip()[-300:]}"
    return item.mismatch(v.rc, v.stdout)


class Runner:
    """Writes each item's files to its own directory and runs its verdicts."""

    def __init__(self, items, work):
        self.items = items
        self.dirs = []
        for k, item in enumerate(items):
            d = work / f"item{k:02d}"
            d.mkdir(parents=True)
            for name, text in item.files.items():
                (d / name).write_text(text)
            self.dirs.append(d)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.launcher = Launcher(env)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []

    def limit(self):
        # A verdict started near the deadline still gets 30 s, so the run
        # ends well inside three minutes.
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return max(1.0, min(INVOCATION_LIMIT_S, left + 30.0))

    def out_of_time(self):
        return time.perf_counter() - self.started > RUN_DEADLINE_S

    def verdict(self, k, entry=("-m", "quantales")):
        cmd = [sys.executable, *entry, *self.items[k].argv]
        v = self.launcher.invoke(cmd, self.dirs[k], self.limit())
        self.attempted += 1
        why = failure(self.items[k], v)
        if why:
            self.failures.append(f"{self.items[k].label}: {why}")
        return v

    def setup_time(self):
        'A fresh interpreter that imports the command-line module and exits.'
        cmd = [sys.executable, "-c", "import quantales.cli"]
        return self.launcher.invoke(cmd, self.dirs[0], INVOCATION_LIMIT_S).wall


def measure(runner, seconds):
    """Verdicts for `seconds`, reported as per-item medians.

    The first pass runs every item; after it an item runs again while its
    median so far still fits in the time left, so short items gather more
    samples and the run does not stop early for want of a whole pass.
    Set-up samples are spread over the run, between verdicts, so that they
    see the machine the verdicts see.
    """
    runner.setup_time()                                     # warm caches
    setups = [runner.setup_time()]
    per_item = [[] for _ in runner.items]
    t0 = last_setup = time.perf_counter()
    ran = True
    while ran and not runner.out_of_time():
        ran = False
        for k, vs in enumerate(per_item):
            left = seconds - (time.perf_counter() - t0)
            if vs and statistics.median(v.wall for v in vs) > left \
                    or runner.out_of_time():
                continue
            vs.append(runner.verdict(k))
            ran = True
            if time.perf_counter() - last_setup > seconds / SETUP_REPEATS:
                setups.append(runner.setup_time())
                last_setup = time.perf_counter()
    while len(setups) < SETUP_REPEATS:
        setups.append(runner.setup_time())
    walls = [statistics.median(v.wall for v in vs) for vs in per_item if vs]
    cpus = [statistics.median(v.cpu for v in vs) for vs in per_item if vs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "max_verdict_s": max(walls),
        "peak_rss_mb": max(v.rss_mb for vs in per_item for v in vs),
    }
    return metrics, per_item, len(setups)


def traced(runner):
    """One untraced and one traced pass, each item's two verdicts adjacent
    so that drift in machine speed does not enter the overhead."""
    import layers
    import trace_runner

    spans_dir = WORK / "spans"
    spans_dir.mkdir()
    runner_py = str(HERE / "trace_runner.py")
    plain, with_trace = [], []
    for k in range(len(runner.items)):
        if runner.out_of_time():
            break
        plain.append(runner.verdict(k))
        with_trace.append(runner.verdict(
            k, (runner_py, str(spans_dir / f"{k}.json"), str(k))))
    totals = {}
    sweep_models = 0
    for k, (a, b) in enumerate(zip(plain, with_trace)):
        label = runner.items[k].label
        if (a.rc, a.stdout) != (b.rc, b.stdout):
            runner.failures.append(f"{label}: traced output differs from untraced")
        spans = spans_dir / f"{k}.json"
        if not spans.is_file():
            runner.failures.append(f"{label}: the traced run wrote no spans")
            continue
        layers.add_invocation(totals, trace_runner.load(str(spans)))
        for line in b.stdout.splitlines():
            if line.startswith("SWEEP PASS models="):
                sweep_models += int(line.split("=")[1])
    untraced_wall = sum(v.wall for v in plain)
    traced_wall = sum(v.wall for v in with_trace)
    metrics = layers.finish(totals, sweep_models, traced_wall, untraced_wall)
    units = {name: unit for name, unit, _ in layers.per_layer_spec()}
    return metrics, units, [[v] for v in plain], untraced_wall, traced_wall


def context(workload, seed):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "clients": 1, "loop": "closed"}


class Result:
    """A run's metrics, the verdicts behind them and its context."""

    def __init__(self, workload, seed, items, per_item, metrics, units,
                 runner, extra):
        self.workload, self.seed, self.items = workload, seed, items
        self.per_item, self.metrics, self.units = per_item, metrics, units
        self.attempted = runner.attempted
        self.failures = list(runner.failures)
        self.extra = extra

    @property
    def failed_ratio(self):
        return len(self.failures) / max(1, self.attempted)

    def print(self):
        'Readable lines, then the JSON result as the last line.'
        print(f"# context {json.dumps(context(self.workload, self.seed))}")
        for item, vs in zip(self.items, self.per_item):
            walls = " ".join(f"{v.wall:.3f}" for v in vs)
            rss = max((v.rss_mb for v in vs), default=0.0)
            print(f"# item {item.label!r} wall_s=[{walls}] "
                  f"peak_rss_mb={rss:.1f} {json.dumps(item.props)}")
        for line in self.extra:
            print(f"# {line}")
        for name, value in self.metrics.items():
            print(f"# {name} {value:.6g} {self.units[name]}")
        failed = len(self.failures)
        print(f"# failed_ratio {self.failed_ratio:.6g} ratio "
              f"({failed} of {self.attempted})")
        print(f"# verdicts {self.attempted} count")
        for why in self.failures:
            print(f"# FAILED {why}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        }))


def prepare():
    """Put the checkout's library, oracles and this directory on sys.path.

    Returns the corpus module, or None outside a quantales checkout.
    """
    if not (SRC / "quantales" / "cli.py").is_file() \
            or not (TESTS / "oracles.py").is_file():
        print("perfbench: run from a quantales checkout; src/quantales and "
              "tests/oracles.py are missing", file=sys.stderr)
        return None
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    import corpus
    return corpus


def execute(workload, seed, seconds, trace, items):
    shutil.rmtree(WORK, ignore_errors=True)
    runner = None
    try:
        runner = Runner(items, WORK)
        if trace:
            metrics, units, per_item, plain, with_trace = traced(runner)
            extra = [f"untraced_wall_s {plain:.6g} s",
                     f"traced_wall_s {with_trace:.6g} s"]
        else:
            metrics, per_item, setups = measure(runner, seconds)
            units = dict(END_TO_END)
            extra = [f"setup_samples {setups}"]
    finally:
        if runner is not None:
            runner.launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass                        # another run still uses it
    return Result(workload, seed, items, per_item, metrics, units, runner,
                  extra)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    corpus = prepare()
    if corpus is None:
        return 2
    result = execute(args.workload, args.seed, args.seconds, args.trace,
                     corpus.build(args.workload, args.seed))
    result.print()
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
