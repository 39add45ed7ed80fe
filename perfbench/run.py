"""Oracle-checked benchmark of ``entroflow run`` and ``entroflow probe``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; entroflow is imported from ``src/``.
The seed makes the workload's configs, which are written to a scratch
directory under ``.perfbench_tmp/`` and removed at exit.  Each op is one
in-process call of ``entroflow.cli.main``; a pass runs every op of the
workload once, and passes repeat until ``--seconds`` have gone by (at least
two, so the artifacts of the first and later passes can be compared).  Every
op's output is checked against the independent oracles in ``oracles.py``.
Fresh interpreters started between ops give the set-up time.  Op and set-up
times are reported in seconds of a reference host (see ``REF_S``), which
takes out most of the drift of a shared machine's speed.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, taken from
passes run under the span recorder of ``spans.py`` after untraced passes
that give the tracing overhead.  The line before it names every metric of
the workload, with the tail percentile, the sample count and the machine.
"""

from __future__ import annotations

import os

# One thread: no BLAS worker threads.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: Fresh interpreters started to measure setup_s, spread evenly over the
#: run; the median is reported.  One start-up varies by about 0.3 of its
#: median (IQR) on a shared 2-CPU host, so it takes this many for the
#: median to settle.
SETUP_REPEATS = 21
#: A run takes at least enough op samples to leave this many above the
#: workload's tail percentile.
TAIL_BEYOND = 10

#: The host's speed swings by up to 2x within minutes, and op and set-up
#: times follow it.  So they are in seconds of a reference host, on which
#: ``reference_kernel`` takes REF_S: the raw time times REF_S over the mean
#: kernel time measured around and during it.  Raw pass times are printed
#: beside them.
REF_S = 0.0125
KERNEL_ITERATIONS = 500
#: The kernel is timed between ops once this long has passed since its last
#: timing (about every 20 probe calls), and at this interval inside an op
#: that runs longer (every op of catalog and tabulated).  Timings at the ends
#: of an op of a few seconds miss the drift during it: on one repeated
#: tab-3x5000 op they left a spread of 0.15 (IQR/median), against 0.08 with
#: the timings inside it.
KERNEL_EVERY_S = 0.25

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from entroflow import cli
for path in sys.argv[2:]:
    cli.build_system(cli.parse_config(path))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Tally:
    """Op samples and failures of a sequence of passes."""

    pass_s: list[float] = field(default_factory=list)
    op_s: dict[str, list[float]] = field(default_factory=dict)
    raw_pass_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter work, 3x3 solves and
    500-element exp and dot products, like the program's hot paths."""
    t0 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((3, 500))
    m = a @ a.T / 500.0
    v = np.ones(3)
    for _ in range(KERNEL_ITERATIONS):
        p = np.exp(-(np.linalg.solve(m, v) @ a))
        v = (a @ p) / p.sum() + 1.0
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel timings taken between ops and, on an interval timer, inside
    long ops.  An op is scaled by the mean of the last timing before it, the
    timings inside it and the first after it; the kernel runs inside it are
    taken out of its time.  ``inside_ops=False`` keeps the timer off, so that
    traced spans hold only the program's own work."""

    def __init__(self, inside_ops: bool = True):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.inside_ops = inside_ops

    def _time_kernel(self, *_signal) -> None:
        self.at.append(time.perf_counter())
        self.kernel_s.append(reference_kernel())

    def refresh(self, force: bool = False) -> int:
        """Time the kernel if due (or forced); index of the latest timing."""
        if force or not self.at or time.perf_counter() - self.at[-1] >= KERNEL_EVERY_S:
            self._time_kernel()
        return len(self.kernel_s) - 1

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every KERNEL_EVERY_S while the block runs."""
        if not self.inside_ops or KERNEL_EVERY_S <= 0.0:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._time_kernel)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_seconds(self, first: int, start: float, end: float) -> float:
        """Time spent in kernel runs from timing ``first`` on that began in [start, end]."""
        return sum(k for t, k in zip(self.at[first:], self.kernel_s[first:]) if start <= t <= end)

    def scale(self, before: int, after: int) -> float:
        """REF_S over the mean of timings ``before`` to ``after``."""
        return REF_S / statistics.fmean(self.kernel_s[before : after + 1])


class SetupTimer:
    """Set-up times of fresh interpreters, taken between ops so that they
    spread evenly over the run, each with kernel timings just around it."""

    def __init__(self, configs, seconds: float):
        self.argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), *map(str, configs)]
        self.seconds = seconds
        self.samples: list[tuple[float, int]] = []  # raw seconds, kernel timing before
        self.spent = 0.0
        self._start = time.perf_counter()

    def due(self, final: bool) -> bool:
        if len(self.samples) >= SETUP_REPEATS:
            return False
        elapsed = time.perf_counter() - self._start - self.spent
        return final or (len(self.samples) + 1) * self.seconds <= SETUP_REPEATS * elapsed

    def sample(self, speed: HostSpeed) -> None:
        t0 = time.perf_counter()
        before = speed.refresh(force=True)
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{proc.stderr}")
        self.samples.append((float(proc.stdout.split()[-1]), before))
        speed.refresh(force=True)
        self.spent += time.perf_counter() - t0

    def median(self, speed: HostSpeed) -> float:
        return statistics.median(raw * speed.scale(before, before + 1) for raw, before in self.samples)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def execute(call, argv) -> tuple[float, float, object, str]:
    """Wall seconds, CPU seconds, exit status and stdout of one CLI call."""
    out = io.StringIO()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = call(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception:  # an escaped traceback is a failed op, not a crash
        code = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    return wall, _cpu() - cpu0, code, out.getvalue()


def artifacts(out_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}


def check(op, code, stdout) -> tuple[list[str], str]:
    """Oracle errors of one op and a digest of everything it produced."""
    if code != 0:
        return [f"exit status {code!r}"], ""
    if op.probe is not None:
        return oracles.check_probe(op.probe, stdout), hashlib.sha256(stdout.encode()).hexdigest()
    files = artifacts(op.out_dir)
    errors = []
    for name, exp in op.runs.items():
        summary = files.get(f"{name}-summary.json", "")
        csv = files.get(f"{name}.csv", "")
        onsager = files.get(f"{name}-onsager.json")
        errors += [f"{name}: {e}" for e in oracles.check_run(exp, summary, csv, onsager)]
    digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
    return errors, digest


def run_passes(
    ops, call, deadline: float, min_passes: int, digests: dict, speed: HostSpeed, setup=None
) -> Tally:
    """Passes over ``ops`` until ``deadline``; outputs must match the first pass's.

    A ``SetupTimer`` takes its samples between ops; the deadline moves back
    by the time they take.
    """
    tally = Tally()
    samples = []  # (pass, op name, raw seconds, last kernel timing before, first after)

    def running() -> bool:
        spent = setup.spent if setup is not None else 0.0
        return len(tally.raw_pass_s) < min_passes or time.perf_counter() < deadline + spent

    while running():
        raw = 0.0
        for op in ops:
            if op.out_dir is not None:
                shutil.rmtree(op.out_dir, ignore_errors=True)
            while setup is not None and setup.due(final=False):
                setup.sample(speed)
            before = speed.refresh()
            with speed.sampling():
                start = time.perf_counter()
                wall, cpu, code, stdout = execute(call, op.argv)
            wall -= speed.kernel_seconds(before + 1, start, start + wall)
            raw += wall
            samples.append((len(tally.raw_pass_s), op.name, wall, before, len(speed.kernel_s)))
            tally.cpu_s += cpu
            tally.attempted += 1
            errors, digest = check(op, code, stdout)
            first = digests.setdefault(op.name, digest)
            if digest != first:
                errors.append("artifacts differ from the first pass")
            if errors:
                tally.failures.append(f"{op.name} (pass {len(tally.raw_pass_s) + 1}): " + "; ".join(errors))
        tally.raw_pass_s.append(raw)
    while setup is not None and setup.due(final=True):
        setup.sample(speed)
    speed.refresh(force=True)
    tally.pass_s = [0.0] * len(tally.raw_pass_s)
    for n, name, wall, before, after in samples:
        t = wall * speed.scale(before, after)
        tally.pass_s[n] += t
        tally.op_s.setdefault(name, []).append(t)
    return tally


def environment() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    llc = ""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    with contextlib.suppress(OSError):
        if caches:
            last = max(caches, key=lambda d: int((d / "level").read_text()))
            llc = f"L{(last / 'level').read_text().strip()} {(last / 'size').read_text().strip()}"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float, pct: float | None, groups: dict[str, str]) -> tuple[dict, dict]:
    """Metrics of the last output line, and the per-op report beside them.

    ``pct`` is the tail percentile of op times (None: the median time of the
    slowest op); ``groups`` maps op name to the name its time is reported
    under, summed over the group's ops in each pass.
    """
    samples = [t for ts in tally.op_s.values() for t in ts]
    medians = {name: statistics.median(ts) for name, ts in tally.op_s.items()}
    group_s: dict[str, np.ndarray] = {}
    for name, ts in tally.op_s.items():
        group_s[groups[name]] = group_s.get(groups[name], 0.0) + np.asarray(ts)
    tail_s = max(medians.values()) if pct is None else float(np.percentile(samples, pct))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "pass_s": metric(statistics.median(tally.pass_s), "s"),
        "op_s.tail": metric(tail_s, "s"),
        "op_s.geomean": metric(float(np.exp(np.mean(np.log(list(medians.values()))))), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    report = {"setup_s": metrics["setup_s"], "pass_s": metrics["pass_s"]}
    if any(name.startswith("probe-") for name in medians):
        report["probe_s.p50"] = metric(statistics.median(samples), "s")
        report["probe_s.tail"] = metrics["op_s.tail"]
    else:
        report.update({f"run_s.{g}": metric(float(np.median(ts)), "s") for g, ts in group_s.items()})
    report["peak_rss_mb"] = metrics["peak_rss_mb"]
    details = {
        "tail_percentile": "slowest op median" if pct is None else pct,
        "op_samples": len(samples),
        "raw_pass_s": statistics.median(tally.raw_pass_s),
        "report": report,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entroflow" / "cli.py").is_file():
        print(f"perfbench: no entroflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from entroflow import cli

    if Path(cli.__file__).resolve().parent != SRC / "entroflow":
        print(f"perfbench: imported entroflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        workload = WORKLOADS[args.workload](tmp, args.seed)
        digests: dict = {}
        speed = HostSpeed(inside_ops=not args.trace)
        start = time.perf_counter()
        if args.trace:
            base = run_passes(workload.ops, cli.main, start + args.seconds / 2, 1, digests, speed)
            recorder = spans.SpanRecorder()
            with spans.instrument(recorder):
                call = recorder.wrap("cli.main", cli.main)
                traced = run_passes(workload.ops, call, start + args.seconds, 1, digests, speed)
            layers = spans.layer_metrics(recorder, len(traced.pass_s))
            layers["cli.cpu_util"] = base.cpu_s / sum(base.raw_pass_s)
            layers["trace.overhead"] = statistics.median(traced.pass_s) / statistics.median(base.pass_s)
            metrics = {k: metric(layers[k], unit) for k, unit in spans.UNITS.items()}
            tallies = [base, traced]
            details = {
                "untraced_pass_s": base.pass_s,
                "traced_pass_s": traced.pass_s,
                "report": metrics,
            }
        else:
            min_samples = 0 if workload.tail is None else TAIL_BEYOND * 100.0 / (100.0 - workload.tail)
            min_passes = max(2, math.ceil(min_samples / len(workload.ops)))
            setup = SetupTimer(workload.configs, args.seconds)
            deadline = time.perf_counter() + args.seconds
            tally = run_passes(workload.ops, cli.main, deadline, min_passes, digests, speed, setup)
            groups = {op.name: op.group for op in workload.ops}
            metrics, details = end_to_end(tally, setup.median(speed), workload.tail, groups)
            details["setup_samples"] = len(setup.samples)
            tallies = [tally]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "passes": sum(len(t.pass_s) for t in tallies),
                "ops_per_pass": len(workload.ops),
                **details,
                "ref_s": REF_S,
                "kernel_s": statistics.median(speed.kernel_s),
                "environment": environment(),
            }
        )
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
