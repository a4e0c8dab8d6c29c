"""Benchmark of the kyoung CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the working tree (``sys.executable -m kyoung`` with ``src`` first on
PYTHONPATH) as one single-threaded child at a time, and repeats the
workload's invocations (see workloads.py) for about S seconds.  Each child's
CPU time and maximum RSS come from ``os.wait4``, so one child's peak never
shows in another's reading.  Every output is checked; a child that exits
non-zero, a traceback included, is a failed operation.

With --trace 0 it prints the end-to-end metrics, medians over the
repetitions, with times scaled to a fixed host speed by a reference task
timed around each repetition (see REFERENCE_S); the measured times are
printed too.  With --trace 1 it alternates plain and traced repetitions and
prints the per-layer metrics from the traced ones (see traced.py).  Every
metric is printed as ``name value unit``, then the environment, then one
JSON line: {"correct", "attempted", "failed", "metrics"}.  The exit code is
1 when an output check failed and 2 when there is no kyoung source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_ARGS = ("kconj", "-", "--k", "1")
SETUP_PROBES_PER_ROUND = 3
# Every child must end by then, so the run prints its result within 180 s.
RUN_DEADLINE_S = 165.0
# Wall time of reference.py on the host the benchmark was defined on (2 vCPU
# x86-64, Python 3.11.7) while that host was quiet.  The host's speed drifts
# by a third over minutes as other tenants load it, and medians within a run
# cannot remove a drift that outlasts the run.  So each round's times are
# scaled by REFERENCE_S over the reference task's wall time measured just
# before and after the round: the figures are seconds at that quiet speed.
REFERENCE_S = 0.27

# (metric, layer in the trace, field, unit)
PER_LAYER = [
    ("partitions.contains.calls", "partitions.contains", "calls", "count"),
    ("partitions.contains.self_s", "partitions.contains", "self_s", "s"),
    ("partitions.k_skew.calls", "partitions.k_skew", "calls", "count"),
    ("partitions.k_skew.self_s", "partitions.k_skew", "self_s", "s"),
    ("partitions.k_skew.hit_ratio", "partitions.k_skew", "hit_ratio", "ratio"),
    ("partitions.k_skew.cache_size", "partitions.k_skew", "cache_size", "count"),
    ("partitions.k_conjugate.calls", "partitions.k_conjugate", "calls", "count"),
    ("partitions.k_conjugate.self_s", "partitions.k_conjugate", "self_s", "s"),
    ("partitions.k_conjugate.hit_ratio", "partitions.k_conjugate", "hit_ratio", "ratio"),
    ("partitions.k_conjugate.cache_size", "partitions.k_conjugate", "cache_size", "count"),
    ("partitions.enumerate.items", "partitions.enumerate", "items", "count"),
    ("partitions.enumerate.self_s", "partitions.enumerate", "self_s", "s"),
    ("lattice.leq.calls", "lattice.leq", "calls", "count"),
    ("lattice.leq.self_s", "lattice.leq", "self_s", "s"),
    ("lattice.leq.total_s", "lattice.leq", "total_s", "s"),
    ("lattice.covers.calls", "lattice.covers", "calls", "count"),
    ("lattice.covers.self_s", "lattice.covers", "self_s", "s"),
    ("lattice.build_ideal.calls", "lattice.build_ideal", "calls", "count"),
    ("lattice.build_ideal.self_s", "lattice.build_ideal", "self_s", "s"),
    ("lattice.build_ideal.vertices", "lattice.build_ideal", "vertices", "count"),
    ("lattice.render.self_s", "lattice.render", "self_s", "s"),
    ("ideals.lattice_ops.calls", "ideals.lattice_ops", "calls", "count"),
    ("ideals.lattice_ops.self_s", "ideals.lattice_ops", "self_s", "s"),
    ("ideals.enumerate_ideal.calls", "ideals.enumerate_ideal", "calls", "count"),
    ("ideals.enumerate_ideal.self_s", "ideals.enumerate_ideal", "self_s", "s"),
    ("ideals.enumerate_ideal.members", "ideals.enumerate_ideal", "members", "count"),
    ("qpoly.mul.calls", "qpoly.mul", "calls", "count"),
    ("qpoly.mul.self_s", "qpoly.mul", "self_s", "s"),
    ("qpoly.mul.coeff_products", "qpoly.mul", "coeff_products", "count"),
    ("qpoly.add.calls", "qpoly.add", "calls", "count"),
    ("qpoly.add.self_s", "qpoly.add", "self_s", "s"),
    ("qpoly.divmod.calls", "qpoly.divmod", "calls", "count"),
    ("qpoly.divmod.self_s", "qpoly.divmod", "self_s", "s"),
    ("qpoly.gaussian.calls", "qpoly.gaussian", "calls", "count"),
    ("qpoly.gaussian.self_s", "qpoly.gaussian", "self_s", "s"),
    ("qpoly.gaussian.hit_ratio", "qpoly.gaussian", "hit_ratio", "ratio"),
    ("qpoly.gaussian.cache_size", "qpoly.gaussian", "cache_size", "count"),
    ("qpoly.gaussian.cache_mb", "qpoly.gaussian", "cache_mb", "MB"),
    ("qpoly.predicates.self_s", "qpoly.predicates", "self_s", "s"),
    ("qpoly.series.self_s", "qpoly.series", "self_s", "s"),
    ("verify.self_s", "verify", "self_s", "s"),
    ("verify.render.self_s", "verify.render", "self_s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
]
# Summed over the invocations of a repetition, except these, which take the max.
LARGEST_FIELDS = {"cache_size", "cache_mb"}


class DeadlineExceeded(Exception):
    pass


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Repetition:
    """One pass over a workload's invocations."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    traces: list[dict] = field(default_factory=list)


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _on_term(signum, frame):
    # Unwinds through Runner.spawn, which kills and reaps the running child.
    raise SystemExit(128 + signum)


class Runner:
    """Spawns children from the checkout at root, with outputs in workdir."""

    def __init__(self, root: str, workdir: str, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.problems: list[str] = []
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        inherited = os.environ.get("PYTHONPATH")
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
        env["PYTHONHASHSEED"] = "0"
        # Bytecode goes beside the run's outputs, not into the source tree.
        env["PYTHONPYCACHEPREFIX"] = os.path.join(os.path.dirname(workdir), "pycache")
        self.env = env
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.signal(signal.SIGTERM, _on_term)

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion; stdout and stderr go through files."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded()
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Child(
            exit_code=os.waitstatus_to_exitcode(status),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=stdout,
            stderr=stderr,
        )

    def kyoung(self, args, trace_path: str | None = None) -> Child:
        if trace_path is None:
            return self.spawn([sys.executable, "-m", "kyoung", *args])
        return self.spawn([sys.executable, os.path.join(HERE, "traced.py"), trace_path, *args])

    def resolve(self) -> str:
        """kyoung.__file__ as the children see it; it must be this tree's."""
        child = self.spawn([sys.executable, "-c", "import kyoung; print(kyoung.__file__)"])
        where = child.stdout.decode().strip()
        expected = os.path.realpath(os.path.join(self.root, "src", "kyoung"))
        if child.exit_code != 0 or not os.path.realpath(where).startswith(expected + os.sep):
            raise SystemExit(f"error: children import kyoung from {where!r}, not {expected}")
        return where

    def reference(self) -> float:
        """Wall time of the fixed reference task (reference.py)."""
        return self.spawn([sys.executable, os.path.join(HERE, "reference.py")]).wall_s

    def setup_probes(self, count: int) -> tuple[list[float], int]:
        """Wall times of `count` trivial invocations, and how many failed."""
        walls, failed = [], 0
        for _ in range(count):
            child = self.kyoung(SETUP_ARGS)
            failed += child.exit_code != 0
            walls.append(child.wall_s)
        return walls, failed

    def invoke(self, inv: workloads.Invocation, trace_path: str | None = None):
        """Run one invocation; returns the child and its output, if any."""
        args = list(inv.args)
        out_path = None
        if inv.output:
            out_path = os.path.join(self.workdir, inv.output)
            args += ["--out", out_path]
        child = self.kyoung(args, trace_path)
        if out_path is None:
            return child, child.stdout if child.exit_code == 0 else None
        if not os.path.exists(out_path):
            return child, None
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        return child, data

    def repetition(self, invocations, digests: dict, traced: bool) -> Repetition:
        rep = Repetition()
        for i, inv in enumerate(invocations):
            trace_path = os.path.join(self.workdir, f"trace-{i}.json") if traced else None
            child, data = self.invoke(inv, trace_path)
            rep.attempted += 1
            rep.wall_s += child.wall_s
            rep.cpu_s += child.cpu_s
            rep.peak_rss_mb = max(rep.peak_rss_mb, child.rss_mb)
            if child.exit_code != 0:
                rep.failed += 1
                tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
                print(f"failed ({child.exit_code}): {inv.key}: {''.join(tail)}", file=sys.stderr)
            if traced and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    rep.traces.append(json.load(fh))
                os.remove(trace_path)
            if data is not None:
                cells, problems = workloads.check(inv, data, digests)
                rep.cells += cells
                self.problems.extend(problems)
            elif child.exit_code == 0:
                self.problems.append(f"{inv.key}: no output")
        return rep


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer values of one repetition, from its children's traces."""
    merged: dict[str, dict[str, float]] = {}
    for trace in traces:
        for name, values in trace["layers"].items():
            into = merged.setdefault(name, {})
            for key, value in values.items():
                if key in LARGEST_FIELDS:
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
    for values in merged.values():
        if "hits" in values:
            lookups = values["hits"] + values["misses"]
            values["hit_ratio"] = values["hits"] / lookups if lookups else 0.0
    return {
        metric: merged.get(layer, {}).get(key, 0) for metric, layer, key, _ in PER_LAYER
    }


def heaviest_edges(traces: list[dict], count: int = 12) -> list[str]:
    """The parent > child span pairs with the most self time, for reading.

    These are raw: the wrapper's calibrated cost is not taken out here.
    """
    merged: dict[tuple[str, str], list] = {}
    for trace in traces:
        for edge in trace["edges"]:
            into = merged.setdefault((edge["parent"], edge["name"]), [0, 0.0, 0.0])
            into[0] += edge["count"]
            into[1] += edge["total_s"]
            into[2] += edge["raw_self_s"]
    ranked = sorted(merged.items(), key=lambda item: -item[1][2])[:count]
    return [
        f"span {parent} > {name}: {calls} calls, {total:.4g} s total, {self_s:.4g} s raw self"
        for (parent, name), (calls, total, self_s) in ranked
    ]


def environment(root: str, kyoung_file: str) -> dict:
    src = os.path.join(root, "src", "kyoung")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "kyoung_file": kyoung_file,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


@dataclass
class Measurement:
    plain: list[Repetition] = field(default_factory=list)
    traced: list[Repetition] = field(default_factory=list)
    setup_walls: list[list[float]] = field(default_factory=list)  # per round
    setup_failed: int = 0
    killed: int = 0
    # Wall times of the reference task, one before each round and one after
    # the last, so that reference[i] and reference[i + 1] bracket round i.
    reference: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        reps = self.plain + self.traced
        probes = sum(len(walls) for walls in self.setup_walls)
        return probes + self.killed + sum(r.attempted for r in reps)

    @property
    def failed(self) -> int:
        return self.setup_failed + self.killed + sum(r.failed for r in self.plain + self.traced)

    def speed_factors(self) -> list[float]:
        """Per round, REFERENCE_S over the mean reference time around it."""
        factors = []
        for i in range(len(self.plain)):
            around = self.reference[i : i + 2]
            factors.append(REFERENCE_S / statistics.fmean(around) if around else 1.0)
        return factors


def measure(runner: Runner, invocations, digests: dict, seconds: float, trace: bool) -> Measurement:
    """Repeat the workload for about `seconds`.

    A round is a plain repetition, a traced one when tracing, a few set-up
    probes, so that set-up time is sampled across the whole run like the
    workload, and the reference task, which also runs once before the first
    round.  Stops once another round would overrun by more than half a round.
    """
    result = Measurement()
    rounds: list[float] = []
    start = time.monotonic()
    try:
        runner.kyoung(SETUP_ARGS)  # warm-up: fills the bytecode cache
        result.reference.append(runner.reference())
        while True:
            t0 = time.monotonic()
            result.plain.append(runner.repetition(invocations, digests, traced=False))
            if trace:
                result.traced.append(runner.repetition(invocations, digests, traced=True))
            walls, failed = runner.setup_probes(SETUP_PROBES_PER_ROUND)
            result.setup_walls.append(walls)
            result.setup_failed += failed
            result.reference.append(runner.reference())
            rounds.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(rounds) / 2 >= seconds:
                break
    except DeadlineExceeded:
        print("run deadline reached: the running child was killed", file=sys.stderr)
        result.killed = 1
        if not result.plain:
            result.plain.append(Repetition())
        if not result.setup_walls:
            result.setup_walls.append([0.0])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kyoung", "__init__.py")):
        print("error: run from the root of a kyoung checkout (no src/kyoung here)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    invocations = workloads.WORKLOADS[args.workload](args.seed)

    workroot = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(workroot, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(root, workdir, time.monotonic() + RUN_DEADLINE_S)
    try:
        kyoung_file = runner.resolve()
        result = measure(runner, invocations, digests, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, traced = result.plain, result.traced
    attempted, failed = result.attempted, result.failed
    wall = statistics.median(r.wall_s for r in plain)
    values: dict[str, tuple[float, str]] = {}
    if args.trace:
        per_rep = [layer_metrics(r.traces) for r in traced] or [layer_metrics([])]
        for metric, _, _, unit in PER_LAYER:
            values[metric] = (statistics.median(v[metric] for v in per_rep), unit)
        imports = [t["import_s"] for r in traced for t in r.traces]
        values["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
        traced_wall = statistics.median(r.wall_s for r in traced) if traced else 0.0
        values["trace.overhead_ratio"] = (traced_wall / wall if wall else 0.0, "ratio")
    else:
        factors = result.speed_factors()
        values["wall_s"] = (statistics.median(r.wall_s * f for r, f in zip(plain, factors)), "s")
        values["cpu_s"] = (statistics.median(r.cpu_s * f for r, f in zip(plain, factors)), "s")
        values["peak_rss_mb"] = (statistics.median(r.peak_rss_mb for r in plain), "MB")
        values["cells_per_s"] = (
            statistics.median(
                r.cells / (r.wall_s * f) if r.wall_s else 0.0 for r, f in zip(plain, factors)
            ),
            "1/s",
        )
        values["setup_s"] = (
            statistics.median(w * f for walls, f in zip(result.setup_walls, factors) for w in walls),
            "s",
        )

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} plain and"
          f" {len(traced)} traced repetitions of {len(invocations)} invocations")
    print("measured wall_s " + " ".join(f"{r.wall_s:.4f}" for r in plain))
    print("measured reference_s " + " ".join(f"{x:.4f}" for x in result.reference))
    probes = [w for walls in result.setup_walls for w in walls]
    print(f"measured medians: wall_s {wall:.6g}, setup_s {statistics.median(probes):.6g}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    if traced:
        print("\n".join(heaviest_edges(traced[-1].traces)))
    print("environment " + json.dumps(environment(root, kyoung_file), sort_keys=True))
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
