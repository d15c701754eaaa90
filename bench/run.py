"""Benchmark of the circulant_channels package, its library and its CLI.

    python3 bench/run.py --workload channel|states|cli|all --seed N \
        --seconds S --trace 0|1 [--smoke]

Workloads (their reasons and layers are in bench/workloads.json):

* ``channel``: channel reports and images, in-process.
* ``states``: coherence, Bargmann canonicalization and bipartite erasure,
  in-process.
* ``cli``: one ``python -m circulant_channels`` subprocess per request,
  closed loop, a share of them malformed.

One caller, no worker threads, BLAS pinned to one thread here and in every
child.  Set-up (a fresh-interpreter import, input generation, warm-up) runs
five times and ``setup_s`` is the median.  The timed phase then runs the
pool of rounds over and over, whole rounds, until ``--seconds`` of package
time has passed and every task of the pool has run; every output is
checked against the oracles in bench/oracles.py after its round.  A task's
latency is the median over its runs, and every timing is scaled to a
nominal host speed by reference passes run between tasks
(bench/reference.py).

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` a fixed number of rounds runs untraced and then again under
span wrappers (bench/spans.py), and the last line carries the per-layer
metrics.  ``--smoke`` runs the same workloads at a tiny size in seconds.
``--workload all`` runs each workload in turn in its own process.

``attempted`` counts the distinct tasks of the pool and ``failed`` those
with a problem in any of their runs, so both depend on the seed alone.
``correct`` is false when an output number disagrees with its oracle or an
operation breaks its documented contract; ``failed`` also counts tasks
whose verdict flags the maths contradicts.  The package is imported from
``src/`` next to this directory and nowhere else; without it the benchmark
exits with code 2 before printing a result.
"""

from __future__ import annotations

import os

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)  # before NumPy is imported, here and in workloads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
META = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(META["workloads"])
SETUP_REPEATS = 5
POOL_ROUNDS = {"channel": 2, "states": 16, "cli": 6}
TRACE_ROUNDS = {"channel": 2, "states": 10, "cli": 3}
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), **PINS)
CLI_GROUPS = ("channel_apply", "channel_spectrum", "coherence_sweep", "bargmann_canon",
              "bipartite_demo")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=META["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, about a second per phase")
    return ap.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pins": {k: os.environ[k] for k in PINS},
    }


def child_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None


def release_free_memory() -> None:
    """Collect reference cycles (a caught exception holds its frames and
    their arrays) and hand freed heap pages back to the system, between
    rounds and outside the timed region, so that the peak RSS is set by
    what a round holds rather than by when the collector last ran."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


class Run:
    """One workload: set-up, the timed rounds and their tallies.

    A task is one distinct input of the pool, named by its (round, index)
    key; the timed phase runs the pool round after round, so each task runs
    several times, and every run of it is checked.  ``verdicts`` keeps one
    (key, verdict) per run."""

    def __init__(self, name: str, cc, wl, ref, seed: int, smoke: bool):
        self.name, self.cc, self.wl, self.ref, self.seed, self.smoke = name, cc, wl, ref, seed, smoke
        self.interp_s: list[float] = []
        self.import_s: list[float] = []
        self.setup_at: list[float] = []
        self.setup_s: list[float] = []
        self.verdicts: list[tuple[tuple[int, int], object]] = []
        self.cli = None
        if name == "cli":
            workdir = ROOT / ".bench_run" / f"cli-{os.getpid()}"
            self.cli = wl.CliRunner(cc, str(ROOT), CHILD_ENV, str(workdir))

    def build_pool(self, rng, smoke: bool) -> list:
        n = 1 if smoke else POOL_ROUNDS[self.name]
        if self.name == "channel":
            return [self.wl.channel_round(self.cc, rng, smoke) for _ in range(n)]
        if self.name == "states":
            return [self.wl.states_round(self.cc, rng, smoke) for _ in range(n)]
        return [self.wl.cli_round(rng, i, smoke) for i in range(n)]

    def setup(self) -> None:
        """Import in a fresh interpreter, build the inputs, warm up; the
        inputs depend only on the seed, so every repeat builds the same.
        A reference pass runs before and after each repeat."""
        for _ in range(1 if self.smoke else SETUP_REPEATS):
            self.ref.measure()
            t0 = time.perf_counter()
            self.interp_s.append(child_seconds("pass"))
            self.import_s.append(child_seconds("import circulant_channels"))
            rng = np.random.default_rng([self.seed, WORKLOADS.index(self.name)])
            self.pool = self.build_pool(rng, self.smoke)
            if self.cli is not None:
                self.cli.write_files(self.pool)
            else:
                warm = np.random.default_rng([self.seed, 99])
                self.wl.run_round(self.build_pool(warm, smoke=True)[0])
            took = time.perf_counter() - t0
            self.setup_at.append(t0 + 0.5 * took)
            self.setup_s.append(took)
        self.ref.measure()

    def tasks(self, i: int, inprocess: bool = True) -> list:
        round_ = self.pool[i % len(self.pool)]
        return self.cli.tasks(round_, inprocess) if self.cli is not None else round_

    def rounds(self, count: int | None, seconds: float = 0.0, inprocess: bool = True,
               reference: bool = False):
        """Run whole rounds: ``count`` of them, or until ``seconds`` of
        package time and at least one pass over the pool.  With
        ``reference``, reference passes run between tasks.  Returns
        (keys, labels, starts, latencies), one entry per task run."""
        keys, labels, starts, lat, i = [], [], [], [], 0
        between = self.ref.maybe if reference else None
        if reference:
            self.ref.measure()

        def more() -> bool:
            if count is not None:
                return i < count
            return sum(lat) < seconds or i < len(self.pool)

        while more():
            tasks = self.tasks(i, inprocess)
            s, latencies, verdicts = self.wl.run_round(tasks, between)
            r = i % len(self.pool)
            keys += [(r, j) for j in range(len(tasks))]
            labels += [t.label for t in tasks]
            starts += s
            lat += latencies
            self.verdicts += [((r, j), v) for j, v in enumerate(verdicts)]
            release_free_memory()
            i += 1
        if reference:
            self.ref.measure()
        return keys, labels, np.array(starts), np.array(lat)

    def close(self) -> None:
        if self.cli is not None:
            self.cli.remove_files()


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_task_ms(keys, latencies) -> np.ndarray:
    """Each task's median latency over its runs, in ms."""
    runs: dict = {}
    for key, t in zip(keys, latencies):
        runs.setdefault(key, []).append(t)
    return np.array([np.median(v) for v in runs.values()]) * 1e3


def end_to_end(run: Run, seconds: float) -> dict:
    """Timings of the pool's tasks, each the median over its runs.

    ``tasks_per_s`` is the number of tasks over the sum of their median
    latencies: the rate of one closed-loop caller going once through the
    pool.  Every timing is scaled by the reference passes nearest to it
    (bench/reference.py); the unscaled figures are printed beside them."""
    keys, labels, starts, lat = run.rounds(None, seconds, inprocess=False, reference=True)
    scaled = lat * run.ref.scale(starts + 0.5 * lat)
    ms, raw = per_task_ms(keys, scaled), per_task_ms(keys, lat)
    setup = np.array(run.setup_s) * run.ref.scale(run.setup_at)
    p90 = float(np.percentile(ms, 90))
    print(f"# timed: {lat.size} runs of {ms.size} tasks in {lat.sum():.3f} s of package time,"
          f" {int(np.sum(ms > p90))} tasks beyond the 90th percentile")
    print(f"# reference {run.ref.describe()}")
    print(f"# unscaled: tasks_per_s {ms.size / raw.sum() * 1e3:.4f} 1/s,"
          f" task_ms_p50 {np.median(raw):.4f} ms, task_ms_p90 {np.percentile(raw, 90):.4f} ms,"
          f" setup_s {np.median(run.setup_s):.4f} s")
    for label in sorted(set(labels)):
        mine = 1e3 * scaled[[x == label for x in labels]]
        print(f"# {label:40s} n={mine.size:5d} p50={np.median(mine):10.3f} ms", file=sys.stderr)
    return {
        "tasks_per_s": (ms.size / ms.sum() * 1e3, "1/s"),
        "task_ms_p50": (float(np.median(ms)), "ms"),
        "task_ms_p90": (p90, "ms"),
        "setup_s": (float(np.median(setup)), "s"),
        "peak_rss_mb": (peak_rss_mb(run.name), "MB"),
    }


def per_layer(run: Run, spans) -> dict:
    rounds = 1 if run.smoke else TRACE_ROUNDS[run.name]
    floor_s = float(np.median(run.import_s))
    interp_ms = float(np.median(run.interp_s)) * 1e3
    out = {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": floor_s * 1e3 - interp_ms,
        "cli.compute_ms_p50": 0.0,
    }
    for group in CLI_GROUPS:
        out[f"cli.{group}.ms_p50"] = 0.0
    if run.cli is not None:
        _, _, _, lat = run.rounds(rounds, inprocess=False)
        out["cli.compute_ms_p50"] = float(np.median(lat) - floor_s) * 1e3
        run.rounds(1)  # warms the in-process path, which the set-up did not
    _, labels, _, lat = run.rounds(rounds)
    plain_wall = float(lat.sum())
    if run.cli is not None:
        for group in CLI_GROUPS:
            mine = [t for t, label in zip(lat, labels) if label.startswith(f"cli.{group}.")]
            out[f"cli.{group}.ms_p50"] = float(np.median(mine)) * 1e3
        run.cli.bytes_in = run.cli.bytes_out = 0
    before = len(run.verdicts)
    modules = {layer: getattr(run.cc, layer) for layer in spans.LAYERS}
    with spans.Tracer(modules) as tracer:
        traced_wall = float(run.rounds(rounds)[3].sum())
    traced = [v for _, v in run.verdicts[before:]]
    out.update(spans.layer_metrics(tracer, traced_wall))
    out["bargmann.flag_false"] = sum(v.flag_false for v in traced)
    out["bargmann.degenerate"] = sum(v.degenerate for v in traced)
    out["serialize.bytes_in"] = run.cli.bytes_in if run.cli is not None else 0
    out["serialize.bytes_out"] = run.cli.bytes_out if run.cli is not None else 0
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    layers = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS)
    print(f"# traced wall {traced_wall:.4f} s = layers {layers:.4f} s + bench {out['bench.self_s']:.4f} s;"
          f" untraced {plain_wall:.4f} s over the same {rounds} rounds")
    return {k: (v, unit_of(k)) for k, v in out.items()}


UNITS = {
    "calls": "count", "self_s": "s", "share": "ratio", "wall_s": "s", "ms_p50": "ms",
    "n3": "count", "dense_mb": "MB", "validations_per_report": "count",
    "sweep_us_per_point": "us", "uniform_share": "ratio", "flag_false": "count",
    "degenerate": "count", "encode_s": "s", "decode_s": "s", "bytes_in": "bytes",
    "bytes_out": "bytes", "interp_ms": "ms", "import_ms": "ms", "compute_ms_p50": "ms",
    "overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def report(run: Run, metrics: dict) -> int:
    """A task fails when any of its runs has a problem; ``attempted`` and
    ``failed`` count tasks, so they depend on the seed alone, not on how
    many times the host managed to repeat the pool."""
    problems: dict = {}
    degenerate, flag_false = set(), set()
    for key, v in run.verdicts:
        problems.setdefault(key, set()).update(v.problems)
        if v.degenerate:
            degenerate.add(key)
        if v.flag_false:
            flag_false.add(key)
    attempted = len(problems)
    failed = sum(bool(p) for p in problems.values())
    kinds = {"number": 0, "contract": 0, "flag": 0}
    shown = set()
    for found in problems.values():
        for kind in {kind for kind, _ in found}:
            kinds[kind] += 1
        for kind, what in sorted(found):
            if len(shown) < 12 and what not in shown:
                shown.add(what)
                print(f"problem [{kind}] {what}", file=sys.stderr)
    correct = kinds["number"] == 0 and kinds["contract"] == 0
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'failed_frac':34s} {failed / attempted:.6g} ratio ({failed} of {attempted} tasks;"
          f" tasks with a problem: {kinds['number']} number, {kinds['contract']} contract,"
          f" {kinds['flag']} flag; {len(run.verdicts)} runs checked)")
    print(f"# bargmann: {len(flag_false)} tasks with a false report flag,"
          f" {len(degenerate)} raising DegenerateInvariantError")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        code = code or (0 if results[name]["correct"] else 1)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "circulant_channels" / "__init__.py").is_file():
        print(f"run.py: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import circulant_channels as cc
    import circulant_channels.cli  # noqa: F401  (the package does not import it)

    if not Path(cc.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported {cc.__file__}, not the source under {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    ref = (reference.InterpreterPass(CHILD_ENV, str(ROOT)) if args.workload == "cli"
           else reference.NumpyPass())
    run = Run(args.workload, cc, wl, ref, args.seed, args.smoke)
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    print(f"# workload={args.workload} seed={args.seed} seconds={seconds} trace={args.trace}"
          f" smoke={int(args.smoke)}")
    try:
        run.setup()
        metrics = per_layer(run, spans) if args.trace else end_to_end(run, seconds)
    finally:
        run.close()
    return report(run, metrics)


if __name__ == "__main__":
    sys.exit(main())
