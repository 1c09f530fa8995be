"""noisytrain benchmark: end-to-end and per-layer metrics per workload.

    python3 bench/run.py --workload desk [--seed 17] [--seconds 15] [--trace 0|1]
    python3 bench/run.py --workload all          # every workload, one table

Each repetition runs the `noisytrain` CLI in a fresh process built from
this checkout's `src/`; repetitions run one at a time until `--seconds`
is used up (at least three).  With `--trace 0` the last stdout line is a
JSON object with the end-to-end metrics (medians over repetitions); runs
of calibrate.py between repetitions time the host, and each repetition's
set-up and run times are scaled by the probes around it against their
reference time, because the shared host's speed drifts by tens of
percent within minutes.  With
`--trace 1` the line holds the per-layer metrics of traced repetitions
(raw seconds), and untraced repetitions in the same process give the
tracing overhead.  Every repetition's outputs are checked; see checks.py.
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
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS, Workload, tiny  # noqa: E402

CHILD = os.path.join(BENCH, "child.py")
CALIBRATE = os.path.join(BENCH, "calibrate.py")
REFERENCE = os.path.join(BENCH, "reference.json")
MIN_REPS = 3
MAX_REPS = 60
MIN_TRACED = 2
MIN_SETUPS = 6
RUN_DEADLINE_S = 165   # a benchmark run must end within 180 s

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_TIMES = (
    "kernel.backward", "kernel.sgd", "model.train_forward", "model.eval_forward",
    "model.checkpoint", "training.warmup", "training.half_epoch", "training.refine",
    "training.guess", "training.mixmatch", "training.loss", "selection.select",
    "selection.export", "metrics.accuracy", "metrics.auc", "metrics.pseudo_recall",
    "data.augment", "data.batch", "data.build", "data.snapshot", "runner.write",
    "runner.command", tracer.GC_SPAN,
)
LAYER_COUNTS = (
    ("kernel.backward_calls", "count"), ("kernel.tape_records", "count"),
    ("kernel.matrix_inits", "count"), ("kernel.matmul_calls", "count"),
    ("kernel.matmul_gflop", "GFLOP"), ("model.eval_rows", "count"),
    ("training.iterations", "count"), ("training.warmup_iterations", "count"),
    ("training.halves", "count"), ("training.degenerate_halves", "count"),
    ("selection.select_calls", "count"), ("selection.export_bytes", "bytes"),
    ("runner.bytes_written", "bytes"), ("gc.collected", "count"),
)
PER_LAYER = (tuple((f"{name}_s", "s") for name in LAYER_TIMES) + LAYER_COUNTS
             + (("trace.overhead_s", "s"), ("trace.uncovered_s", "s")))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Rep:
    """One child process: its timings, outputs and any problems found."""

    setup_s: float | None = None
    run_s: float | None = None
    host_s: float | None = None   # calibrate.py wall time around this process
    rss_mb: float | None = None
    hashes: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    counts: dict | None = None    # traced only: the recorder's raw counts
    layers: dict | None = None    # traced only: per-layer metric values
    problems: list = field(default_factory=list)


def run_rep(w: Workload, seed: int, rep_dir: str, timeout: float, trace: bool = False,
            setup_only: bool = False) -> Rep:
    os.makedirs(rep_dir)
    config_path = os.path.join(rep_dir, "config.json")
    with open(config_path, "w") as f:
        json.dump(w.config, f)
    out_dir = os.path.join(rep_dir, "out")
    result_path = os.path.join(rep_dir, "result.json")
    job_path = os.path.join(rep_dir, "job.json")
    with open(job_path, "w") as f:
        json.dump({"argv": w.cli_args(config_path, out_dir, seed), "trace": trace,
                   "setup_only": setup_only, "result": result_path}, f)

    rep = Rep()
    t0 = now()
    try:
        proc = subprocess.run([sys.executable, CHILD, job_path], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep.problems.append(f"killed after {timeout:.0f} s")
        return rep
    if proc.returncode != 0:
        rep.problems.append(f"exit status {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return rep
    with open(result_path) as f:
        res = json.load(f)
    if res["t_first_epoch"] is None:
        rep.problems.append("no training epoch started")
        return rep
    rep.setup_s = res["t_first_epoch"] - t0
    if setup_only:
        return rep
    rep.run_s = res["t_done"] - res["t_first_epoch"]
    rep.rss_mb = res["maxrss_kb"] / 1024.0
    if "trace" in res:
        rep.counts = res["trace"]["counts"]
        rep.layers = layer_values(res["trace"])
    rep.problems += checks.check_outputs(w, out_dir)
    if not rep.problems:
        rep.hashes = checks.output_hashes(w, out_dir)
        rep.quality = checks.quality(w, out_dir)
    return rep


class Session:
    """Repetitions of one workload inside one time budget."""

    def __init__(self, w: Workload, seed: int, work_dir: str, seconds: float):
        self.w, self.seed, self.work_dir = w, seed, work_dir
        self.seconds = seconds
        self.start = now()
        self.reps: list[Rep] = []
        self.setup_runs: list[Rep] = []
        self.walls: list[float] = []
        self.calibrated: list[Rep] = []
        self.host_probes: list[float] = []

    def timeout(self) -> float:
        return max(1.0, RUN_DEADLINE_S - (now() - self.start))

    def probe_host(self) -> None:
        t0 = now()
        subprocess.run([sys.executable, CALIBRATE], check=True, timeout=self.timeout())
        self.host_probes.append(now() - t0)

    def rep(self, calibrate: bool = False, **kwargs) -> Rep:
        """One process; with `calibrate`, a host-speed probe runs just before it."""
        rep_dir = os.path.join(self.work_dir, f"rep{len(self.reps) + len(self.setup_runs):03d}")
        t0 = now()
        if calibrate:
            self.probe_host()
        rep = run_rep(self.w, self.seed, rep_dir, self.timeout(), **kwargs)
        if calibrate:
            self.calibrated.append(rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if kwargs.get("setup_only"):
            self.setup_runs.append(rep)
        else:
            self.walls.append(now() - t0)
            self.reps.append(rep)
        return rep

    def time_left(self) -> bool:
        """Room for one more repetition of median length within the budget."""
        elapsed = now() - self.start
        return (len(self.reps) < MAX_REPS
                and elapsed + statistics.median(self.walls) <= self.seconds)

    def setups(self) -> list[Rep]:
        """Repetitions with a set-up time, topped up by set-up-only runs."""
        timed = [r for r in self.reps if r.setup_s is not None]
        while len(timed) < MIN_SETUPS and now() - self.start < RUN_DEADLINE_S:
            extra = self.rep(setup_only=True, calibrate=True)
            if extra.setup_s is None:
                break
            timed.append(extra)
        return timed

    def close_probes(self) -> None:
        """Give each calibrated process the mean of the probes on either side."""
        self.probe_host()
        for r, before, after in zip(self.calibrated, self.host_probes, self.host_probes[1:]):
            r.host_s = (before + after) / 2

    def verify(self, golden: dict | None) -> list[str]:
        """Mark non-deterministic repetitions; report the golden comparison."""
        good = [r for r in self.reps if not r.problems]
        notes = []
        for r in good[1:]:
            if r.hashes != good[0].hashes:
                r.problems.append("outputs differ from the first repetition (not deterministic)")
        if not good:
            return notes
        if golden is None:
            notes.append(f"golden: not recorded for this seed/size (golden seed {GOLDEN_SEED})")
        else:
            diff = sorted(k for k in golden if good[0].hashes.get(k) != golden[k])
            notes.append("golden: match" if not diff else f"golden: MISMATCH in {', '.join(diff)}")
        return notes

    def tally(self) -> tuple[int, int]:
        """(attempted, failed) over every program process, set-up-only runs included."""
        runs = self.reps + self.setup_runs
        return len(runs), sum(1 for r in runs if r.problems)


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4g} [q1 {q1:.4g}, q3 {q3:.4g}] n={len(values)}"


def measure(w: Workload, seed: int, seconds: float, work_dir: str, golden: dict | None):
    """Untraced repetitions: the end-to-end metrics.

    Set-up and run times are divided by the mean of the host-speed probes
    taken just before and just after each process and multiplied by the
    probe's reference time, so they read as seconds on the reference host;
    raw medians are printed.
    """
    s = Session(w, seed, work_dir, seconds)
    while len(s.reps) < MIN_REPS or s.time_left():
        s.rep(calibrate=True)
    setups = s.setups()
    s.close_probes()
    notes = s.verify(golden)
    good = [r for r in s.reps if not r.problems]
    ref = reference()["host_probe_s"]
    values = {
        "run_s": [r.run_s * ref / r.host_s for r in good],
        "setup_s": [r.setup_s * ref / r.host_s for r in setups],
        "peak_rss_mb": [r.rss_mb for r in good],
    }
    if good:
        notes.append(f"raw medians: run_s {statistics.median(r.run_s for r in good):.4g} s, "
                     f"setup_s {statistics.median(r.setup_s for r in setups):.4g} s; host probe "
                     f"{statistics.median(r.host_s for r in setups):.4g} s (reference {ref} s)")
    return s, values, notes, []


def layer_values(trace: dict) -> dict[str, float]:
    """One traced repetition's per-layer metrics (all but the overhead)."""
    times, uncovered = tracer.self_times(trace["spans"], trace["window"])
    counts = dict(trace["counts"])
    counts["kernel.matmul_gflop"] = counts.pop("kernel.matmul_flop") / 1e9
    values = {f"{name}_s": times.get(name, 0.0) for name in LAYER_TIMES}
    values.update((name, counts[name]) for name, _ in LAYER_COUNTS)
    values["trace.uncovered_s"] = uncovered
    return values


def measure_traced(w: Workload, seed: int, seconds: float, work_dir: str, golden: dict | None):
    """Alternating untraced and traced repetitions: the per-layer metrics."""
    s = Session(w, seed, work_dir, seconds)
    plain, traced = [], []
    while len(plain) < 1 or len(traced) < MIN_TRACED or s.time_left():
        use_trace = len(traced) < 2 * len(plain)
        (traced if use_trace else plain).append(s.rep(trace=use_trace))
    notes = s.verify(golden)
    traced = [r for r in traced if not r.problems]
    plain = [r for r in plain if not r.problems]

    faults = []
    for i, r in enumerate(traced[1:], start=2):
        diff = [k for k in tracer.EXACT_COUNTS if r.counts[k] != traced[0].counts[k]]
        if diff:
            faults.append(f"benchmark fault: traced repetition {i} counts differ from the first: "
                          + ", ".join(f"{k} {traced[0].counts[k]} vs {r.counts[k]}" for k in diff))

    values = {k: [r.layers[k] for r in traced] for k in (traced[0].layers if traced else {})}
    if plain and traced:
        values["trace.overhead_s"] = [statistics.median(r.run_s for r in traced)
                                      - statistics.median(r.run_s for r in plain)]
    return s, values, notes, faults


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS") if k in os.environ}
    src = os.path.join(ROOT, "src", "noisytrain")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unset (library default)",
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def load_golden(w: Workload, seed: int, size: str) -> dict | None:
    if seed != GOLDEN_SEED or size != "full":
        return None
    return reference()["golden"].get(w.name)


def run_workload(name: str, args) -> tuple[dict, dict | None]:
    """Measure one workload; returns the result object and its quality figures."""
    w = WORKLOADS[name]
    if args.size == "tiny":
        w = tiny(w)
    golden = load_golden(w, args.seed, args.size)
    work_dir = os.path.join(args.work_dir, f"{name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        measure_fn, table = (measure_traced, PER_LAYER) if args.trace else (measure, END_TO_END)
        s, values, notes, faults = measure_fn(w, args.seed, args.seconds, work_dir, golden)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = s.tally()
    print(f"workload {name} seed {args.seed} size {args.size} trace {int(args.trace)}: "
          f"{len(s.reps)} runs + {len(s.setup_runs)} set-up-only runs, {failed}/{attempted} failed")
    for r in s.reps + s.setup_runs:
        for p in r.problems:
            print(f"  FAILED: {p}")
    for note in notes + faults:
        print(f"  {note}")
    quality = next((r.quality for r in s.reps if r.quality), None)
    if quality is not None:
        auc = "n/a (no selection)" if quality["auc"] is None else quality["auc"]
        print(f"  test_acc {quality['test_acc']}  auc {auc}  (deterministic per seed)")
    metrics = {}
    for key, unit in table:
        vals = values.get(key)
        if not vals:
            continue
        print(f"  {key:28s} {describe(vals)} {unit}")
        metrics[key] = {"value": statistics.median(vals), "unit": unit}
    correct = failed == 0 and not faults and len(metrics) == len(table)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, quality


def print_table(results: dict) -> None:
    keys = [k for k, _ in END_TO_END]
    print("workload  failed/attempted  " + "  ".join(f"{k:>11s}" for k in keys)
          + "  test_acc  auc")
    for name, (result, quality) in results.items():
        row = [f"{result['metrics'][k]['value']:11.4g}" if k in result["metrics"] else " " * 11
               for k in keys]
        q = quality or {}
        auc = "n/a" if q.get("auc") is None else f"{q['auc']:.4f}"
        print(f"{name:9s} {result['failed']:>6d}/{result['attempted']:<9d} " + "  ".join(row)
              + f"  {q.get('test_acc', float('nan')):8.4f}  {auc}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few dozen rows and epochs, for smoke tests")
    p.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_out"),
                   help="scratch directory for repetition outputs")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "noisytrain", "cli.py")):
        print(f"error: no noisytrain sources under {ROOT}/src to build and measure",
              file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args) for name in names}
    if args.workload == "all":
        print_table(results)
        print(json.dumps({name: result for name, (result, _) in results.items()}))
    else:
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
