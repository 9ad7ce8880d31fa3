"""Layered benchmark of the dtmv command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dtmv is imported from its `src/`.
Every operation is one `dtmv.cli.main` call for the workload's command, in a
fresh interpreter, single process, `--jobs 1`; all of them run on one CPU.
Operations repeat until S seconds are used (at least one).  End-to-end times
are scaled by the reference loop timed next to them (perfbench/reference.py).
With --trace 0 the last line of stdout is the JSON record of the end-to-end
metrics; with --trace 1 half the time goes to untraced operations and half
to traced ones, and the record holds the per-layer metrics.  Workloads,
metrics and the layer map are described in perfbench/NOTES.md.
"""

import argparse
import hashlib
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from reference import NOMINAL_S  # noqa: E402
from spans import EXACT_COUNTS, LAYER_UNITS, cell_percentiles  # noqa: E402

# A run must end within this many seconds, whatever --seconds asks for.
RUN_DEADLINE_S = 170.0
# Import-only interpreters at the start of a run; every operation's own
# import adds a further setup_s sample.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # shared by every operation
    work: int  # per operation: episodes over all cells; table states for the oracle
    rows: int = 1  # report.csv rows one operation writes
    reference: str = "python"  # the loop of perfbench/reference.py that brackets `main`
    # per-operation config lines, all of equal cost; operations cycle through them
    variants: tuple = ("",)
    seeds_per_run: int = 1  # and then through this many --seed values

    def operation(self, seed: int, index: int) -> tuple:
        """(variant index, --seed) of the index-th operation of a run."""
        k, v = self.seeds_per_run, len(self.variants)
        return index % v, k * seed + (index // v) % k


WORKLOADS = {
    # criterion 5 at the default config: skew-t, 2 learners, 15k episodes a
    # cell.  An operation is one volatility and one seed; nine operations
    # make the 18 cells of the study (see NOTES.md on their RNG streams).
    "study-skewt": Workload(
        "simulate", "", 2 * 15000, rows=2, seeds_per_run=3,
        variants=tuple(f"[evaluation]\nsigma_grid_annual = {v}\n" for v in ("0.1", "0.2", "0.3"))),
    # criterion 8 on the bundled CSV: an operation is one test decade x 3
    # targets x 2 learners; ten operations make the 60 cells of the backtest
    "backtest-hist": Workload(
        "backtest", "[learning]\nepisodes = 2000\n", 6 * 2000, rows=6,
        variants=tuple(f"[evaluation]\nbacktest_start_years = {y}\n" for y in range(2004, 2014))),
    # one discrete cell; writes the 15k-line episode log and a checkpoint
    "train-normal": Workload("train", "[market]\nmodel = normal\n", 15000),
    # closed forms against the DP oracle; 61 periods x 201 states.  Its time
    # is whole-array numpy kernels, which the numpy loop tracks.
    "oracle-fine": Workload(
        "analytic", "[problem]\nhorizon = 60\n[grid]\nx_points = 201\n", 61 * 201,
        rows=61 * 201, reference="numpy"),
}

END_TO_END_UNITS = {"setup_s": "s", "norm_wall_s": "s", "norm_work_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    """Starts the child interpreters of one run and keeps their records."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.deadline = deadline
        self.dir = os.path.join(OUT, workload)
        self.run_dir = os.path.join(self.dir, "run")
        os.makedirs(self.dir, exist_ok=True)
        self.configs = []
        for i, variant in enumerate(self.workload.variants):
            self.configs.append(os.path.join(self.dir, f"workload{i}.ini"))
            with open(self.configs[-1], "w") as fh:
                fh.write(self.workload.config + variant)
        self.seed = seed
        self.import_samples = []  # (import seconds, reference loop seconds before it)

    def child(self, mode: str, variant: int = 0, cli_seed: int = 0) -> tuple:
        """Run child.py once; returns (record or None, error text, seconds)."""
        result = os.path.join(self.dir, "child.json")
        if os.path.exists(result):
            os.remove(result)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        argv = [self.workload.command, "--config", self.configs[variant], "--out",
                self.run_dir, "--jobs", "1", "--seed", str(cli_seed)]
        spec = {"mode": mode, "workload": self.name, "argv": argv, "seed": cli_seed,
                "rows": self.workload.rows, "reference": self.workload.reference,
                "out": self.run_dir, "src": SRC, "result": result,
                "spans": os.path.join(self.dir, "spans.npz")}
        cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
        t0 = time.monotonic()
        timeout = max(1.0, self.deadline - t0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s", time.monotonic() - t0
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", elapsed
        with open(result) as fh:
            record = json.load(fh)
        record["key"] = f"{cli_seed}.{variant}"
        if mode != "import":
            if record["exit"] != 0:
                return None, f"dtmv exit {record['exit']}: {proc.stderr.strip()[-500:]}", elapsed
            if proc.stderr:
                return None, f"stderr not empty: {proc.stderr.strip()[-500:]}", elapsed
            if record["errors"]:
                return None, "; ".join(record["errors"]), elapsed
        self.import_samples.append((record["import_s"], record["import_ref_s"]))
        return record, "", elapsed

    def operations(self, mode: str, seconds: float) -> tuple:
        """Repeat the workload for about `seconds`; returns (records, errors)."""
        records, errors, durations = [], [], []
        t0 = time.monotonic()
        while not durations or (time.monotonic() - t0) + statistics.median(durations) <= seconds:
            if durations and time.monotonic() + 2 * max(durations) > self.deadline:
                break
            variant, cli_seed = self.workload.operation(self.seed, len(durations))
            record, error, elapsed = self.child(mode, variant, cli_seed)
            durations.append(elapsed)
            if record is None:
                errors.append(error)
            else:
                records.append(record)
        return records, errors

    def import_scipy_s(self) -> float:
        """Median cumulative import time of scipy under `import dtmv.cli`."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            cmd = [sys.executable, "-X", "importtime", "-c", "import dtmv.cli"]
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - time.monotonic()))
            samples.append(scipy_cumulative_us(proc.stderr) / 1e6)
        return statistics.median(samples)


def scipy_cumulative_us(importtime_log: str) -> int:
    """Sum of cumulative times of scipy modules not imported by another
    scipy module, from `python -X importtime` output."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total, stack = 0, []  # walk parents before children: reversed postorder
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total


def source_digest() -> str:
    """SHA-256 over pyproject.toml and every file under src/ but bytecode."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "pyproject.toml")]
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths.extend(os.path.join(root, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "loadavg_before": os.getloadavg(),
        "machine_changes": "none: cgroups, caches and kernel settings were not changed",
    }


class Registry:
    """Digests and counts of earlier runs in this checkout, keyed by source
    digest and workload, so that runs of one commit must agree."""

    def __init__(self, key: str) -> None:
        self.path = os.path.join(OUT, "registry.json")
        self.key = key
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except FileNotFoundError:
            self.data = {}

    def check_and_record(self, values: dict) -> list:
        entry = self.data.setdefault(self.key, {})
        errors = [f"{k} = {v!r}, an earlier run of this source recorded {entry[k]!r}"
                  for k, v in values.items() if k in entry and entry[k] != v]
        if not errors:
            entry.update(values)
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.data, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        return errors


def agree(records: list, field: str, errors: list) -> object:
    """The value every record holds for field; notes a disagreement."""
    values = {json.dumps(r[field], sort_keys=True) for r in records}
    if len(values) > 1:
        errors.append(f"{field} differs between operations of one run: {sorted(values)}")
    return records[0][field]


def scaled(pairs, reference: str) -> float:
    """Median of time / reference-loop time over (time, loop time) pairs,
    in seconds at the loop's nominal speed; see perfbench/reference.py."""
    return NOMINAL_S[reference] * statistics.median(t / ref for t, ref in pairs)


def scaled_wall(runner: Runner, records: list) -> float:
    return scaled(((r["wall_s"], r["ref_s"]) for r in records), runner.workload.reference)


def end_to_end(runner: Runner, records: list) -> dict:
    wall = scaled_wall(runner, records)
    return {
        "setup_s": scaled(runner.import_samples, "python"),
        "norm_wall_s": wall,
        "norm_work_per_s": runner.workload.work / wall,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in records) / 1024.0,
    }


def per_layer(runner: Runner, plain: list, traced: list, errors: list) -> dict:
    layers = [r["layers"] for r in traced]
    metrics = {k: agree(layers, k, errors) if k in EXACT_COUNTS
               else statistics.median(d[k] for d in layers) for k in layers[0]}
    metrics["cli.import_s"] = statistics.median(t for t, _ in runner.import_samples)
    metrics["cli.import_scipy_s"] = runner.import_scipy_s()
    metrics["cli.bytes_written"] = plain[0]["bytes_written"]  # first operation of the run
    metrics.update(cell_percentiles([s for r in traced for s in r["cell_train_s"]]))
    metrics["machine.ref_s"] = statistics.median(r["ref_s"] for r in plain)
    metrics["machine.wall_s"] = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = scaled_wall(runner, traced) - scaled_wall(runner, plain)
    return {name: metrics[name] for name in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "dtmv", "cli.py")):
        print(f"perfbench: no dtmv sources under {SRC}; run from a dtmv checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment(args.seed)
    # The reference loop gauges the speed of the CPU it runs on, and that
    # speed differs between the CPUs of a shared VM: run everything on one.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    runner = Runner(args.workload, args.seed, deadline)
    warm, error, _ = runner.child("import")  # fills bytecode caches; not counted
    if warm is None:
        print(f"perfbench: cannot import dtmv.cli: {error}", file=sys.stderr)
        return 2
    runner.import_samples.clear()
    for _ in range(SETUP_SAMPLES):
        runner.child("import")

    # a traced run splits its time between an untraced and a traced loop
    phase_s = args.seconds / 2 if args.trace else args.seconds
    plain, failures = runner.operations("run", phase_s)
    traced = []
    if args.trace and plain:
        traced, trace_failures = runner.operations("trace", phase_s)
        failures += trace_failures
    attempted = len(plain) + len(traced) + len(failures)
    failed = len(failures)
    if not plain or (args.trace and not traced):
        for e in failures:
            print(f"perfbench: operation failed: {e}", file=sys.stderr)
        print("perfbench: no successful operation to measure", file=sys.stderr)
        return 1

    errors = list(failures)
    by_key = {}
    for r in plain + traced:
        by_key.setdefault(r["key"], []).append(r)
    digests, values = {}, {}
    for key, records in sorted(by_key.items()):
        digests[key] = values[f"digest.{key}"] = agree(records, "digest", errors)
        values[f"cli.bytes_written.{key}"] = agree(records, "bytes_written", errors)
    if args.trace:
        metrics = per_layer(runner, plain, traced, errors)
        values.update({k: metrics[k] for k in EXACT_COUNTS if k != "cli.bytes_written"})
        units = LAYER_UNITS
    else:
        metrics = end_to_end(runner, plain)
        units = END_TO_END_UNITS
    src = source_digest()
    errors += Registry(f"{src}/{args.workload}").check_and_record(values)
    env["loadavg_after"] = os.getloadavg()

    for key, value in env.items():
        print(f"env.{key} = {value}")
    print(f"source.sha256 = {src}")
    for key, digest in digests.items():
        cli_seed, variant = key.split(".")
        setting = runner.workload.variants[int(variant)].strip().split("\n")[-1]
        print(f"run_dir.sha256 --seed {cli_seed} ({setting or 'no variant'}) = {digest}")
    print(f"operations = {len(plain)} untraced, {len(traced)} traced, {failed} failed "
          f"of {attempted} (fail_ratio = {failed / attempted})")
    print(f"samples import_s = {runner.import_samples}")
    print(f"samples wall_s = {[r['wall_s'] for r in plain]} untraced, "
          f"{[r['wall_s'] for r in traced]} traced")
    print(f"samples cpu_s = {[r['cpu_s'] for r in plain]} untraced")
    print(f"samples ref_s = {[r['ref_s'] for r in plain]} untraced")
    print(f"wall_s = {statistics.median(r['wall_s'] for r in plain)} s untraced")
    if args.trace:
        for key, value in end_to_end(runner, plain).items():
            print(f"untraced {key} = {value} {END_TO_END_UNITS[key]}")
    for key, value in metrics.items():
        print(f"{key} = {value} {units[key]}")
    for e in errors:
        print(f"check failed: {e}")
    record = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
