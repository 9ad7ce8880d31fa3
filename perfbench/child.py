"""One benchmark operation, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds: mode ("import" times `import dtmv.cli` only; "run" also
times `dtmv.cli.main(argv)`; "trace" does so under the span tracer),
workload, argv, seed (its --seed), rows (report rows an operation writes),
reference (the reference loop that brackets `main`), out (the run
directory), src (where dtmv must come from), result (where this script
writes its JSON record) and spans (where the traced run writes its spans).

The import is timed before anything else is imported, so set-up time is what
a user of the command pays.  The pure-Python reference loop is timed right
before the import, and the workload's reference loop right before and right
after `main`.  Output checks, digests and span reduction
happen after the timed call.
"""

import time

from reference import time_reference

IMPORT_REF_S = time_reference()
_t0 = time.perf_counter()
import dtmv.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_dir_digest(out: str) -> tuple:
    """(SHA-256 over every file name and content of the run directory, bytes)."""
    h = hashlib.sha256()
    size = 0
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for fname in sorted(files):
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, out).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            size += len(data)
    return h.hexdigest(), size


def check_report(path: str, rows: int, n: int, seed: int) -> list:
    """Row count, per-row n and seed, finite statistics, sharpe * std == mean."""
    with open(path, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    errors = []
    if len(body) != rows:
        errors.append(f"report.csv has {len(body)} rows, want {rows}")
    for i, rec in enumerate(body, start=1):
        mean, std, sharpe = (float(v) for v in rec[3:6])
        if int(rec[6]) != n or int(rec[2]) != seed:
            errors.append(f"report row {i}: n={rec[6]} seed={rec[2]}, want {n} and {seed}")
        if not all(math.isfinite(v) for v in (mean, std, sharpe)):
            errors.append(f"report row {i}: non-finite statistic")
        elif abs(sharpe * std - mean) > 1e-12:
            errors.append(f"report row {i}: |sharpe*std - mean| = {abs(sharpe * std - mean):.3e}")
    return errors


def check_study(out: str, seed: int, rows: int) -> list:
    return check_report(os.path.join(out, "report.csv"), rows=rows, n=2000, seed=seed)


def check_backtest(out: str, seed: int, rows: int) -> list:
    return check_report(os.path.join(out, "report.csv"), rows=rows, n=40, seed=seed)


def check_train(out: str, seed: int, rows: int) -> list:
    from dtmv.learner import load_checkpoint, save_checkpoint

    errors = check_report(os.path.join(out, "report.csv"), rows=rows, n=2000, seed=seed)
    with open(os.path.join(out, "log.ndjson")) as fh:
        records = [json.loads(line) for line in fh]
    if [r["episode"] for r in records] != list(range(1, 15001)):
        errors.append(f"log.ndjson holds {len(records)} records, want episodes 1..15000")
    ckpt = os.path.join(out, "checkpoint")
    algorithm, params, rng = load_checkpoint(ckpt)
    again = out + ".checkpoint"
    save_checkpoint(again, algorithm, params, rng)
    with open(ckpt, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            errors.append("checkpoint does not round-trip through load_checkpoint")
    os.remove(again)
    if records and any(params[k] != records[-1][k] for k in params):
        errors.append("checkpoint parameters differ from the last log record")
    return errors


def check_oracle(out: str, seed: int, rows: int) -> list:
    errors = []
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    err = float(summary["max_rel_error"])
    if not err <= 1e-6:
        errors.append(f"max_rel_error {err!r} > 1e-6")
    with open(os.path.join(out, "report.csv")) as fh:
        table = sum(1 for _ in fh) - 1
    if table != rows:
        errors.append(f"report.csv has {table} rows, want {rows}")
    return errors


CHECKS = {
    "study-skewt": check_study,
    "backtest-hist": check_backtest,
    "train-normal": check_train,
    "oracle-fine": check_oracle,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"import_s": IMPORT_S, "import_ref_s": IMPORT_REF_S, "seed": spec["seed"]}
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(dtmv.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: dtmv was imported from {dtmv.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if spec["mode"] != "import":
        tracer = None
        if spec["mode"] == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        ref_before = time_reference(spec["reference"])
        t0, c0 = time.perf_counter(), time.process_time()
        code = dtmv.cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["ref_s"] = (ref_before + time_reference(spec["reference"])) / 2
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["exit"] = code
        if code == 0:
            result["errors"] = CHECKS[spec["workload"]](spec["out"], spec["seed"], spec["rows"])
            result["digest"], result["bytes_written"] = run_dir_digest(spec["out"])
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["cell_train_s"] = tracer.cell_train_s()
            tracer.save(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
