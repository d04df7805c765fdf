"""Compare two commits on the benchmark, or summarize one set of runs.

Usage::

    python3 bench/compare.py PARENT CHANGE
    python3 bench/compare.py --summary RUNS.jsonl [RUNS.jsonl ...]

PARENT and CHANGE are either two checkout roots or two results files
from an earlier comparison. Given roots, the script runs this copy of
``bench/run.py`` in each, so both sides use identical benchmark code.
It measures every workload of ``BENCHMARK.json`` in 10 pairs. Pair
``i`` uses seed ``i`` on both sides, and the side that runs first
alternates from pair to pair. Two traced pairs follow, which give the
per-layer metrics. Each run is appended as one JSON line (``workload``,
``seed``, ``trace``, ``result``) to ``parent.jsonl`` and
``change.jsonl`` under ``--out``.

The verdict per (workload, end-to-end metric) follows the rules of the
benchmark (bounds come from ``BENCHMARK.json``):

* ``gain``: the change wins at least 9 of every 10 pairs, ties counting
  for neither, and its median differs from the parent's by more than
  the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound, or more operations failed;
* ``unresolved``: the parent's spread (IQR over median) exceeds the
  bound, unless every change run is better than every parent run;
* ``unchanged`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402  (bench-local module)

PAIRS = 10
#: Traced pairs recorded after the timed ones, for the per-layer metrics.
TRACED_PAIRS = 2


def load_config() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))


def load_runs(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: int = 0) -> dict:
    """One benchmark run in ``root``; its record (result None if the
    run printed no result)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "result": result}


def measure_pairs(parent: Path, change: Path, workloads, seconds: float,
                  out: Path) -> tuple[list, list]:
    out.mkdir(parents=True, exist_ok=True)
    runs = {"parent": [], "change": []}
    roots = {"parent": parent, "change": change}
    schedule = [(seed, 0) for seed in range(PAIRS)] \
        + [(seed, 1) for seed in range(TRACED_PAIRS)]
    for i, (seed, trace) in enumerate(schedule):
        sides = ("parent", "change") if i % 2 == 0 \
            else ("change", "parent")
        for workload in workloads:
            for side in sides:
                record = measure(roots[side], workload, seed, seconds,
                                 trace)
                runs[side].append(record)
                with open(out / f"{side}.jsonl", "a",
                          encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
                print(f"pair {i} {workload} {side} trace {trace}: "
                      f"rc {record['returncode']}", file=sys.stderr)
    return runs["parent"], runs["change"]


def values(runs, workload: str, metric: str) -> list[float]:
    """The metric's value per run of one workload, in seed order."""
    ordered = sorted((r for r in runs if r["workload"] == workload
                      and r["result"] and not r.get("trace")),
                     key=lambda r: r["seed"])
    return [r["result"]["metrics"][metric]["value"] for r in ordered
            if metric in r["result"]["metrics"]]


def fail_ratio(runs, workload: str) -> float:
    attempted = failed = 0
    for run in runs:
        if run["workload"] != workload or run.get("trace"):
            continue
        if run["result"] is None:
            attempted += 1
            failed += 1
            continue
        attempted += run["result"]["attempted"]
        failed += run["result"]["failed"]
    return failed / attempted if attempted else 0.0


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> dict:
    """Apply the comparison rules to paired runs of one metric."""
    sign = 1.0 if lower_is_better else -1.0
    q1, p_median, q3 = spread_of = spans.quartiles(parent)
    c_median = statistics.median(change)
    worse = sign * (c_median - p_median) / p_median
    spread = (q3 - q1) / p_median
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if wins >= 0.9 * pairs and worse < 0 \
            and abs(c_median - p_median) > q3 - q1:
        label = "gain"
    elif worse > bound:
        label = "regression"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": spread_of, "change": c_median, "worse": worse,
            "spread": spread, "wins": wins, "pairs": pairs,
            "verdict": label}


def compare(parent_runs, change_runs, config: dict) -> tuple[list, bool]:
    """Rows of the comparison; False when a workload has too few pairs."""
    rows = []
    enough = True
    workloads = [w["name"] for w in config["workloads"]
                 if any(r["workload"] == w["name"] for r in parent_runs)]
    for workload in workloads:
        for metric in config["end_to_end"]:
            parent = values(parent_runs, workload, metric["name"])
            change = values(change_runs, workload, metric["name"])
            if min(len(parent), len(change)) < PAIRS:
                enough = False
                rows.append((workload, metric["name"], None))
                continue
            rows.append((workload, metric["name"], verdict(
                parent, change, metric["bound"],
                metric["better"] == "lower")))
        before = fail_ratio(parent_runs, workload)
        after = fail_ratio(change_runs, workload)
        rows.append((workload, "fail_ratio", {
            "parent": (before, before, before), "change": after,
            "worse": after - before, "spread": 0.0, "wins": 0,
            "pairs": 0,
            "verdict": "regression" if after > before else "unchanged"}))
    return rows, enough


def render(rows, config: dict) -> str:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    lines = [f"{'workload':<8} {'metric':<12} {'parent median [q1, q3]':>32}"
             f" {'change':>11} {'worse':>8} {'spread':>7} {'bound':>6}"
             f" {'wins':>6}  verdict"]
    for workload, metric, row in rows:
        if row is None:
            lines.append(f"{workload:<8} {metric:<12} fewer than "
                         f"{PAIRS} pairs: no verdict")
            continue
        q1, median, q3 = row["parent"]
        lines.append(
            f"{workload:<8} {metric:<12} "
            f"{median:>12.4g} [{q1:.4g}, {q3:.4g}]".ljust(55)
            + f" {row['change']:>11.4g} {100 * row['worse']:>7.1f}%"
            f" {100 * row['spread']:>6.1f}%"
            f" {100 * bounds.get(metric, 0.0):>5.0f}%"
            f" {row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return "\n".join(lines)


def summary(runs) -> dict:
    """Median, quartiles, spread (IQR over median) and n of every
    metric, per workload; traced runs give the per-layer metrics.
    Recorded with the host it ran on."""
    out: dict = {}
    for run in runs:
        if not run["result"]:
            continue
        table = out.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            entry = table.setdefault(name, {"unit": metric["unit"],
                                            "values": []})
            entry["values"].append(metric["value"])
    for table in out.values():
        for entry in table.values():
            values = entry.pop("values")
            q1, median, q3 = spans.quartiles(values)
            entry.update(median=median, q1=q1, q3=q3, n=len(values),
                         spread=(q3 - q1) / abs(median) if median else 0.0)
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    mem_total = None
    if os.path.exists("/proc/meminfo"):
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    return {"host": {"nproc": os.cpu_count(), "mem_total": mem_total,
                     "python": platform.python_version(),
                     "numpy": numpy_version, "commit": commit},
            "workloads": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--summary", nargs="+", metavar="RUNS",
                        help="print median, quartiles and n per metric")
    parser.add_argument("--out", default=".bench_tmp/compare",
                        help="where measured runs are recorded")
    args = parser.parse_args(argv)
    if args.summary:
        runs = [run for path in args.summary for run in load_runs(path)]
        print(json.dumps(summary(runs), indent=2, sort_keys=True))
        return 0
    if not (args.parent and args.change):
        parser.error("name PARENT and CHANGE, or pass --summary")
    config = load_config()
    if Path(args.parent).is_dir() and Path(args.change).is_dir():
        parent_runs, change_runs = measure_pairs(
            Path(args.parent).resolve(), Path(args.change).resolve(),
            [w["name"] for w in config["workloads"]],
            config["run_seconds"], Path(args.out))
    else:
        parent_runs = load_runs(args.parent)
        change_runs = load_runs(args.change)
    rows, enough = compare(parent_runs, change_runs, config)
    print(render(rows, config))
    return 0 if enough else 1


if __name__ == "__main__":
    raise SystemExit(main())
