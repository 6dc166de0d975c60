"""Run a parent-versus-change benchmark protocol and summarise it as ``BENCH_<pr>.json``.

Run from the repository root, with the two checkouts side by side:

    python3 tools/bench_record.py --pr N --roots ../parent ../change \\
        --pairs 10 --case hier-fit:7 --case hier-fit:23 --pytest-log tier1.log

This runs ``perfbench/run.py --trace 0`` in each root for the
``run_seconds`` that ``BENCHMARK.json`` sets; pair i (counting from 1)
runs every case, the parent first when i is odd and the change first
when i is even.

``BENCH_N.json`` is written in the working directory.  For
each end-to-end metric that ``BENCHMARK.json`` declares, it holds each
side's median and quartiles and the number of pairs the change won (ties
count for neither).  It also holds each side's commit, source digest,
versions and processor count, read from the records' ``env``, and from
the pytest log the Tier-1 counts, time and five slowest tests.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("git_sha", "src_sha256", "python", "numpy", "scipy", "nproc")


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run ``perfbench/run.py --trace 0`` once in the checkout ``root``; the run's record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with subprocess.Popen(argv, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
        _, err = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
        raise SystemExit(f"bench_record: {workload} seed {seed} in {root} exited {proc.returncode}")
    # run.py names its record after the workload, the seed and its own pid
    record = root / "perfbench" / "_work" / f"{workload}-seed{seed}-pid{proc.pid}-trace0.json"
    return json.loads(record.read_text(encoding="utf-8"))


def run_pairs(roots: tuple[Path, Path], cases: list[tuple[str, int]], pairs: int, seconds: float,
              run=None) -> tuple[dict, dict]:
    """Run ``pairs`` alternating pairs of every (workload, seed) case.

    ``roots`` is (parent, change).  Pair i, counting from 1, runs each case
    on the parent first when i is odd and on the change first when i is
    even.  ``run`` (default ``run_benchmark``) makes one run of ``seconds``
    and returns its record.  Returns each side's records by case, in pair order.
    """
    run = run or run_benchmark
    sides: tuple[dict, dict] = ({}, {})
    for i in range(1, pairs + 1):
        order = (0, 1) if i % 2 else (1, 0)
        for workload, seed in cases:
            for side in order:
                record = run(roots[side], workload, seed, seconds)
                sides[side].setdefault((workload, seed), []).append(record)
                cpu = record["metrics"]["cpu_s"]["value"]
                print(f"bench_record: pair {i}/{pairs} {workload} seed {seed} "
                      f"{('parent', 'change')[side]}: cpu_s {cpu:.3f}", file=sys.stderr)
    return sides


def side_env(records: list[dict]) -> dict:
    """The environment every record of one side shares."""
    env = {key: records[0]["env"].get(key) for key in ENV_KEYS}
    for record in records[1:]:
        for key in ENV_KEYS:
            if record["env"].get(key) != env[key]:
                raise SystemExit(f"bench_record: records disagree on {key}: {env[key]!r} and "
                                 f"{record['env'].get(key)!r}")
    return env


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: the quartiles lie within the runs)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": summary(p), "change": summary(c),
            "change_wins": sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c)),
        }
    return out


def failures(records: list[dict]) -> dict:
    invocations = [i for r in records for i in r["invocations"]]
    return {"attempted": len(invocations), "failed": sum(bool(i["problems"]) for i in invocations)}


def read_pytest_log(text: str) -> dict:
    """Outcome counts, wall time and the slowest tests of one pytest run."""
    summaries = re.findall(r"^=*\s*((?:\d+ \w+(?:, )?)+) in ([0-9.]+)s", text, re.M)
    if not summaries:
        raise SystemExit("bench_record: no pytest summary line in the log")
    counts, seconds = summaries[-1]
    slowest = re.findall(r"^([0-9.]+)s (?:call|setup|teardown)\s+(\S.*?)\s*$", text, re.M)
    return {
        "counts": {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", counts)},
        "seconds": float(seconds),
        "slowest": [{"test": test, "seconds": float(s)} for s, test in slowest[:5]],
    }


def parse_case(text: str) -> tuple[str, int]:
    workload, _, seed = text.rpartition(":")
    if not workload or not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--pytest-log", type=Path, required=True, help="saved output of the Tier-1 run")
    parser.add_argument("--roots", type=Path, nargs=2, required=True, metavar=("PARENT", "CHANGE"),
                        help="run the pairs in these two checkouts")
    parser.add_argument("--case", type=parse_case, action="append", metavar="WORKLOAD:SEED",
                        help="a workload and seed to run in every pair; repeatable")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs")
    args = parser.parse_args(argv)
    if not args.case:
        parser.error("--roots needs at least one --case")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # read before any run, so a bad log fails at once
    tier1 = read_pytest_log(args.pytest_log.read_text(encoding="utf-8", errors="replace"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    roots = tuple(root.resolve() for root in args.roots)
    parent, change = run_pairs(roots, args.case, args.pairs, benchmark["run_seconds"])
    workloads = []
    for key in sorted(parent):
        p, c = parent[key], change[key]
        workloads.append({
            "workload": key[0], "seed": key[1], "pairs": len(p),
            "parent_runs": failures(p), "change_runs": failures(c),
            "metrics": compare(p, c, metrics),
        })
    bench = {
        "pr": args.pr,
        "parent": side_env([r for runs in parent.values() for r in runs]),
        "change": side_env([r for runs in change.values() for r in runs]),
        "workloads": workloads,
        "tier1": tier1,
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
