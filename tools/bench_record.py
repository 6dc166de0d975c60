"""Summarise a parent-versus-change benchmark protocol as ``BENCH_<pr>.json``.

Run from the repository root, after running ``perfbench/run.py --trace 0``
in alternating pairs from two checkouts (parent first, then change, then
change first, and so on) and saving the Tier-1 pytest output:

    python3 tools/bench_record.py --pr N \\
        --parent ../parent/perfbench/_work --change ../change/perfbench/_work \\
        --pytest-log tier1.log

writes ``BENCH_N.json`` in the working directory.  Every
``*-trace0.json`` record in each directory is read.  Records are grouped
by workload and seed; within a group the i-th parent record and the i-th
change record, in the order the runs finished, form pair i, so both
sides need the same number of runs.  For each end-to-end metric that
``BENCHMARK.json`` declares, the file holds each side's median and
quartiles and the number of pairs the change won (ties count for
neither).  It also holds each side's commit, source digest, versions and
processor count, read from the records' ``env``, and from the pytest log
the Tier-1 counts, time and five slowest tests.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("git_sha", "src_sha256", "python", "numpy", "scipy", "nproc")


def read_records(work: Path) -> dict[tuple[str, int], list[dict]]:
    """The directory's untraced records by (workload, seed), oldest first."""
    paths = sorted(work.glob("*-trace0.json"), key=lambda p: (p.stat().st_mtime_ns, p.name))
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((record["workload"], record["seed"]), []).append(record)
    return groups


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", type=Path, required=True, help="perfbench/_work of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="perfbench/_work of the change checkout")
    parser.add_argument("--pytest-log", type=Path, required=True, help="saved output of the Tier-1 run")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent, change = read_records(args.parent), read_records(args.change)
    if not parent or set(parent) != set(change):
        raise SystemExit(f"bench_record: parent runs {sorted(parent)} and change runs {sorted(change)} "
                         "cover different workloads or seeds")
    workloads = []
    for key in sorted(parent):
        p, c = parent[key], change[key]
        if len(p) != len(c):
            raise SystemExit(f"bench_record: {key[0]} seed {key[1]}: {len(p)} parent runs, {len(c)} change runs")
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
        "tier1": read_pytest_log(args.pytest_log.read_text(encoding="utf-8", errors="replace")),
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
