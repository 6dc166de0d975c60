"""cvcompare benchmark: seeded CLI workloads, measured end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload generates one score table from ``--seed`` and runs a fixed
list of ``cvcompare`` invocations on it, as a user would: a fresh
interpreter per invocation, default flags, the library taken from ``src/``.
The invocations run one after another from this process (a closed loop
with one client).  Every invocation's outputs are checked against
references computed by the benchmark itself (``checks.py``).

``--trace 0`` repeats the workload's invocations ("passes") as often as
they fit in ``--seconds`` seconds (at least once) and prints the end-to-end
metrics, medians over the passes; ``setup_s`` is the median of several
fresh imports.  ``--trace 1`` runs one untraced pass and one pass under
``traced.py``, which wraps each module's public functions, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced wall
time).  The last line of standard output is the JSON result; a record of
the run (environment, every invocation, the spans) goes to
``perfbench/_work/``.  Without ``src/cvcompare`` the benchmark exits 2
without a result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
import gen

HERE = Path(__file__).resolve().parent
TRACED = HERE / "traced.py"
# what the ``cvcompare`` console script runs
ENTRY = "import sys; from cvcompare.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
# every run ends well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    table: Callable[[int], gen.Table]
    invocations: tuple[tuple[str, ...], ...]


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "dp-all-pairs": Workload(gen.dp_table, (
        ("signed-rank", "--all-pairs"),
        ("sign", "--all-pairs"),
    )),
    "hier-fit": Workload(gen.hier_table, (
        ("hierarchical", "--pair", "base", "twin"),
        ("hierarchical", "--pair", "base", "shifted"),
    )),
    "wide-table": Workload(gen.wide_table, (
        ("wilcoxon", "--all-pairs"),
        ("bayes-ttest", "--pair", "clf00", "clf01"),
    )),
}
SEEDED = {"signed-rank", "sign", "hierarchical"}
# exit 2 means "hierarchical fit not converged": outputs are written and valid
ALLOWED_EXIT = {"hierarchical": {0, 2}}

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB", "setup_s": "s",
}
LAYER_SPANS = (
    "data.parse_scores", "data.paired_differences", "data.mean_differences",
    "hierarchical.fit", "hierarchical.next_dataset_probs", "hierarchical.to_csv",
    "dp.signed_rank_samples", "dp.sign_test_samples", "dp.simplex_region_probs",
    "report.barycentric_points", "report.barycentric_csv", "report.density_data",
    "report.histogram_csv", "report.dump_json",
    "bayes_ttest.posterior", "bayes_ttest.rope_probs", "bayes_ttest.hdis",
    "frequentist.wilcoxon_signed_rank",
)
HOT_KERNELS = ("kernels.gamma_logpdf", "kernels.student_logpdf", "kernels.cs_loglik")
DECIDE = ("decisions.threshold_decision", "decisions.loss_decision")
LAYERS = ("data", "kernels", "bayes_ttest", "frequentist", "dp", "hierarchical", "decisions", "report")
COUNT_METRICS = (
    "data.rows", "dp.draws", "hierarchical.fit.sweeps",
    "hierarchical.to_csv.bytes", "report.barycentric_csv.bytes",
)


@dataclass
class Invocation:
    args: tuple[str, ...]
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    files: int
    bytes: int
    problems: list[str] = field(default_factory=list)
    ess: float | None = None          # min ESS over mu0, sigma0, nu (hierarchical)
    diagnostics: dict | None = None   # benchmark-computed ESS / R-hat summary
    spans: dict | None = None         # traced runs only
    start: float = 0.0
    end: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.work = HERE / "_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        # users run with the bytecode cache that installing writes
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.table = self.workload.table(seed)
        self.input = self.work / "scores.csv"
        self.input.write_text(self.table.to_csv(), encoding="utf-8")
        self.count = 0

    def _spawn(self, argv: list[str]) -> tuple[int, float, float, float, float, float]:
        """Run a child to completion; exit code, wall, cpu, peak RSS and its span."""
        log = self.work / f"child{self.count}.log"
        self.count += 1
        with log.open("wb") as fh:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh, stderr=fh)
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage (RUSAGE_CHILDREN would
                # report the maximum RSS over every child so far)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 2):
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, end - start, cpu, usage.ru_maxrss / 1024.0, start, end

    def setup_seconds(self) -> float:
        """Median time for a fresh interpreter to import the CLI module."""
        argv = [sys.executable, "-c", "import cvcompare.cli"]
        self._spawn(argv)  # warm the bytecode cache, which users have warm too
        times = []
        for _ in range(SETUP_REPEATS):
            code, wall, *_ = self._spawn(argv)
            if code != 0:
                raise SystemExit("cannot import cvcompare from src/")
            times.append(wall)
        return statistics.median(times)

    def invoke(self, args: tuple[str, ...], traced: bool, diagnose: bool) -> Invocation:
        out = self.work / f"out{self.count}"
        spans_path = self.work / f"spans{self.count}.json"
        cli_args = list(args) + ["--input", str(self.input), "--output-dir", str(out)]
        if args[0] in SEEDED:
            cli_args += ["--seed", str(self.seed)]
        prog = [sys.executable, str(TRACED), str(spans_path)] if traced else [sys.executable, "-c", ENTRY]
        code, wall, cpu, rss, start, end = self._spawn(prog + cli_args)
        files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
        inv = Invocation(
            args=args, exit_code=code, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss,
            files=len(files), bytes=sum(p.stat().st_size for p in files), start=start, end=end,
        )
        if code not in ALLOWED_EXIT.get(args[0], {0}):
            inv.problems.append(f"exit code {code}")
        else:
            try:
                inv.problems += checks.CHECKS[args[0]](out, self.table)
                if args[0] == "hierarchical":
                    self._check_fit(inv, out, diagnose)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                inv.problems.append(f"unreadable output: {exc!r}")
        if traced and spans_path.is_file():
            inv.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        elif traced:
            inv.problems.append("traced run wrote no spans")
        shutil.rmtree(out, ignore_errors=True)
        return inv

    def _check_fit(self, inv: Invocation, out: Path, diagnose: bool) -> None:
        converged = checks.read_report(out)["results"][0]["diagnostics"]["converged"]
        if converged != (inv.exit_code == 0):
            inv.problems.append(f"exit code {inv.exit_code} but converged={converged}")
        draws = list(out.glob("draws_*.csv"))
        if not diagnose or len(draws) != 1:
            return
        names, x = checks.read_draws(draws[0])
        ess = checks.ess(x)
        rhat = checks.split_rhat(x)
        inv.ess = float(min(ess[names.index(p)] for p in ("mu0", "sigma0", "nu")))
        inv.diagnostics = {
            "min_ess": float(ess.min()), "mu0_ess": float(ess[names.index("mu0")]),
            "max_rhat": float(rhat.max()),
        }

    def run_pass(self, traced: bool = False, diagnose: bool = False) -> list[Invocation]:
        return [self.invoke(args, traced, diagnose) for args in self.workload.invocations]


def _pass_metrics(invs: list[Invocation]) -> dict[str, float]:
    return {
        "wall_s": sum(i.wall_s for i in invs),
        "cpu_s": sum(i.cpu_s for i in invs),
        "peak_rss_mb": max(i.peak_rss_mb for i in invs),
        "output_mb": sum(i.bytes for i in invs) / 1e6,
    }


def end_to_end(bench: Bench, seconds: float, setup_s: float) -> tuple[dict, list]:
    passes: list[list[Invocation]] = []
    start = time.monotonic()
    while True:
        passes.append(bench.run_pass())
        now = time.monotonic()
        mean = (now - start) / len(passes)
        # start another pass only if it is expected to end within the budget
        if now - start + mean > seconds or now + mean > bench.deadline:
            break
    per_pass = [_pass_metrics(p) for p in passes]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["setup_s"] = setup_s
    return metrics, passes


def _trace_metrics(untraced: list[Invocation], traced: list[Invocation]) -> tuple[dict, list[str]]:
    m: dict[str, float] = {}
    problems: list[str] = []
    spans = [s for inv in traced if inv.spans for s in inv.spans["spans"]]
    aggregates: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for inv in traced:
        if not inv.spans:
            continue
        for name, (calls, total, own) in inv.spans["aggregates"].items():
            agg = aggregates.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for name, value in inv.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def span_total(name):
        chosen = [s for s in spans if s[0] == name]
        return sum(s[2] - s[1] for s in chosen), len(chosen)

    for name in LAYER_SPANS:
        m[f"{name}.s"], m[f"{name}.calls"] = span_total(name)
    for name in HOT_KERNELS:
        calls, total, _ = aggregates.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"], m[f"{name}.s"] = calls, total
    m["decisions.decide.s"] = sum(span_total(n)[0] for n in DECIDE)
    m["decisions.decide.calls"] = sum(span_total(n)[1] for n in DECIDE)
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    for layer in LAYERS:
        own = sum(s[4] for s in spans if s[0].split(".")[0] == layer)
        own += sum(a[2] for n, a in aggregates.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = own
    m["cli.run.self_s"] = sum(s[4] for s in spans if s[0] == "cli.run")
    m["cli.files_written"] = sum(i.files for i in traced)
    m["cli.bytes_written"] = sum(i.bytes for i in traced)

    fits = [i for i in untraced if i.diagnostics]
    m["hierarchical.min_ess"] = min((i.diagnostics["min_ess"] for i in fits), default=0.0)
    m["hierarchical.mu0_ess"] = min((i.diagnostics["mu0_ess"] for i in fits), default=0.0)
    m["hierarchical.max_rhat"] = max((i.diagnostics["max_rhat"] for i in fits), default=0.0)

    run_s = sum(s[2] - s[1] for s in spans if s[0] == "cli.run")
    own_s = sum(s[4] for s in spans) + sum(a[2] for a in aggregates.values())
    if abs(run_s - own_s) > 1e-3:
        problems.append(f"self times sum to {own_s:.6f} s, cli.run spans to {run_s:.6f} s")
    m["trace.wall_s"] = sum(i.wall_s for i in traced)
    m["trace.startup_s"] = m["trace.wall_s"] - run_s
    m["trace.untraced_wall_s"] = sum(i.wall_s for i in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]

    # whole-workload figures of the untraced pass
    wall = m["trace.untraced_wall_s"]
    m["draws_per_s"] = m["dp.draws"] / wall
    hier = [i for i in untraced if i.args[0] == "hierarchical"]
    m["ess_per_s"] = min((i.ess / i.wall_s for i in hier if i.ess is not None), default=0.0)
    m["unconverged_frac"] = sum(i.exit_code == 2 for i in hier) / len(hier) if hier else 0.0
    everything = untraced + traced
    m["fail_frac"] = sum(i.failed for i in everything) / len(everything)
    return m, problems


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exposes one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment(root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cvcompare").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    began = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "cvcompare" / "cli.py").is_file():
        print("perfbench: run from a checkout holding src/cvcompare", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, began + RUN_DEADLINE_S)
    try:
        record, result = measure(bench, args)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    record["run_s"] = time.monotonic() - began
    (HERE / "_work" / f"{bench.work.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(f"perfbench: env {json.dumps(record['env'])}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def measure(bench: Bench, args) -> tuple[dict, dict]:
    """Run the workload; returns the run record and the result object."""
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "rows": bench.table.rows,
              "datasets": len(bench.table.datasets),
              "classifiers": len(bench.table.classifiers), "env": environment(bench.root)}
    problems: list[str] = []
    if args.trace:
        untraced = bench.run_pass(diagnose=True)
        traced = bench.run_pass(traced=True)
        invocations = untraced + traced
        values, problems = _trace_metrics(untraced, traced)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        record["spans"] = [{"trace_id": n, "args": i.args, "start": i.start, "end": i.end, **i.spans}
                           for n, i in enumerate(traced) if i.spans]
    else:
        setup_s = bench.setup_seconds()
        values, passes = end_to_end(bench, args.seconds, setup_s)
        invocations = [i for p in passes for i in p]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["passes"] = len(passes)

    failed = sum(i.failed for i in invocations)
    for inv in invocations:
        for problem in inv.problems:
            print(f"perfbench: {' '.join(inv.args)}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: trace: {problem}", file=sys.stderr)
    record["invocations"] = [
        {k: v for k, v in vars(i).items() if k != "spans"} for i in invocations
    ]
    record["metrics"] = metrics
    result = {"correct": failed == 0 and not problems, "attempted": len(invocations),
              "failed": failed, "metrics": metrics}
    return record, result


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    if name.endswith(("_frac", "rhat")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
