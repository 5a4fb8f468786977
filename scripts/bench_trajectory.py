"""Record one point of vacantlab's performance trajectory: BENCH_<short-rev>.json.

    python3 scripts/bench_trajectory.py [--tier1] [--pairs N] [CHECKOUT_OR_REV ...]

Each argument is a git checkout directory or a revision of this repository;
a revision is cloned into a temporary directory and measured there. With no
argument the repository holding this script is measured. With several, the
measurements alternate between them (every workload runs once per checkout,
the order flipping from one workload to the next and from one repetition to
the next), so a parent and a change measured together share the machine's
drift. ``--pairs N`` repeats that loop over the workloads N times (default
1), which gives N parent/change pairs of every workload.

Per checkout the file records:

- per workload, the info and result lines of every ``perfbench/run.py
  --trace 0`` run (end-to-end metrics, run length from ``BENCHMARK.json``),
  and each metric's median and quartiles over the successful runs;
- the wall time and peak RSS of ``import vacantlab`` in a fresh interpreter,
  median over several runs, alternating between the checkouts;
- with ``--tier1``, the wall time, exit code and summary line of the Tier-1
  suite, and its ``--durations`` report of the slowest tests;
- the size of ``src/vacantlab/*.py``: its line count (as ``wc -l``) and,
  read with ``ast``, its parameter count (positional, positional-only and
  keyword-only parameters of every ``def`` and ``lambda``) and how many of
  those parameters have a default.

The files are written to the root of the repository holding this script.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ["solve", "simulate", "size-check", "hitting"]
SEED = 1
IMPORT_RUNS = 9
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import vacantlab; "
               "print(time.perf_counter() - t0)")


def git(cwd: Path, *args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(cwd.parent))
    return subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def checkout(arg: str, tmp: Path) -> Path:
    """A directory argument as it is; a revision cloned and checked out."""
    if Path(arg).is_dir():
        return Path(arg).resolve()
    dest = Path(tempfile.mkdtemp(dir=tmp))
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(REPO), str(dest)], check=True)
    git(dest, "checkout", "--quiet", git(REPO, "rev-parse", "--verify", f"{arg}^{{commit}}"))
    return dest


def env_for(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def import_once(root: Path, tmp: Path) -> tuple[float, float]:
    """Seconds and peak RSS (MB) of ``import vacantlab`` in a fresh
    interpreter, run from an empty directory."""
    proc = subprocess.Popen([sys.executable, "-c", IMPORT_CODE], cwd=tmp, env=env_for(root),
                            stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"import vacantlab failed in {root}")
    return float(out), usage.ru_maxrss / 1024.0


def import_times(roots: list[Path], tmp: Path) -> list[dict]:
    """Median ``import vacantlab`` time and peak RSS per checkout, the runs
    alternating between the checkouts (the order flipping every round) so
    that they share the machine's drift; each checkout's first run is not
    counted. That run writes ``.pyc`` files only where
    PYTHONDONTWRITEBYTECODE is unset, which the environment passes on to
    every run: where it is set, no run writes bytecode and every counted
    run compiles the package."""
    runs = [[] for _ in roots]
    order = list(enumerate(roots))
    for i in range(IMPORT_RUNS + 1):
        for j, root in (order if i % 2 == 0 else order[::-1]):
            sample = import_once(root, tmp)
            if i > 0:
                runs[j].append(sample)
    return [{"median_s": statistics.median(s for s, _ in r),
             "peak_rss_mb": statistics.median(m for _, m in r), "runs": len(r)} for r in runs]


def src_counts(root: Path) -> dict:
    """Lines, parameters and defaulted parameters of ``src/vacantlab/*.py``."""
    lines = params = defaulted = 0
    for path in sorted((root / "src" / "vacantlab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params += len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                defaulted += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return {"lines": lines, "params": params, "defaulted": defaulted}


def perfbench(root: Path, workload: str) -> dict:
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        return {"exit_code": res.returncode, "stderr": res.stderr.strip().splitlines()[-3:]}
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summary(runs: list[dict]) -> dict:
    """Median, quartiles and count of each end-to-end metric over the runs
    that produced a result."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run.get("result", {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(xs)}
    return out


def durations(lines: list[str]) -> list[str]:
    """The lines of pytest's ``slowest N durations`` section, one per test
    phase, such as ``23.91s call     tests/test_acceptance.py::test_04...``."""
    for i, line in enumerate(lines):
        if line.startswith("=") and "slowest" in line and "durations" in line:
            section = []
            for entry in lines[i + 1:]:
                if not entry.strip() or entry.startswith("="):
                    break
                section.append(entry)
            return section
    return []


def tier1(root: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=15"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=root, env=env_for(root), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": res.returncode, "summary": lines[-1] if lines else "",
            "durations": durations(lines)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="*", default=[str(REPO)],
                   help="checkout directories or git revisions (default: this repository)")
    p.add_argument("--tier1", action="store_true", help="also time the Tier-1 test suite")
    p.add_argument("--pairs", type=int, default=1,
                   help="repetitions of the alternating workload loop (default 1)")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be positive")

    tmp = Path(tempfile.mkdtemp(prefix="bench_trajectory_"))
    try:
        roots = [checkout(a, tmp) for a in args.checkouts]
        points = []
        for root in roots:
            rev = git(root, "rev-parse", "HEAD")
            dirty = git(root, "status", "--porcelain", "--untracked-files=no",
                        "--", "src", "tests", "perfbench") != ""
            points.append({"git_rev": rev, "dirty": dirty, "src": src_counts(root),
                           "workloads": {w: {"runs": []} for w in WORKLOADS}})
        measured_with = [pt["git_rev"] for pt in points]

        def alternating(i: int):
            order = list(zip(roots, points))
            return order if i % 2 == 0 else order[::-1]

        for pt, imported in zip(points, import_times(roots, tmp)):
            pt["import_vacantlab"] = imported
        for k in range(args.pairs):
            for i, workload in enumerate(WORKLOADS):
                for root, pt in alternating(i + 1 + k):
                    print(f"{pt['git_rev'][:7]} {workload} {k + 1}/{args.pairs}", file=sys.stderr,
                          flush=True)
                    pt["workloads"][workload]["runs"].append(perfbench(root, workload))
        for pt in points:
            for entry in pt["workloads"].values():
                entry["summary"] = summary(entry["runs"])
        if args.tier1:
            for root, pt in alternating(len(WORKLOADS) + 1):
                print(f"{pt['git_rev'][:7]} tier1", file=sys.stderr, flush=True)
                pt["tier1"] = tier1(root)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    machine = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
               "python": platform.python_version()}
    for pt in points:
        pt.update(machine=machine, seed=SEED, pairs=args.pairs, measured_with=measured_with,
                  date=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        path = REPO / f"BENCH_{pt['git_rev'][:7]}.json"
        path.write_text(json.dumps(pt, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
