"""vacantlab benchmark: README CLI commands timed end to end, and an
outside-in per-module trace of the same commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every sample is a fresh ``python3`` process
that imports the package from this checkout's ``src/`` (absolute path) and
runs one command with ``--seed N``; outputs and manifests go to a temporary
directory under ``.perfbench_tmp/`` that is removed at the end.

``--trace 0`` alternates all-core and ``VACANTLAB_THREADS=1`` samples for S
seconds and reports the end-to-end metrics (medians over the samples).
``--trace 1`` alternates untraced and traced single-thread samples (at least
two of each) and reports the per-module metrics, medians over the traced
samples. Every sample's output must pass the workload's check and equal the
first sample's bytes (the replay contract across worker counts, repeats and
tracing); traced runs must repeat every exact counter.

The last stdout line is the JSON result; the line before it records the
machine, versions and git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS, layer_metrics, self_shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = HERE / "child.py"
NPROC = len(os.sched_getaffinity(0))
SAMPLE_TIMEOUT_S = 120


@dataclass
class Sample:
    mode: str  # "all", "1t" or "traced"
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    report: dict = field(default_factory=dict)
    output: bytes = b""
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path):
        _, self.args, self.check = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.src = ROOT / "src"
        self.samples: list[Sample] = []
        self.notes: dict = {}  # extra fields for the info line
        self._checked: dict[bytes, list] = {}

    def env(self, threads: int) -> dict:
        env = dict(os.environ, VACANTLAB_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        return env

    def warm_up(self) -> None:
        """Import once untimed in a fresh checkout, so byte-compilation does
        not land in the first timed sample."""
        pyc = f"cli.{sys.implementation.cache_tag}.pyc"
        if (self.src / "vacantlab" / "__pycache__" / pyc).is_file():
            return
        subprocess.run([sys.executable, "-c", "import vacantlab.cli"], cwd=self.tmp,
                       env=self.env(1), check=True, timeout=120)

    def sample(self, mode: str) -> Sample:
        s = Sample(mode)
        d = Path(tempfile.mkdtemp(dir=self.tmp))
        out, report = d / "out", d / "report.json"
        run_id = len(self.samples) if mode == "traced" else -1
        cmd = [sys.executable, str(CHILD), str(report), str(run_id), "--",
               *self.args, "--seed", str(self.seed), "--out", str(out)]
        threads = NPROC if mode == "all" else 1
        with open(d / "stdout", "wb") as so, open(d / "stderr", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=d, env=self.env(threads), stdout=so, stderr=se,
                                    start_new_session=True)
            # a hung sample is killed with its trial workers, so the run
            # still ends in bounded time and reports the failure
            watchdog = threading.Timer(SAMPLE_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            # wait4 gives this child's own peak RSS: the larger of the main
            # process and its reaped trial workers, not a cumulative figure
            _, status, usage = os.wait4(proc.pid, 0)
            s.wall_s = time.perf_counter() - t0
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        s.maxrss_mb = usage.ru_maxrss / 1024.0
        self.samples.append(s)
        if proc.returncode != 0 or not report.is_file():
            err = (d / "stderr").read_text(errors="replace").strip().splitlines()
            s.problems.append(f"exit {proc.returncode}: {err[-1] if err else ''}")
            return s
        s.report = json.loads(report.read_text())
        if not Path(s.report["package_file"]).is_relative_to(self.src):
            s.problems.append(f"measured {s.report['package_file']}, not this checkout")
        s.output = out.read_bytes()
        if s.output not in self._checked:
            self._checked[s.output] = self.check(s.output)
        s.problems += self._checked[s.output]
        first = next(x for x in self.samples if x.output)
        if s.output != first.output:
            s.problems.append(f"{mode} output bytes differ from the first {first.mode} sample")
        return s

    def run(self, modes_by_round, seconds: float, min_rounds: int) -> None:
        """Run rounds of samples until another round would pass the time
        budget; the first ``min_rounds`` always run."""
        t0 = time.perf_counter()
        rounds = 0
        while True:
            r0 = time.perf_counter()
            for mode in modes_by_round(rounds):
                self.sample(mode)
            rounds += 1
            now = time.perf_counter()
            if rounds >= min_rounds and now - t0 + (now - r0) > seconds:
                return

    def ok(self, mode: str) -> list[Sample]:
        return [s for s in self.samples if s.mode == mode and not s.problems]


def end_to_end(bench: Bench, seconds: float) -> dict:
    # alternate which mode goes first, so neither always runs on a cooler box
    bench.run(lambda r: ("all", "1t") if r % 2 == 0 else ("1t", "all"), seconds, 1)
    all_core, one = bench.ok("all"), bench.ok("1t")
    if not all_core or not one:
        return {}
    attempted = len(bench.samples)
    ok = len(all_core) + len(one)
    med = statistics.median
    return {
        "wall_s": (med(s.wall_s for s in all_core), "s"),
        "wall_1t_s": (med(s.wall_s for s in one), "s"),
        "setup_s": (med(s.report["setup_s"] for s in all_core + one), "s"),
        "peak_rss_mb": (med(s.maxrss_mb for s in all_core), "MB"),
        "ok_frac": (ok / attempted, "ratio"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    bench.run(lambda r: ("1t", "traced"), seconds, 2)
    traced, one = bench.ok("traced"), bench.ok("1t")
    if len(traced) < 2 or not one:
        return {}
    shares = [self_shares(s.report["spans"]) for s in traced]
    bench.notes["self_share"] = {k: round(statistics.median(sh.get(k, 0.0) for sh in shares), 4)
                                 for k in shares[0]}
    runs = [layer_metrics(s.report["spans"]) for s in traced]
    for s, m in zip(traced[1:], runs[1:]):
        for k in COUNTS:
            if m[k] != runs[0][k]:
                s.problems.append(f"{k} = {m[k]}, first traced run had {runs[0][k]}")
    metrics = {k: runs[0][k] if k in COUNTS else statistics.median(r[k] for r in runs)
               for k in runs[0]}
    untraced_main = statistics.median(s.report["main_s"] for s in one)
    metrics["trace.overhead_s"] = metrics["cli.main.total_s"] - untraced_main
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "count"


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "vacantlab" / "cli.py").is_file():
        print(f"error: no vacantlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        bench = Bench(args.workload, args.seed, tmp)
        bench.warm_up()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another benchmark process is still using it

    failed = [s for s in bench.samples if s.problems]
    for s in failed:
        print(f"{s.mode} sample failed: {'; '.join(s.problems)}", file=sys.stderr)
    if not metrics:
        print("error: too few successful samples to report", file=sys.stderr)
        return 1
    versions = next(s.report["versions"] for s in bench.samples if s.report)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": NPROC, "git_rev": git_rev(), **versions,
            "samples": {m: sum(s.mode == m for s in bench.samples) for m in ("all", "1t", "traced")},
            **bench.notes}
    print(json.dumps(info))
    result = {
        "correct": not failed,
        "attempted": len(bench.samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
