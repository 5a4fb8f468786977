"""Command-line front end: solvers and experiments behind reproducible
seeds with machine-readable output (JSON for scalar reports, CSV for row
streams) and a replayable run manifest next to every output.

Exit codes: 0 success, 1 runtime or solver error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from . import __version__, critical, experiments, exploration, gw
from .engine import RngStream, TrialError, derive_stream, worker_cap
from .random_graph import edge_probability


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False, ensure_ascii=False) + "\n"


def _emit(text: str, out_path: str | None) -> list[str]:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return [out_path]
    sys.stdout.write(text)
    return []


def _peak_rss_mb(who: int) -> float:
    # ru_maxrss counts bytes on macOS and kilobytes elsewhere
    rss = resource.getrusage(who).ru_maxrss
    return round(rss / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _environment() -> dict:
    """What a replay depends on besides ``argv`` (the streams come from
    numpy's SeedSequence and Philox), and what the run cost in memory.
    scipy's version is recorded only when the command loaded scipy, since
    no other output depends on it."""
    try:
        cap = worker_cap()
    except ValueError:
        cap = None  # an invalid cap stops only commands that run trials
    scipy = sys.modules.get("scipy")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "worker_cap": cap,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "workers_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


def _write_manifest(command: str, args: argparse.Namespace, argv: list[str],
                    started: float, outputs: list[str]) -> None:
    """Replay record written next to every output: re-running ``argv``
    reproduces the output bytes (``duration_s`` is informational)."""
    path = args.manifest
    if path is None:
        path = f"{args.out}.manifest.json" if args.out else f"vacantlab-{command}-manifest.json"
    manifest = {
        "command": command,
        "argv": argv,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "manifest")},
        "root_seed": args.seed,
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
        "outputs": outputs,
        "environment": _environment(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json(manifest))


def _capacity_stream(args) -> RngStream:
    """Checks of ``solve`` and ``capacity`` that need no sampling; returns
    the stream their capacity samples are drawn from."""
    if args.rho <= 1.0:
        raise ValueError("subcritical: rho must exceed 1")
    if args.radius >= args.depth:
        raise ValueError("radius exceeds truncation")
    if args.u is not None and args.u < 0:
        raise ValueError("u must be nonnegative")
    if args.trees < 1:
        raise ValueError("n_trees must be positive")
    return derive_stream(args.seed, 0).substream(901)


def _cmd_solve(args) -> list[str]:
    stream = _capacity_stream(args)
    xi = critical.solve_xi(args.rho, args.tol)
    caps = gw.capacity_samples(args.rho, args.radius, args.trees, stream)
    u_star = critical.solve_u_star(args.rho, caps.functional)
    out = {
        "rho": args.rho,
        "xi": xi,
        "u_star": {"value": u_star.u_star, "ci95_low": u_star.ci_low, "ci95_high": u_star.ci_high},
        "zeta": None,
        "functional": None,
        "tol": args.tol,
        "trees": args.trees,
        "radius": args.radius,
    }
    if args.u is not None:
        est = caps.functional(args.u)
        out["functional"] = asdict(est)
        out["zeta"] = critical.solve_zeta(args.rho, est.mean, args.tol)
    return _emit(_json(out), args.out)


def _parse_u_grid(args) -> list[float]:
    if args.u is not None:
        return [args.u]
    if args.u_steps < 2 or args.u_max < args.u_min:
        raise ValueError("invalid u grid")
    step = (args.u_max - args.u_min) / (args.u_steps - 1)
    return [args.u_min + i * step for i in range(args.u_steps)]


def _cmd_simulate(args) -> list[str]:
    grid = _parse_u_grid(args)
    # capacity_samples runs only once the sweep's workers have started, so
    # its checks and the trials' edge-probability check come first; the
    # sweep checks the grid and the trial count before it starts anything
    if args.rho <= 1.0:
        raise ValueError("supercritical rho required")
    if args.radius < 0:
        raise ValueError("radius must be nonnegative")
    if args.trees < 1:
        raise ValueError("n_trees must be positive")
    edge_probability(args.n, args.rho)
    root = derive_stream(args.seed, 0)
    caps = partial(gw.capacity_samples, args.rho, args.radius, args.trees, root.substream(901))
    records = experiments.sweep_vacant_structure(args.n, args.rho, grid, args.trials, root, caps=caps)
    if args.format == "csv":
        return _emit(experiments.sweep_records_to_csv(records), args.out)
    return _emit(_json([asdict(r) for r in records]), args.out)


def _cmd_er_check(args) -> list[str]:
    root = derive_stream(args.seed, 0)
    report = exploration.er_law_check(args.n, args.rho, args.u, args.trials, root.substream(0))
    out = {
        "ks_pvalue_edges": report.ks_pvalue_edges,
        "degree_chisq_pvalue": report.degree_chisq_pvalue,
        "mean_vacant_mean_degree": report.mean_vacant_mean_degree,
        "mean_vacant_fraction": report.mean_vacant_fraction,
        "n_trials": report.n_trials,
    }
    if report.note:
        out["note"] = report.note
    return _emit(_json(out), args.out)


def _cmd_capacity(args) -> list[str]:
    caps = gw.capacity_samples(args.rho, args.radius, args.trees, _capacity_stream(args))
    est = caps.functional(args.u)
    out = {
        "estimate": est.mean,
        "ci": [est.ci95_low, est.ci95_high],
        "estimate_at_radius_minus_5":
            caps.diagnostic.functional(args.u).mean if caps.diagnostic is not None else None,
        "radius": args.radius,
        "trees": args.trees,
    }
    return _emit(_json(out), args.out)


def _cmd_hitting(args) -> list[str]:
    root = derive_stream(args.seed, 0)
    report = experiments.hitting_and_vacancy_report(
        args.n, args.rho, args.u, args.vertices, root,
        n_walks=args.walks, radius=args.radius)
    return _emit(_json(asdict(report)), args.out)


def _cmd_size_check(args) -> list[str]:
    root = derive_stream(args.seed, 0)
    report = experiments.size_relation_check(args.n, args.rho, args.u, args.trials, root)
    return _emit(_json(asdict(report)), args.out)


def _finite_float(text: str) -> float:
    """argparse type of every float flag: anything but a finite number,
    nan and inf included, is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    p.add_argument("--manifest", type=str, default=None,
                   help="manifest path (default: alongside the output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacantlab",
        description="Vacant-set phase transition experiments on sparse random graphs.")
    parser.add_argument("--version", action="version", version=f"vacantlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="critical quantities: xi, u_star, zeta, functional")
    p.add_argument("--rho", type=_finite_float, required=True, help="mean degree (> 1)")
    p.add_argument("--u", type=_finite_float, default=None, help="intensity at which to report zeta/functional")
    p.add_argument("--tol", type=_finite_float, default=1e-10, help="solver tolerance (default 1e-10)")
    p.add_argument("--trees", type=int, default=100_000, help="capacity samples (default 1e5)")
    p.add_argument("--depth", type=int, default=50,
                   help="only an upper bound on --radius; no tree is built to it (default 50)")
    p.add_argument("--radius", type=int, default=40, help="capacity radius (default 40)")
    p.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="vacant-structure sweep records")
    p.add_argument("--n", type=int, required=True, help="vertex count (>= 100)")
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--u", type=_finite_float, default=None)
    p.add_argument("--u-min", dest="u_min", type=_finite_float, default=None)
    p.add_argument("--u-max", dest="u_max", type=_finite_float, default=None)
    p.add_argument("--u-steps", dest="u_steps", type=int, default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--trees", type=int, default=100_000)
    p.add_argument("--radius", type=int, default=40)
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("er-check", help="spatial Markov property law check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--u", type=_finite_float, required=True)
    p.add_argument("--trials", type=int, required=True, help=">= 50")
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_er_check)

    p = sub.add_parser("capacity", help="capacity functional estimate")
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--u", type=_finite_float, required=True)
    p.add_argument("--trees", type=int, default=100_000)
    p.add_argument("--depth", type=int, default=50,
                   help="only an upper bound on --radius; no tree is built to it (default 50)")
    p.add_argument("--radius", type=int, default=40)
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("hitting", help="per-vertex vacancy and hitting-tail diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--u", type=_finite_float, required=True)
    p.add_argument("--vertices", type=int, default=20)
    p.add_argument("--walks", type=int, default=2000)
    p.add_argument("--radius", type=int, default=None, help="ball radius (default: measured-bias formula)")
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_hitting)

    p = sub.add_parser("size-check", help="exploration vs walk vacant-size relation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--u", type=_finite_float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_size_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.n < 100:
        parser.error("--n must be at least 100")
    if args.command == "er-check" and args.trials < 50:
        parser.error("--trials must be at least 50")
    if args.command == "simulate":
        grid = [args.u_min, args.u_max, args.u_steps]
        if grid.count(None) != (3 if args.u is not None else 0):
            parser.error("need --u or all of --u-min/--u-max/--u-steps, not both")
    started = time.time()
    try:
        outputs = args.func(args)
        _write_manifest(args.command, args, argv, started, outputs)
    except (ValueError, OSError, TrialError, MemoryError) as exc:
        # a bare MemoryError has an empty message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
