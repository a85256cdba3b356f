"""Command-line entry point: stability tables, trajectory simulation,
phase-portrait datasets, stationary-measure verification, and Monte Carlo
transport checks.

Outputs are reproducible: every report embeds its resolved configuration,
CSV files carry no timestamps (byte-stable under a fixed seed), and JSON
reports confine the timestamp to the single generated_at header field.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import SuslovParams, energy, load_params, vector_field
from .equilibria import classify
from .fields import _check_sample_count, example2d, example2d_density, power_product
from .flow import (
    IntegrationError,
    measure_transport_check,
    reconstruct,
    sample_ellipsoid,
    simulate,
)
from .measures import (
    _check_tol,
    classA_measure_exists,
    density_params,
    density_spec,
    divergence_witness,
    first_integral_F,
    fixture2d_residual_sweep,
    plane_defect_sweep,
    positive_c1_measure_exists,
    residual_sweep,
)

SCHEMA_VERSION = 1

_OPTION_HELP = {
    "eta": "energy level",
    "T": "time horizon",
    "tol": "tolerance",
    "samples": "sample count",
    "seed": "random seed",
}


def _report_header(command: str, config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config,
    }


def _emit(text: str, out: str | Path | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(doc: dict, out: str | Path | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _write_csv(
    out: str | Path | None, comment_fields: dict, columns: list[str], rows: np.ndarray
) -> None:
    """Header and rows, each value as its full-precision repr so it round-trips
    exactly; a file also starts with one `# key = value` line per comment field."""
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows.tolist()]
    if out:
        lines = [f"# {k} = {v}" for k, v in comment_fields.items()] + lines
    _emit("\n".join(lines) + "\n", out)


def _parse_floats(text: str, count: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {len(parts)}")
    vals = np.array([float(p) for p in parts])
    if not np.isfinite(vals).all():
        raise ValueError(f"{what} values must be finite, got {text}")
    return vals


def _require_params(args: argparse.Namespace) -> SuslovParams:
    if not args.params:
        raise ValueError("--params is required for this command")
    return load_params(args.params)


def _predicates(params: SuslovParams) -> dict:
    return {
        "positive_c1_measure_exists": positive_c1_measure_exists(params),
        "classA_measure_exists": classA_measure_exists(params),
    }


def _orbit_table(
    params: SuslovParams, times: np.ndarray, states: np.ndarray
) -> tuple[list[str], list[np.ndarray]]:
    """Columns t, omega1..3 and E of an orbit, and F when a2 = 0."""
    cols = ["t", "omega1", "omega2", "omega3", "E"]
    data = [times, *states.T, energy(params, states)]
    if classA_measure_exists(params):
        cols.append("F")
        data.append(first_integral_F(params, density_params(params), states))
    return cols, data


def cmd_analyze(args: argparse.Namespace) -> int:
    params = _require_params(args)
    reports = [classify(params, i) for i in (1, 2, 3)]
    predicates = _predicates(params)
    print(f"{'i':>2} {'lambda':>10} {'direction':>28} {'alpha':>14} {'beta':>14}  classification")
    for r in reports:
        d = "({:.6g}, {:.6g}, {:.6g})".format(*r.direction)
        cls = r.classification.value
        if r.source_sign is not None:
            src = "+" if r.source_sign > 0 else "-"
            snk = "+" if r.sink_sign > 0 else "-"
            cls += f" (source {src}v{r.index}, sink {snk}v{r.index})"
        print(f"{r.index:>2} {r.lambda_i:>10.6g} {d:>28} {r.alpha:>14.6g} {r.beta:>14.6g}  {cls}")
    print(f"positive C1 density exists: {predicates['positive_c1_measure_exists']}")
    print(f"classA density exists:      {predicates['classA_measure_exists']}")
    if args.out:
        doc = _report_header("analyze", {"params": params.to_dict()})
        doc["equilibria"] = [r.to_dict() for r in reports]
        doc["predicates"] = predicates
        _write_json(doc, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _require_params(args)
    omega0 = _parse_floats(args.omega0, 3, "--omega0")
    record = None
    if args.samples:
        record = np.linspace(0.0, args.T, args.samples)[1:]
    traj = simulate(
        params, omega0, args.T, tol=args.tol,
        record_times=record, project_energy=args.project_energy,
    )
    cols, data = _orbit_table(params, traj.times, traj.states)
    if args.reconstruct:
        att = reconstruct(params, traj)
        cols += ["qw", "qx", "qy", "qz", "theta", "theta_dot"]
        data += [*att.rotations.T, att.theta, att.theta_dot]
    table = np.column_stack(data)
    config = {
        "params": params.to_dict(),
        "omega0": [float(x) for x in omega0],
        "T": args.T, "tol": args.tol,
        "project_energy": bool(args.project_energy),
        "energy_drift": traj.energy_drift,
        "integrator_stats": traj.integrator_stats,
    }
    if args.reconstruct:
        config["attitude_integrator_stats"] = att.integrator_stats
    if args.format == "json":
        doc = _report_header("simulate", config)
        doc["columns"] = cols
        doc["rows"] = table.tolist()
        _write_json(doc, args.out)
    else:
        flat = {k: v for k, v in config.items() if not isinstance(v, dict)}
        flat["schema_version"] = SCHEMA_VERSION
        flat.update({f"params.{k}": v for k, v in config["params"].items()})
        _write_csv(args.out, flat, cols, table)
    return 0


def cmd_portrait(args: argparse.Namespace) -> int:
    params = _require_params(args)
    if not args.out:
        raise ValueError("--out directory is required for portrait output")
    # the bundle runs from -T to T; a negative horizon would run it backwards
    if not (np.isfinite(args.T) and args.T > 0.0):
        raise ValueError(f"--T must be finite and positive, got {args.T}")
    _check_tol(args.tol)
    _check_sample_count(args.samples)
    ics = sample_ellipsoid(params, args.eta, args.samples, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, args.T, 201)[1:]
    files = []
    failures = []
    for k, omega0 in enumerate(ics):
        name = f"traj_{k:03d}.csv"
        try:
            fwd = simulate(params, omega0, args.T, tol=args.tol,
                           record_times=grid, project_energy=args.project_energy)
            bwd = simulate(params, omega0, -args.T, tol=args.tol,
                           record_times=-grid, project_energy=args.project_energy)
        except IntegrationError as exc:
            failures.append({"trajectory": name, "error": str(exc)})
            continue
        times = np.concatenate([bwd.times[:-1], fwd.times])
        states = np.concatenate([bwd.states[:-1], fwd.states], axis=0)
        cols, data = _orbit_table(params, times, states)
        _write_csv(
            outdir / name,
            {
                "command": "portrait", "trajectory": k,
                "seed": args.seed, "eta": args.eta, "T": args.T, "tol": args.tol,
                "project_energy": bool(args.project_energy),
                "schema_version": SCHEMA_VERSION,
            },
            cols, np.column_stack(data),
        )
        files.append(name)
    manifest = _report_header("portrait", {
        "params": params.to_dict(), "eta": args.eta, "T": args.T,
        "tol": args.tol, "samples": args.samples, "seed": args.seed,
        "project_energy": bool(args.project_energy),
    })
    manifest["files"] = files
    manifest["failures"] = failures
    _write_json(manifest, str(outdir / "manifest.json"))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # every target echoes both options, and the a2 != 0 witness reads neither
    _check_tol(args.tol)
    _check_sample_count(args.samples)
    config = {"target": args.target}
    if args.target == "suslov":
        params = _require_params(args)
        config["params"] = params.to_dict()
    config.update(samples=args.samples, seed=args.seed, tol=args.tol)
    doc = _report_header("verify", config)
    if args.target == "example2d":
        checks = {"residual_check": fixture2d_residual_sweep(
            n_points=args.samples, seed=args.seed, tol=args.tol)}
    else:
        doc["predicates"] = _predicates(params)
        if classA_measure_exists(params):
            checks = {
                "residual_check": residual_sweep(
                    params, n_points=args.samples, seed=args.seed, tol=args.tol),
                "plane_invariance_check": plane_defect_sweep(
                    params, n_points=1000, seed=args.seed),
            }
        else:
            checks = {"divergence_witness": divergence_witness(params, seed=args.seed)}
    doc.update(checks)
    doc["pass"] = all(check["pass"] for check in checks.values())
    _write_json(doc, args.out)
    return 0 if doc["pass"] else 1


def cmd_transport(args: argparse.Namespace) -> int:
    density = args.density
    if args.target == "example2d":
        # the fixture transports its own density, |x1|^5 x2^2
        if density is not None:
            raise ValueError("--density applies only to the suslov target")
        field = example2d()
        dens = example2d_density()
        box = np.array([[1.0, 2.0], [1.0, 2.0]])
        params_doc = None
    else:
        params = _require_params(args)
        field = vector_field(params)
        params_doc = params.to_dict()
        density = density or "classA"
        dens = (power_product((), (), "empty (constant density)") if density == "uniform"
                else density_spec(params, density_params(params)))
        box = np.array([[0.8, 1.2]] * 3)
    if args.box:
        vals = _parse_floats(args.box, 2 * field.dim, "--box")
        box = vals.reshape(field.dim, 2)
    report = measure_transport_check(
        field, dens, box, args.T, args.samples, args.seed
    )
    doc = _report_header("transport", {
        "target": args.target, "params": params_doc, "density": density,
        "t": args.T, "samples": args.samples, "seed": args.seed,
        "box": box.tolist(),
    })
    doc["report"] = report.to_dict()
    doc["pass"] = report.within_3se
    _write_json(doc, args.out)
    return 0 if doc["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suslov",
        description="Rigid body with rotor under a no-spin constraint: "
                    "equilibria, stationary measures, flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(sp: argparse.ArgumentParser, **defaults: float) -> None:
        """--params and --out, plus each named option with its default."""
        sp.add_argument("--params", help="JSON parameter file (I1,I2,I3,K1,K3,a1,a2[,a3])")
        sp.add_argument("--out", help="output path (directory for portrait)")
        for name, default in defaults.items():
            sp.add_argument(f"--{name}", type=type(default), default=default,
                            help=_OPTION_HELP[name])

    sp = sub.add_parser("analyze", help="stability table and measure predicates")
    options(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    options(sp, T=100.0, tol=1e-10, samples=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--omega0", required=True, help="initial angular velocity o1,o2,o3")
    sp.add_argument("--reconstruct", action="store_true",
                    help="also reconstruct attitude and rotor angle")
    sp.add_argument("--project-energy", action="store_true",
                    help="re-project onto the initial energy ellipsoid after each step")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("portrait", help="seeded trajectory family on an energy ellipsoid")
    options(sp, eta=1.0, T=40.0, tol=1e-10, samples=24, seed=0)
    sp.add_argument("--project-energy", action="store_true")
    sp.set_defaults(func=cmd_portrait)

    sp = sub.add_parser("verify", help="stationary-measure verification report")
    sp.add_argument("target", nargs="?", default="suslov", choices=("suslov", "example2d"))
    options(sp, tol=1e-6, samples=10000, seed=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("transport", help="Monte Carlo measure transport check")
    sp.add_argument("target", nargs="?", default="suslov", choices=("suslov", "example2d"))
    options(sp, T=5.0, samples=100000, seed=0)
    sp.add_argument("--box", help="box bounds lo1,hi1,lo2,hi2[,lo3,hi3]")
    sp.add_argument("--density", choices=("classA", "uniform"),
                    help="density to transport (suslov target only; default classA)")
    sp.set_defaults(func=cmd_transport)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
