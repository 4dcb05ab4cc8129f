"""Command-line front end.

Subcommands: roots, lemniscate, fingerprint, counterexample, properness.
Exit codes: 0 success, 2 precondition/usage violation, 3 numerical failure;
failures, usage errors among them, also emit a machine-readable JSON object
on stderr (type, message and, for chain-closure and trace errors, the data
they carry). Every command that takes a curve checks it with `is_proper`
(closed, positively oriented, Jordan) before it writes anything. Output is
deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import io as lio
from .counterexample import (
    PolarGrid,
    build_d4_chain,
    design_counterexample,
    f4_polynomial,
    noninjectivity_degree,
    reproduce_table,
)
from .curves import SampledCurve, unit_circle
from .errors import ChainClosureError, NumericalError, PreconditionError, TraceError
from .fingerprint import (
    _traced_lemniscate,
    circle_map_of_blaschke,
    identity_report,
    is_proper,
    is_proper_oracle,
)
from .levelcurves import level_components
from .polynomials import critical_values, normalize_leading, poly_roots

ENV_OUTDIR = "LEMNISCATES_OUTDIR"
# largest accepted value of each count field of RunConfig; larger values would
# ask for arrays too large to allocate (nodes is a power of two in [64, 4096])
MAX_COUNTS = {"grid_args": 3600, "grid_moduli": 1000}


@dataclass
class RunConfig:
    """Knobs shared by all commands; overridable via --config JSON.

    `nodes` is the Riemann-map node count of `fingerprint`; the grid_* fields
    are the polar target grid of `counterexample noninj`; `outdir` is where
    files are written: --outdir, else $LEMNISCATES_OUTDIR, else the config's
    `outdir`, else the working directory. Sample counts, trace steps and the
    SVG width are the library's own defaults, so the CLI computes what the
    library computes.
    """

    nodes: int = 1024
    grid_args: int = 360
    grid_moduli: int = 100
    grid_mod_min: float = 0.16
    grid_mod_max: float = 7.9
    outdir: str = "."

    def validate(self):
        if self.nodes < 64 or self.nodes > 4096 or self.nodes & (self.nodes - 1):
            raise PreconditionError("nodes must be a power of two in [64, 4096]")
        if not 0 < self.grid_mod_min < self.grid_mod_max:  # also refuses NaN
            raise PreconditionError("grid moduli must satisfy 0 < grid_mod_min < grid_mod_max")
        for name, most in MAX_COUNTS.items():
            if not 0 < getattr(self, name) <= most:
                raise PreconditionError(f"{name} must be in [1, {most}]")
        return self

    @classmethod
    def load(cls, path=None, overrides=None):
        cfg = cls()
        if path:
            data = lio.read_json(path)
            known = {f.name for f in fields(cls)}
            unknown = set(data) - known
            if unknown:
                raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
            for k, v in data.items():
                setattr(cfg, k, _config_value(k, v, getattr(cfg, k)))
        env_out = os.environ.get(ENV_OUTDIR)
        if env_out:
            cfg.outdir = env_out
        for k, v in (overrides or {}).items():
            if v is not None:
                setattr(cfg, k, v)
        return cfg.validate()


def _config_value(name, value, default):
    """A config file value, checked against the type of its default."""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise PreconditionError(f"{name} must be a string, got {value!r}")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not abs(value) <= sys.float_info.max:
        raise PreconditionError(f"{name} must be a finite number, got {value!r}")
    if isinstance(default, int):
        if value != int(value):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _load_curve_arg(arg: str) -> SampledCurve:
    """The base curve Gamma: "unit-circle" or a curve file; `is_proper`
    refuses one that is not a closed, positively oriented Jordan polygon."""
    return unit_circle(512) if arg == "unit-circle" else lio.load_curve(arg)


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _outpaths(cfg: RunConfig, args, *names) -> list:
    """The files `names` in the output directory, created if need be. Every
    command asks for all its outputs here before it writes the first; one that
    is a directory or an input file (poly, curve, config) raises PreconditionError."""
    out = Path(cfg.outdir)
    given = (getattr(args, k, None) for k in ("poly", "curve", "config"))
    inputs = {Path(a).resolve() for a in given if a not in (None, "unit-circle")}
    paths = [out / name for name in names]
    for path in paths:
        if path.resolve() in inputs:
            raise PreconditionError(f"output {path} would overwrite an input file")
        if path.is_dir():
            raise PreconditionError(f"output {path} is a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise PreconditionError(f"cannot create output directory {out}: {err}") from None
    return paths


def cmd_roots(args, cfg: RunConfig) -> dict:
    p = lio.load_polynomial(args.poly)
    if p.degree < 1:
        raise PreconditionError("polynomial must have degree >= 1")
    roots = poly_roots(p, tol=args.tol)
    return {
        "degree": p.degree,
        "roots": [
            {"point": [z.real, z.imag], "multiplicity": m} for z, m in roots
        ],
    }


def _level_family(p, moduli):
    """The closed components of |p| = eps, per eps; a level that fails to
    trace or to keep the level invariant is left out."""
    out = []
    for eps in moduli:
        try:
            loops = level_components(p, eps)
        except NumericalError:
            continue
        out.extend((eps, loop) for loop in loops)
    return out


def cmd_lemniscate(args, cfg: RunConfig) -> dict:
    p = lio.load_polynomial(args.poly)
    p, rot = normalize_leading(p)
    gamma = _load_curve_arg(args.curve)
    proper = is_proper(p, gamma)
    out = Path(args.out)
    svg_path, json_path = _outpaths(cfg, args, out.name, f"{out.stem}.json")
    payload = {"leading_rotation": [rot.real, rot.imag]}
    if proper:
        curve = _traced_lemniscate(p, gamma)  # pseudo_lemniscate, properness known
        lio.save_curve(curve, json_path)
        lio.curves_to_svg([curve, gamma], svg_path, title="pseudo-lemniscate")
        payload.update(
            {"proper": True, "svg": str(svg_path), "curve_json": str(json_path),
             "points": len(curve)}
        )
    else:
        cvs = critical_values(p)  # degree >= 2: lower degrees are proper or rejected
        moduli = sorted({abs(cv) * s for cv in cvs if abs(cv) > 0 for s in (0.98, 1.02)})
        family = _level_family(p, moduli)
        curves = [loop for _, loop in family]
        if curves:
            lio.curves_to_svg(curves, svg_path, title="critical level sets")
            lio.save_curve(curves[0], json_path)
        payload.update(
            {
                "proper": False,
                "warning": "input is not proper; rendered level sets near the "
                "critical moduli instead",
                "svg": str(svg_path) if curves else None,
                "levels": [eps for eps, _ in family],
            }
        )
    return payload


def cmd_fingerprint(args, cfg: RunConfig) -> dict:
    p = lio.load_polynomial(args.poly)
    p, rot = normalize_leading(p)
    gamma = _load_curve_arg(args.curve)
    rep = identity_report(p, gamma, nodes=cfg.nodes)
    stem = Path(args.out).stem
    maps = rep.maps if args.save_maps else {}
    suffixes = ["_kgamma.csv", "_blaschke.csv", "_blaschke.json", *(f"_map_{k}.json" for k in maps)]
    out, kg_path, b_path, bj_path, *map_paths = _outpaths(
        cfg, args, Path(args.out).name, *(stem + s for s in suffixes))
    lio.save_circle_map_csv(rep.k_p, out)
    lio.save_circle_map_csv(rep.k_gamma, kg_path)
    blift = circle_map_of_blaschke(rep.blaschke, samples=2048)
    lio.save_circle_map_csv(blift, b_path)
    bj_path.write_text(json.dumps(lio.blaschke_to_dict(rep.blaschke)) + "\n")
    payload = {
        "degree": rep.degree,
        "residual_rad": rep.residual,
        "leading_rotation": [rot.real, rot.imag],
        "k_p_csv": str(out),
        "k_gamma_csv": str(kg_path),
        "blaschke_csv": str(b_path),
        "blaschke_json": str(bj_path),
    }
    for m, mp in zip(maps.values(), map_paths):
        mp.write_text(json.dumps(m.to_dict()) + "\n")
    if maps:
        payload["solved_maps"] = {key: str(mp) for key, mp in zip(maps, map_paths)}
    return payload


def _require_degree4(args):
    if args.n != 4:
        raise PreconditionError(
            "the bounded region construction is built in for degree 4 only; "
            "use the 'family' subcommand for higher-degree polynomials"
        )


def cmd_counterexample(args, cfg: RunConfig) -> dict:
    if args.action == "family":
        design = design_counterexample(args.n)
        path, = _outpaths(cfg, args, f"f{args.n}.json")
        lio.save_polynomial(design.poly, path)
        return {"polynomial_json": str(path), **design.metadata()}
    _require_degree4(args)
    f4 = f4_polynomial()
    chain = build_d4_chain()
    if args.action == "table":
        report = reproduce_table(f4, chain)
        path, = _outpaths(cfg, args, "table_report.json")
        path.write_text(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        return {
            "all_ok": report.all_ok,
            "rows_ok": sum(r.ok for r in report.rows),
            "rows": len(report.rows),
            "report_json": str(path),
        }
    if args.action == "noninj":
        grid = PolarGrid(cfg.grid_args, cfg.grid_moduli, cfg.grid_mod_min, cfg.grid_mod_max)
        res = noninjectivity_degree(f4, chain, grid)
        path, = _outpaths(cfg, args, "noninjectivity.json")
        path.write_text(
            json.dumps(
                {
                    "degree": res.degree,
                    "grid": [cfg.grid_args, cfg.grid_moduli],
                    "moduli_range": [cfg.grid_mod_min, cfg.grid_mod_max],
                    "evaluated": res.n_evaluated,
                    "skipped": res.n_skipped,
                    "witnesses": [[w.real, w.imag] for w in res.witnesses],
                    "skipped_points": [[w.real, w.imag] for w in res.skipped],
                },
                sort_keys=True,
            )
            + "\n"
        )
        return {"degree": res.degree, "evaluated": res.n_evaluated,
                "skipped": res.n_skipped, "report_json": str(path)}
    # export
    curve_path, svg_path = _outpaths(cfg, args, "d4_boundary.json", "d4_boundary.svg")
    lio.save_curve(chain.curve, curve_path)
    moduli = sorted({s.value for s in chain.specs if s.kind == "level"})
    family = _level_family(f4, moduli)
    curves = [chain.curve] + [loop for _, loop in family]
    widths = [2.5] + [0.8] * len(family)
    labels = ["boundary"] + [f"level {eps:g}" for eps, _ in family]
    lio.curves_to_svg(curves, svg_path, labels=labels, stroke_widths=widths,
                      title="region boundary")
    return {
        "curve_json": str(curve_path),
        "svg": str(svg_path),
        "vertices": len(chain.vertices),
        "closure_residual": chain.closure_residual,
        "level_components": len(family),
    }


def cmd_properness(args, cfg: RunConfig) -> dict:
    p = lio.load_polynomial(args.poly)
    p, rot = normalize_leading(p)
    gamma = _load_curve_arg(args.curve)
    direct = is_proper(p, gamma)
    oracle = is_proper_oracle(p, gamma)
    return {
        "proper": direct,
        "criterion_critical_values": direct,
        "oracle_connectivity": oracle,
        "methods_agree": direct == oracle,
        "leading_rotation": [rot.real, rot.imag],
    }


class _Parser(argparse.ArgumentParser):
    """Usage errors raise PreconditionError: a JSON record and exit code 2."""

    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lemniscates",
        description="Polynomial lemniscates, welding fingerprints, and the "
        "degree-4 non-injectivity region.",
    )
    ap.add_argument("--config", help="JSON file with RunConfig overrides")
    ap.add_argument("--outdir", help="output directory (default: config or cwd)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="all roots of a polynomial, with multiplicity")
    sp.add_argument("poly", help="polynomial JSON file")
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = sub.add_parser("lemniscate", help="trace p^{-1}(curve) and render it")
    sp.add_argument("poly")
    sp.add_argument("curve", help='curve JSON file or "unit-circle"')
    sp.add_argument("out", help="output SVG filename")

    sp = sub.add_parser("fingerprint", help="fingerprints, Blaschke model, residual")
    sp.add_argument("poly")
    sp.add_argument("curve", help='curve JSON file or "unit-circle"')
    sp.add_argument("out", help="output CSV filename for the fingerprint lift")
    sp.add_argument(
        "--save-maps", action="store_true",
        help="also write the four solved Riemann maps as reusable JSON",
    )

    sp = sub.add_parser("counterexample", help="degree-4 region commands")
    sp.add_argument("action", choices=["table", "noninj", "export", "family"])
    sp.add_argument("--n", type=int, default=4, help="family degree (family action)")

    sp = sub.add_parser("properness", help="properness by both methods")
    sp.add_argument("poly")
    sp.add_argument("curve", help='curve JSON file or "unit-circle"')
    return ap


_HANDLERS = {
    "roots": cmd_roots,
    "lemniscate": cmd_lemniscate,
    "fingerprint": cmd_fingerprint,
    "counterexample": cmd_counterexample,
    "properness": cmd_properness,
}


def _error_record(err) -> dict:
    """The stderr JSON: type, message and the data the error carries."""
    record = {"error": type(err).__name__, "message": str(err)}
    if isinstance(err, ChainClosureError):
        record["details"] = {"candidates": [
            {"start": [c["start"].real, c["start"].imag],
             **{k: c[k] for k in ("closure_residual", "crossed_after_arc", "error") if k in c}}
            for c in err.candidates
        ]}
    elif isinstance(err, TraceError):
        samples = [] if err.samples is None else [complex(z) for z in err.samples]
        last = [samples[-1].real, samples[-1].imag] if samples else None
        record["details"] = {"samples": len(samples), "last_sample": last}
    return record


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = RunConfig.load(args.config, {"outdir": args.outdir})
        payload = _HANDLERS[args.command](args, cfg)
    except (PreconditionError, NumericalError) as err:
        sys.stderr.write(json.dumps(_error_record(err)) + "\n")
        return 2 if isinstance(err, PreconditionError) else 3
    _emit(payload)
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
