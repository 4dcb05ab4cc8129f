"""Every file format of the package: JSON for polynomials, curves, Blaschke
products and solved Riemann maps, each holding exactly the keys of its
format (errors.require_keys), CSV for circle-map lifts, and a small
deterministic SVG writer. All emission is byte-stable across runs."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .conformal import DiskMap, ExteriorMap
from .curves import SampledCurve
from .errors import PreconditionError, SolverError, require_keys
from .fingerprint import BlaschkeProduct, CircleMap
from .polynomials import Polynomial


def read_json(path):
    """The JSON value in path; an unreadable file or malformed JSON raises
    PreconditionError. Its reader checks that it is an object (require_keys)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise PreconditionError(f"cannot read JSON from {path}: {err}") from None


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def _unpairs(pairs) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as err:
        raise PreconditionError(f"expected [[re, im], ...] pairs: {err}") from None


# -- polynomials ---------------------------------------------------------------


def polynomial_to_dict(p: Polynomial) -> dict:
    return {"coeffs": _pairs(p.coeffs)}


def polynomial_from_dict(d: dict) -> Polynomial:
    require_keys(d, "polynomial JSON", ("coeffs",))
    coeffs = _unpairs(d["coeffs"])
    if coeffs.size == 0:
        raise PreconditionError("polynomial JSON has empty coeffs")
    return Polynomial(coeffs)


def load_polynomial(path) -> Polynomial:
    return polynomial_from_dict(read_json(path))


def save_polynomial(p: Polynomial, path):
    Path(path).write_text(json.dumps(polynomial_to_dict(p)) + "\n")


# -- curves --------------------------------------------------------------------


def curve_to_dict(c: SampledCurve) -> dict:
    return {"closed": c.closed, "points": _pairs(c.points)}


def curve_from_dict(d: dict) -> SampledCurve:
    require_keys(d, "curve JSON", ("points",), ("closed",))
    closed = d.get("closed", True)
    if not isinstance(closed, bool):
        raise PreconditionError(
            f'curve JSON "closed" must be true or false, got {json.dumps(closed)}')
    return SampledCurve(_unpairs(d["points"]), closed=closed)


def load_curve(path) -> SampledCurve:
    return curve_from_dict(read_json(path))


def save_curve(c: SampledCurve, path):
    Path(path).write_text(json.dumps(curve_to_dict(c)) + "\n")


# -- Blaschke products and solved maps ------------------------------------------


def blaschke_to_dict(b: BlaschkeProduct) -> dict:
    return {"zeros": _pairs(b.zeros), "rotation": _pairs([b.rotation])[0]}


def blaschke_from_dict(d: dict) -> BlaschkeProduct:
    require_keys(d, "Blaschke JSON", ("zeros", "rotation"))
    return BlaschkeProduct(_unpairs(d["zeros"]), _unpairs([d["rotation"]])[0])


def solved_map_to_dict(m) -> dict:
    """A DiskMap as its nodes, correspondence and solved density (mu, g0);
    an ExteriorMap as `inner`, from which its theta, a and nodes are read."""
    if isinstance(m, ExteriorMap):
        return {"kind": "exterior", "inner": solved_map_to_dict(m.inner)}
    return {"kind": "interior", "theta": m.theta.tolist(), "points": _pairs(m.points),
            "mu": m.mu.tolist(), "g0": _pairs([m.g0])[0]}


def _disk_map_from_dict(d) -> DiskMap:
    require_keys(d, "map JSON", ("theta", "points", "mu", "g0"), ("kind",))
    if d.get("kind", "interior") != "interior":
        raise PreconditionError(
            f'map JSON "kind" must be "interior" or "exterior", got {json.dumps(d["kind"])}')
    pts = _unpairs(d["points"])
    try:
        theta, mu = np.asarray(d["theta"], float), np.asarray(d["mu"], float)
        if not (pts.size and theta.shape == mu.shape == pts.shape):
            raise PreconditionError("map JSON: points, theta and mu differ in length")
        return DiskMap(pts, theta, mu, _unpairs([d["g0"]])[0])
    except (TypeError, ValueError, SolverError) as err:
        raise PreconditionError(f"malformed map JSON: {err!r}") from None


def solved_map_from_dict(d: dict):
    """The map written by solved_map_to_dict; a file without `kind` is an
    interior map. A malformed or non-finite map raises PreconditionError."""
    if isinstance(d, dict) and d.get("kind") == "exterior":
        require_keys(d, "exterior map JSON", ("kind", "inner"))
        return ExteriorMap(_disk_map_from_dict(d["inner"]))
    return _disk_map_from_dict(d)


# -- CSV -------------------------------------------------------------------------


def save_circle_map_csv(m: CircleMap, path):
    """The lift's nodes as `t,L` rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "L"])
        for t, l in zip(m.t_nodes, m.lift_nodes):
            w.writerow([repr(float(t)), repr(float(l))])


# -- SVG -------------------------------------------------------------------------

SVG_WIDTH = 800  # pixels; the height follows the drawing's aspect ratio
_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def curves_to_svg(
    curves,
    path,
    labels=None,
    stroke_widths=None,
    title: str | None = None,
):
    """Write closed/open curves as a standalone SVG (no timestamps, stable
    output). Curves are drawn in order; the first gets the boldest stroke."""
    curves = list(curves)
    if not curves:
        raise PreconditionError("nothing to draw")
    allpts = np.concatenate([c.points for c in curves])
    x0, x1 = float(allpts.real.min()), float(allpts.real.max())
    y0, y1 = float(allpts.imag.min()), float(allpts.imag.max())
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    scale = SVG_WIDTH / (x1 - x0)
    height = int(np.ceil((y1 - y0) * scale))

    def xy(z):
        return (z.real - x0) * scale, (y1 - z.imag) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{height}" viewBox="0 0 {SVG_WIDTH} {height}">'
    ]
    if title:
        parts.append(f"<title>{title}</title>")
    parts.append('<rect width="100%" height="100%" fill="white"/>')
    for i, c in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        sw = (
            stroke_widths[i]
            if stroke_widths is not None
            else (2.0 if i == 0 else 1.0)
        )
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in (xy(z) for z in c.points))
        tag = "polygon" if c.closed else "polyline"
        label = f"<!-- {labels[i]} -->" if labels else ""
        parts.append(
            f'{label}<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{sw}"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
