"""File formats: JSON for polynomials/curves/Blaschke products/solved maps,
CSV for circle-map lifts, and a small deterministic SVG writer. All emission
is byte-stable across runs."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .conformal import DiskMap, ExteriorMap
from .curves import SampledCurve
from .errors import PreconditionError
from .fingerprint import BlaschkeProduct, CircleMap
from .polynomials import Polynomial


def read_json(path) -> dict:
    """Load a JSON object from path; an unreadable file, malformed JSON or a
    top level that is not an object raises PreconditionError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise PreconditionError(f"cannot read JSON from {path}: {err}") from None
    if not isinstance(data, dict):
        raise PreconditionError(f"{path}: top-level JSON value must be an object")
    return data


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
    if "coeffs" not in d:
        raise PreconditionError('polynomial JSON needs a "coeffs" field')
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
    if "points" not in d:
        raise PreconditionError('curve JSON needs a "points" field')
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
    return {
        "zeros": _pairs(b.zeros),
        "rotation": [float(b.rotation.real), float(b.rotation.imag)],
    }


def blaschke_from_dict(d: dict) -> BlaschkeProduct:
    if "zeros" not in d or "rotation" not in d:
        raise PreconditionError('Blaschke JSON needs "zeros" and "rotation" fields')
    return BlaschkeProduct(_unpairs(d["zeros"]), _unpairs([d["rotation"]])[0])


def solved_map_from_dict(d: dict):
    """Refuses a malformed map, or one saved without its density, with
    PreconditionError."""
    if d.get("kind") == "exterior":
        return ExteriorMap.from_dict(d)
    return DiskMap.from_dict(d)


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
