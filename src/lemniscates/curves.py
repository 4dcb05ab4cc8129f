"""Sampled closed curves, winding numbers, and argument-principle counting.

Polygon winding numbers are signed ray crossings (Hormann & Agathos, CGTA
2001): an upward edge passing strictly right of the target counts +1, a
downward one -1, each edge owning the half-open y-range [min, max), so the
counts are exact integers. Targets sorted by y meet only the edges whose
y-range holds them.

The Jordan test pairs segments the same way: boxes widened by tol, sorted
by left edge, meet only the later boxes that start before they end, and the
pairs whose y-ranges also overlap are scored. When that meets more than 64
pairs per segment, the boxes are also swept by lower edge, and the axis
with fewer overlapping pairs is used. Both kernels pair by one sort and a
searchsorted per axis.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, PreconditionError
from .polynomials import as_rational

NEAR_HIT = 1e-9  # fixed near-hit rejection threshold
_MAX_REFINE_POINTS = 1_000_000
_MAX_REFINE_ROUNDS = 40
_REL_CHORD = 0.02  # image_curve's largest chord, relative to the image extent
# index pairs scored at once by either kernel; small blocks keep their
# temporaries in cache and in the allocator's heap
_PAIR_BLOCK = 8192
# overlapping pairs per segment along x past which is_jordan also counts y
_SWEEP_PAIRS = 64


class SampledCurve:
    """Ordered complex samples of a curve; closed curves wrap implicitly."""

    __slots__ = ("points", "closed", "_orientation")

    def __init__(self, points, closed=True):
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        if pts.ndim != 1:
            raise PreconditionError("curve points must be a 1-d sequence")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("curve points must be finite")
        if closed and pts.size >= 2 and abs(pts[-1] - pts[0]) == 0.0:
            pts = pts[:-1]  # drop duplicated closing point
        minimum = 3 if closed else 2
        if pts.size < minimum:
            raise PreconditionError(f"need at least {minimum} points")
        nxt = np.roll(pts, -1) if closed else pts[1:]
        base = pts if closed else pts[:-1]
        if np.any(nxt == base):
            raise PreconditionError("consecutive curve points must be distinct")
        self.points = pts
        self.closed = bool(closed)
        self._orientation = None

    @property
    def orientation(self) -> int:
        """+1 for counterclockwise, -1 for clockwise (shoelace sign)."""
        if self._orientation is None:
            if not self.closed:
                raise PreconditionError("orientation needs a closed curve")
            p = self.points
            q = np.roll(p, -1)
            area2 = np.sum(p.real * q.imag - q.real * p.imag)
            self._orientation = 1 if area2 > 0 else -1
        return self._orientation

    def reversed(self) -> "SampledCurve":
        return SampledCurve(self.points[::-1], closed=self.closed)

    def diameter(self) -> float:
        p = self.points
        return float(
            np.hypot(p.real.max() - p.real.min(), p.imag.max() - p.imag.min())
        )

    def __len__(self):
        return self.points.size

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"SampledCurve({self.points.size} pts, {kind})"


def unit_circle(n: int = 512, radius: float = 1.0, center: complex = 0.0) -> SampledCurve:
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return SampledCurve(center + radius * np.exp(1j * t), closed=True)


def ellipse(a: float, b: float, n: int = 512) -> SampledCurve:
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return SampledCurve(a * np.cos(t) + 1j * b * np.sin(t), closed=True)


def winding_number(c: SampledCurve, w) -> int:
    """Winding of a closed curve about w; rejects w within NEAR_HIT of the
    curve."""
    if not c.closed:
        raise PreconditionError("winding number needs a closed curve")
    w = complex(w)
    counts, valid = winding_numbers(c.points, [w], min_distance=NEAR_HIT)
    if not valid[0]:
        raise PreconditionError(f"point {w:.6g} within {NEAR_HIT:g} of the curve")
    return int(counts[0])


def _edge_target_pairs(start: np.ndarray, stop: np.ndarray):
    """Yield (e, t) index arrays pairing each e with the sorted indices
    start[e]:stop[e], about _PAIR_BLOCK pairs at a time."""
    length = stop - start
    ends = np.cumsum(length)
    e0 = 0
    while e0 < length.size:
        done = ends[e0 - 1] if e0 else 0
        e1 = max(e0 + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        n = length[e0:e1]
        edge = np.repeat(np.arange(e0, e1), n)
        offset = np.cumsum(n) - n - start[e0:e1]
        yield edge, np.arange(edge.size) - np.repeat(offset, n)
        e0 = e1


def winding_numbers(points: np.ndarray, ws: np.ndarray, min_distance: float = NEAR_HIT):
    """Winding of the closed polygon `points` about each w, by signed crossings.

    Returns (counts, valid) where valid is False for w closer than
    min_distance to the polygon (those counts are meaningless). Each edge
    is paired with the targets in its y-range widened by min_distance; the
    pairs inside the unwidened half-open range score the crossing, and those
    inside the widened x-box get exact point-to-segment distances.
    min_distance <= 0 marks every w valid.
    """
    ws = np.asarray(ws, dtype=complex).ravel()
    a = np.asarray(points, dtype=complex).ravel()
    b = np.roll(a, -1)
    u = b - a
    L2 = np.maximum(np.abs(u) ** 2, 1e-300)
    lo, hi = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    margin = max(min_distance, 0.0)
    xlo = np.minimum(a.real, b.real) - margin
    xhi = np.maximum(a.real, b.real) + margin
    up = b.imag > a.imag
    order = np.argsort(ws.imag, kind="stable")
    w = ws[order]
    near = np.zeros(ws.size, dtype=bool)
    # crossed targets are counted after the loop: a block costs O(block)
    ups, downs = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    start = np.searchsorted(w.imag, lo - margin, side="left")
    stop = np.searchsorted(w.imag, hi + margin, side="right")
    for e, t in _edge_target_pairs(start, stop):
        wt, t, ue = w[t], order[t], u[e]
        rel = wt - a[e]
        cross = ue.real * rel.imag - ue.imag * rel.real  # > 0: w left of edge
        ray = (wt.imag >= lo[e]) & (wt.imag < hi[e])
        ups.append(t[ray & up[e] & (cross > 0)])
        downs.append(t[ray & ~up[e] & (cross < 0)])
        if min_distance > 0:
            box = (wt.real >= xlo[e]) & (wt.real <= xhi[e])
            e, t, rel, ue = e[box], t[box], rel[box], ue[box]
            s = np.clip((rel * np.conj(ue)).real / L2[e], 0.0, 1.0)
            near[t[np.abs(rel - s * ue) < min_distance]] = True
    counts = np.bincount(np.concatenate(ups), minlength=ws.size)
    counts -= np.bincount(np.concatenate(downs), minlength=ws.size)
    return counts, ~near


def resample(c: SampledCurve, count: int) -> SampledCurve:
    """Arc-length-uniform resampling by piecewise-linear interpolation."""
    if count < 16:
        raise PreconditionError("resample needs count >= 16")
    pts = c.points
    if c.closed:
        ring = np.concatenate([pts, pts[:1]])
    else:
        ring = pts
    seg = np.abs(np.diff(ring))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0:
        raise PreconditionError("curve has zero length")
    if c.closed:
        su = np.linspace(0.0, total, count, endpoint=False)
    else:
        su = np.linspace(0.0, total, count)
    re = np.interp(su, s, ring.real)
    im = np.interp(su, s, ring.imag)
    return SampledCurve(re + 1j * im, closed=c.closed)


def _refine(f, c: SampledCurve, too_coarse):
    """Images under the rational map f of the samples of c, with chord
    midpoints inserted until too_coarse(a, b), given the images a and b at
    the two ends of every chord, flags none of them. f is evaluated once per
    sample, when the sample is added.

    Every sample, the first ones and each refined midpoint, must keep 1e-9
    from the poles of f; a loop that has not settled after 40 rounds or past
    a million samples raises NumericalError.
    """

    def images(z, where):
        if not f.is_polynomial and np.abs(f.den(z)).min() < NEAR_HIT:
            raise PreconditionError(f"pole of f within 1e-9 of a {where} sample")
        return np.asarray(f(z))

    zs = c.points
    ws = images(zs, "curve")
    for _ in range(_MAX_REFINE_ROUNDS):
        bad = too_coarse(ws, np.roll(ws, -1)) if c.closed else too_coarse(ws[:-1], ws[1:])
        if not bad.any():
            return ws
        if zs.size > _MAX_REFINE_POINTS:
            raise NumericalError(f"image refinement exceeded {_MAX_REFINE_POINTS} samples")
        idx = np.nonzero(bad)[0]
        added = 0.5 * (zs[idx] + np.roll(zs, -1)[idx])
        zs = np.insert(zs, idx + 1, added)
        ws = np.insert(ws, idx + 1, images(added, "refined"))
    raise NumericalError(f"image refinement did not settle in {_MAX_REFINE_ROUNDS} rounds")


def image_curve(f, c: SampledCurve) -> SampledCurve:
    """Pointwise image of c under f, refined until every chord is at most
    0.02 times the image's extent."""

    def too_coarse(a, b):
        ends = np.concatenate([a, b])
        extent = max(np.ptp(ends.real), np.ptp(ends.imag))
        return np.abs(b - a) > _REL_CHORD * max(extent, 1e-300)

    return SampledCurve(_refine(as_rational(f), c, too_coarse), closed=c.closed)


def count_preimages(f, c: SampledCurve, w, return_residual: bool = False):
    """Zeros of f - w minus poles of f enclosed by c, by the argument principle.

    The image polygon is refined until each turn about w is below 0.2 rad,
    then the winding is the rounded angle sum (pre-rounding residual must be
    below 1e-6, and is returned on request).
    """
    if not c.closed:
        raise PreconditionError("count_preimages needs a closed curve")
    if c.orientation != 1:
        raise PreconditionError("count_preimages needs a positively oriented curve")
    w = complex(w)

    def turns(a, b):
        d = a - w
        j = int(np.abs(d).argmin())
        if abs(d[j]) < NEAR_HIT:
            raise PreconditionError(
                f"image passes within {NEAR_HIT:g} of target "
                f"(nearest approach {abs(d[j]):.3g} at sample {j})"
            )
        return np.angle((b - w) / d)

    ws = _refine(as_rational(f), c, lambda a, b: np.abs(turns(a, b)) > 0.2)
    total = float(turns(ws, np.roll(ws, -1)).sum())
    k = int(round(total / (2 * np.pi)))
    residual = abs(total / (2 * np.pi) - k)
    if residual > 1e-6:
        raise NumericalError(
            f"winding angle sum {total:.3g} not integer-stable about {w:.6g}"
        )
    if return_residual:
        return k, residual
    return k


def _segment_pair_too_close(p1, p2, q1, q2, tol):
    """Vectorized test: does segment (p1,p2) intersect or come within tol of (q1,q2)?"""
    d1 = p2 - p1
    d2 = q2 - q1
    # proper crossing via orientation signs
    c1 = np.imag(np.conj(d1) * (q1 - p1))
    c2 = np.imag(np.conj(d1) * (q2 - p1))
    c3 = np.imag(np.conj(d2) * (p1 - q1))
    c4 = np.imag(np.conj(d2) * (p2 - q1))
    crossing = (c1 * c2 < 0) & (c3 * c4 < 0)

    def pt_seg(pt, a, b):
        ab = b - a
        denom = np.abs(ab) ** 2
        t = np.clip(((pt - a) * np.conj(ab)).real / np.maximum(denom, 1e-300), 0.0, 1.0)
        return np.abs(a + t * ab - pt)

    dmin = np.minimum.reduce(
        [pt_seg(p1, q1, q2), pt_seg(p2, q1, q2), pt_seg(q1, p1, p2), pt_seg(q2, p1, p2)]
    )
    return crossing | (dmin < tol)


def is_jordan(c: SampledCurve, tol: float = 1e-9) -> bool:
    """True iff no two non-adjacent segments of the polygon intersect or pass
    within tol of each other. An open polyline has no wrap segment, and its
    first and last segments are not adjacent."""
    tol = float(tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"is_jordan needs a finite tol >= 0, got {tol}")
    p = c.points
    a, b = (p, np.roll(p, -1)) if c.closed else (p[:-1], p[1:])
    n = a.size
    last = n - 1 if c.closed else n  # segment n - 1 meets segment 0 only when closed
    # widened boxes of close segments overlap; past the extent widening adds no pair
    pad = min(tol, np.ptp(p.real) + np.ptp(p.imag))
    xlo, xhi = np.minimum(a.real, b.real) - pad, np.maximum(a.real, b.real) + pad
    ylo, yhi = np.minimum(a.imag, b.imag) - pad, np.maximum(a.imag, b.imag) + pad

    def sweep(lo, hi):
        """In order of lo, each box pairs with the later boxes that start
        before it ends: every pair overlapping along this axis is met once."""
        order = np.argsort(lo, kind="stable")
        return order, np.searchsorted(lo[order], hi[order], side="right")

    first = np.arange(1, n + 1)
    order, stop = sweep(xlo, xhi)
    other = ylo, yhi
    # past _SWEEP_PAIRS pairs per segment in x, sweep along y if it meets fewer
    if (stop - first).sum() > _SWEEP_PAIRS * n:
        y_order, y_stop = sweep(ylo, yhi)
        if y_stop.sum() < stop.sum():
            order, stop, other = y_order, y_stop, (xlo, xhi)
    lo, hi = other[0][order], other[1][order]
    for e, t in _edge_target_pairs(first, stop):
        meet = (lo[e] <= hi[t]) & (lo[t] <= hi[e])
        e, t = order[e[meet]], order[t[meet]]
        i, j = np.minimum(e, t), np.maximum(e, t)
        apart = (j - i > 1) & ((i > 0) | (j < last))  # drop adjacent pairs
        i, j = i[apart], j[apart]
        if _segment_pair_too_close(a[i], b[i], a[j], b[j], tol).any():
            return False
    return True
