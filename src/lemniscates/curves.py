"""Sampled closed curves, winding numbers, and argument-principle counting.

Polygon winding numbers are signed ray crossings (Hormann & Agathos, CGTA
2001): an upward edge passing strictly right of the target counts +1, a
downward one -1, each edge owning the half-open y-range [min, max), so the
counts are exact integers. Targets sorted by y meet only the edges whose
y-range holds them.

The Jordan test scores only the segment pairs whose boxes, widened by tol,
share a cell in a stack of grids of side 2**k: a box is hashed into the grid
where it spans at most two cells a side and into the coarser ones.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, PreconditionError
from .polynomials import as_rational

NEAR_HIT = 1e-9  # fixed near-hit rejection threshold
_MAX_REFINE_POINTS = 1_000_000
# index pairs scored at once by either kernel; small blocks keep their
# temporaries in cache and in the allocator's heap
_PAIR_BLOCK = 8192


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


def _refine_by_angle(f, zs: np.ndarray, w: complex, max_turn: float):
    """Image turns about w of the closed polygon zs, with chord midpoints
    inserted until every turn is small."""
    for _ in range(40):
        d = f(zs) - w
        if np.abs(d).min() < NEAR_HIT:
            j = int(np.abs(d).argmin())
            raise PreconditionError(
                f"image passes within {NEAR_HIT:g} of target "
                f"(nearest approach {abs(d[j]):.3g} at sample {j})"
            )
        turns = np.angle(np.roll(d, -1) / d)
        bad = np.abs(turns) > max_turn
        if not bad.any():
            return turns
        if zs.size > _MAX_REFINE_POINTS:
            raise NumericalError(
                "image refinement exploded; image likely passes through target"
            )
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (zs[idx] + np.roll(zs, -1)[idx])
        zs = np.insert(zs, idx + 1, mids)
    raise NumericalError("image refinement did not settle; target too close to image")


def image_curve(f, c: SampledCurve, rel_chord: float = 0.02) -> SampledCurve:
    """Pointwise image of c under f, refined where consecutive images are far apart."""
    f = as_rational(f)
    zs = c.points.copy()
    if not f.is_polynomial:
        dv = np.abs(f.den(zs))
        if dv.min() < NEAR_HIT:
            raise PreconditionError("pole of f within 1e-9 of a curve sample")
    for _ in range(14):
        ws = np.asarray(f(zs))
        nxt = np.roll(ws, -1) if c.closed else ws[1:]
        cur = ws if c.closed else ws[:-1]
        chord = np.abs(nxt - cur)
        scale = max(ws.real.max() - ws.real.min(), ws.imag.max() - ws.imag.min())
        bad = chord > rel_chord * max(scale, 1e-300)
        if not bad.any() or zs.size > _MAX_REFINE_POINTS:
            break
        idx = np.nonzero(bad)[0]
        nxz = np.roll(zs, -1) if c.closed else zs[1:]
        mids = 0.5 * (zs[idx] + nxz[idx])
        if not f.is_polynomial and np.abs(f.den(mids)).min() < NEAR_HIT:
            raise PreconditionError("pole of f within 1e-9 of a refined sample")
        zs = np.insert(zs, idx + 1, mids)
    return SampledCurve(np.asarray(f(zs)), closed=c.closed)


def count_preimages(f, c: SampledCurve, w, return_residual: bool = False):
    """Zeros of f - w minus poles of f enclosed by c, by the argument principle.

    The image polygon is refined until each turn about w is below 0.2 rad,
    then the winding is the rounded angle sum (pre-rounding residual must be
    below 1e-6, and is returned on request).
    """
    f = as_rational(f)
    if not c.closed:
        raise PreconditionError("count_preimages needs a closed curve")
    if c.orientation != 1:
        raise PreconditionError("count_preimages needs a positively oriented curve")
    w = complex(w)
    zs = c.points.copy()
    if not f.is_polynomial:
        if np.abs(f.den(zs)).min() < NEAR_HIT:
            raise PreconditionError("pole of f within 1e-9 of a curve sample")
    turns = _refine_by_angle(f, zs, w, max_turn=0.2)
    total = float(turns.sum())
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
    lo = np.stack([np.minimum(a.real, b.real), np.minimum(a.imag, b.imag)]) - pad
    hi = np.stack([np.maximum(a.real, b.real), np.maximum(a.imag, b.imag)]) + pad
    origin = lo.min(axis=1, keepdims=True)
    # grids of cell side 2**level: each box is an owner in the grid of the
    # level where it spans at most 2 cells a side, and a visitor in the
    # coarser ones. At most 2**26 cells a side keep the cell keys exact.
    size = np.maximum((hi - lo).max(axis=0), float((hi - origin).max()) / 2**26)
    level = np.ceil(np.log2(size))
    for lev in np.unique(level):
        member = np.nonzero(level <= lev)[0]
        h = 2.0**lev
        c0 = np.floor((lo[:, member] - origin) / h).astype(np.int64)
        side = np.floor((hi[:, member] - origin) / h).astype(np.int64) - c0 + 1
        cells = side[0] * side[1]
        entry = np.repeat(np.arange(member.size), cells)
        r = np.arange(entry.size) - np.repeat(np.cumsum(cells) - cells, cells)
        cell = (c0[0, entry] + r // side[1, entry]) * 2**27 + c0[1, entry] + r % side[1, entry]
        visitor = level[member[entry]] < lev
        order = np.argsort(2 * cell + visitor, kind="stable")  # owners first
        cell, seg = cell[order], member[entry[order]]
        # each owner entry pairs with the later entries of its cell
        stop = np.searchsorted(cell, cell, side="right")
        start = np.where(visitor[order], stop, np.arange(1, cell.size + 1))
        for e, t in _edge_target_pairs(start, stop):
            i, j = np.minimum(seg[e], seg[t]), np.maximum(seg[e], seg[t])
            apart = (j - i > 1) & ((i > 0) | (j < last))  # drop adjacent pairs
            pair = np.unique(i[apart] * n + j[apart])
            i, j = pair // n, pair % n
            meet = np.all((lo[:, i] <= hi[:, j]) & (lo[:, j] <= hi[:, i]), axis=0)
            i, j = i[meet], j[meet]
            if _segment_pair_too_close(a[i], b[i], a[j], b[j], tol).any():
                return False
    return True
