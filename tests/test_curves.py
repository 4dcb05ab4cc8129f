import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lemniscates import curves
from lemniscates.curves import (
    _MAX_MODULUS,
    SampledCurve,
    _segment_pair_too_close,
    count_preimages,
    ellipse,
    is_jordan,
    unit_circle,
    winding_number,
    winding_numbers,
)
from lemniscates.errors import PreconditionError
from lemniscates.polynomials import Polynomial, RationalMap, roots_flat


def _double_circle(n=256):
    t = np.linspace(0, 4 * np.pi, n, endpoint=False)
    return SampledCurve(np.exp(1j * t), closed=True)


def test_winding_basic():
    c = unit_circle(256)
    assert winding_number(c, 0.0) == 1
    assert winding_number(c, 3.0) == 0
    assert winding_number(_double_circle(), 0.0) == 2


def test_winding_residual_small():
    c = unit_circle(256)
    assert winding_number(c, 0.3 + 0.2j) == 1


def test_winding_orientation_reversal():
    c = unit_circle(128)
    assert winding_number(c.reversed(), 0.0) == -1


def test_winding_near_hit_rejected():
    c = unit_circle(64)
    with pytest.raises(PreconditionError):
        winding_number(c, complex(c.points[3]) + 1e-12)


def test_winding_on_segment_interior_rejected():
    """The near-hit check measures distance to segments, not only to samples."""
    square = SampledCurve([0, 1, 1 + 1j, 1j], closed=True)
    for w in (0.5, 0.5 + 1e-13j, 0.5 - 1e-13j, 1.0 + 0.5j):
        with pytest.raises(PreconditionError):
            winding_number(square, w)
    assert winding_number(square, 0.5 + 0.5j) == 1


# Reference: the dense angle-sum kernel the crossing kernel replaced, kept
# verbatim (renamed) as an independent oracle.
def _segment_distances(points: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Min distance from each w to the closed polygon through `points`."""
    a = points
    b = np.roll(points, -1)
    u = b - a
    L2 = np.maximum(np.abs(u) ** 2, 1e-300)
    out = np.empty(ws.size)
    block = max(1, int(2_000_000 // max(points.size, 1)))
    for i in range(0, ws.size, block):
        wb = ws[i : i + block]
        rel = wb[:, None] - a[None, :]
        t = np.clip((rel * np.conj(u)[None, :]).real / L2[None, :], 0.0, 1.0)
        d = np.abs(rel - t * u[None, :])
        out[i : i + block] = d.min(axis=1)
    return out


def _dense_winding_numbers(points: np.ndarray, ws: np.ndarray, min_distance: float = 1e-9):
    """Vectorized winding of the closed polygon `points` about each w.

    Returns (counts, valid) where valid is False for w closer than
    min_distance to the polygon (those counts are meaningless). Sample-point
    distances prefilter; only borderline targets pay for exact
    point-to-segment distances.
    """
    ws = np.asarray(ws, dtype=complex).ravel()
    counts = np.zeros(ws.size, dtype=int)
    valid = np.ones(ws.size, dtype=bool)
    block = max(1, int(4_000_000 // max(points.size, 1)))
    nxt = np.roll(points, -1)
    max_chord = float(np.abs(nxt - points).max())
    borderline = np.zeros(ws.size, dtype=bool)
    for i in range(0, ws.size, block):
        wb = ws[i : i + block]
        d = points[None, :] - wb[:, None]
        dist = np.abs(d).min(axis=1)
        ang = np.angle((nxt[None, :] - wb[:, None]) / d)
        total = ang.sum(axis=1)
        counts[i : i + block] = np.rint(total / (2 * np.pi)).astype(int)
        valid[i : i + block] = dist >= min_distance
        if min_distance > 0:
            borderline[i : i + block] = (dist < min_distance + 0.5 * max_chord) & (
                dist >= min_distance
            )
    idx = np.nonzero(borderline)[0]
    if idx.size:
        seg_d = _segment_distances(points, ws[idx])
        valid[idx] &= seg_d >= min_distance
    return counts, valid


def _distinct_neighbours(pts):
    pts = np.asarray(pts, dtype=complex)
    pts = pts[np.concatenate([[True], pts[1:] != pts[:-1]])]
    if pts.size > 1 and pts[-1] == pts[0]:
        pts = pts[:-1]
    return pts


# lattice polygons self-intersect freely and have horizontal edges; the
# targets sit on vertex rows (the half-open rule), between rows, and at
# random offsets
_lattice = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=30)
_offsets = st.lists(
    st.tuples(st.floats(-6, 6), st.sampled_from([0.0, 0.5, 0.37])), min_size=1, max_size=60
)


@settings(max_examples=60)
@given(
    verts=_lattice,
    offsets=_offsets,
    jitter=st.sampled_from([0.0, 1e-3]),
    margin=st.sampled_from([1e-9, 1e-2]),
)
def test_crossing_winding_matches_dense_angle_sum(verts, offsets, jitter, margin):
    pts = _distinct_neighbours([x + 1j * y for x, y in verts])
    assume(pts.size >= 3)
    pts = pts + jitter * np.sin(np.arange(pts.size) * 1.7)  # tilts some edges
    rows = pts.imag[np.arange(len(offsets)) % pts.size]
    ws = np.array([x + 1j * (r + dy) for (x, dy), r in zip(offsets, rows)])
    with np.errstate(divide="ignore", invalid="ignore"):  # targets on vertices
        ref_counts, ref_valid = _dense_winding_numbers(pts, ws, margin)
    counts, valid = winding_numbers(pts, ws, margin)
    assert np.array_equal(valid, ref_valid)
    assert np.array_equal(counts[valid], ref_counts[valid])


@settings(max_examples=40)
@given(
    re=st.lists(st.floats(-3, 3), min_size=3, max_size=40),
    im=st.lists(st.floats(-3, 3), min_size=3, max_size=40),
    seed=st.integers(0, 2**16),
    margin=st.sampled_from([1e-9, 1e-2]),
)
def test_crossing_winding_matches_dense_on_random_polygons(re, im, seed, margin):
    n = min(len(re), len(im))
    pts = _distinct_neighbours(np.array(re[:n]) + 1j * np.array(im[:n]))
    assume(pts.size >= 3)
    rng = np.random.default_rng(seed)
    ws = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200)
    ws[:50] = ws[:50].real + 1j * pts.imag[rng.integers(0, pts.size, 50)]  # vertex rows
    ref_counts, ref_valid = _dense_winding_numbers(pts, ws, margin)
    counts, valid = winding_numbers(pts, ws, margin)
    assert np.array_equal(valid, ref_valid)
    assert np.array_equal(counts[valid], ref_counts[valid])


def test_crossing_winding_independent_of_pair_blocks(monkeypatch):
    t = np.linspace(0, 6 * np.pi, 301, endpoint=False)
    star = (1.5 + np.cos(7 * t / 3)) * np.exp(1j * t)  # winds three times
    rng = np.random.default_rng(3)
    ws = rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000)
    whole = winding_numbers(star, ws, 1e-2)
    monkeypatch.setattr(curves, "_PAIR_BLOCK", 97)
    blocked = winding_numbers(star, ws, 1e-2)
    assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1])
    assert np.array_equal(whole[0][whole[1]], _dense_winding_numbers(star, ws, 1e-2)[0][whole[1]])
    assert whole[0].max() == 3


@settings(max_examples=25)
@given(
    roots=st.lists(st.complex_numbers(max_magnitude=1.8), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_crossing_winding_counts_roots_inside_circle(roots, seed):
    """Winding of p(circle) about w = roots of p - w inside the circle."""
    p = RationalMap(Polynomial.from_roots(roots))
    # |p''| <= 20 * 2.8**3 on the circle: the polygon keeps within 2e-4 of
    # the image, far inside the margin (the diameter is at least 1)
    img = SampledCurve(p(unit_circle(4096).points))
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0, 1.6, 30) * np.exp(2j * np.pi * rng.uniform(0, 1, 30))
    ws = p(zs)
    margin = 0.05 * img.diameter()
    counts, valid = winding_numbers(img.points, ws, margin)
    ref_counts, ref_valid = _dense_winding_numbers(img.points, ws, margin)
    assert np.array_equal(valid, ref_valid)
    assert np.array_equal(counts[valid], ref_counts[valid])
    for w, k, ok in zip(ws, counts, valid):
        found = np.abs(roots_flat(p.num - complex(w), tol=1e-8))
        if ok and np.all(np.abs(found - 1.0) >= 0.05):
            assert k == np.count_nonzero(found < 1.0)


def test_count_preimages_examples(circle_T):
    z3 = RationalMap(Polynomial([0, 0, 0, 1]))
    assert count_preimages(z3, circle_T, 0.0) == 3
    f4 = RationalMap(Polynomial([0, 0, 3, 4, 1]))
    assert count_preimages(f4, unit_circle(512, radius=4.0), 0.0) == 4
    inv = RationalMap(Polynomial([1.0]), Polynomial([0, 1]))
    assert count_preimages(inv, circle_T, 0.0) == -1


def test_count_preimages_resampling_invariance(circle_T):
    f4 = RationalMap(Polynomial([0, 0, 3, 4, 1]))
    w = 0.05 + 0.02j
    expected = sum(1 for r in roots_flat(f4.num - w) if abs(r) < 1.0)
    k1 = count_preimages(f4, circle_T, w)
    k2 = count_preimages(f4, unit_circle(1024), w)
    assert k1 == k2 == expected


def test_count_preimages_circle_encloses_all_roots(rng):
    for _ in range(10):
        deg = int(rng.integers(1, 6))
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        p = RationalMap(Polynomial.from_roots(roots))
        r = 1.5 + float(np.max(np.abs(roots)))
        assert count_preimages(p, unit_circle(512, radius=r), 0.0) == deg


def test_count_preimages_requires_positive_orientation(circle_T):
    f = RationalMap(Polynomial([0, 1]))
    with pytest.raises(PreconditionError):
        count_preimages(f, circle_T.reversed(), 0.0)


@pytest.mark.parametrize("w", [np.nan, np.inf, complex(0, np.nan), 1e308 + 1e308j])
def test_a_target_outside_the_kernels_range_is_refused(w, monkeypatch):
    """A target that is not finite (winding_number read it as 0,
    count_preimages raised a bare ValueError after a RuntimeWarning) or
    that overflows the kernels is refused before anything is evaluated."""
    monkeypatch.setattr(curves, "winding_numbers", None)
    with np.errstate(all="raise"):
        with pytest.raises(PreconditionError, match="not finite"):
            winding_number(unit_circle(64), w)
        with pytest.raises(PreconditionError, match="not finite"):
            count_preimages(Polynomial([0, 1]), unit_circle(64), w)


def test_count_preimages_pole_on_curve_rejected():
    inv = RationalMap(Polynomial([1.0]), Polynomial([-1.0, 1.0]))  # 1/(z-1)
    with pytest.raises(PreconditionError, match="curve sample"):
        count_preimages(inv, unit_circle(64), 0.0)  # the sample at angle 0 is the pole


def test_count_preimages_evaluates_each_sample_once(monkeypatch):
    """The refinement keeps the images it has: f sees no point twice, though
    arg 1/(z - (1 + 1e-6)) turns by pi within 1e-6 of z = 1 and takes many
    rounds to resolve."""
    seen = []
    call = RationalMap.__call__

    def recording(self, z):
        seen.append(np.atleast_1d(z))
        return call(self, z)

    monkeypatch.setattr(RationalMap, "__call__", recording)
    f = RationalMap(Polynomial([1.0]), Polynomial([-(1.0 + 1e-6), 1.0]))
    assert count_preimages(f, unit_circle(64), 0.0) == 0
    zs = np.concatenate(seen)
    assert len(seen) > 10 and zs.size > 64
    assert np.unique(zs).size == zs.size


def test_count_preimages_pole_at_refined_midpoint_rejected():
    """The pole (1 + i)/2 is the midpoint of the diamond's first chord: it is
    not a sample, but refinement inserts it."""
    f = RationalMap(Polynomial([1.0]), Polynomial([-(1 + 1j) / 2, 1.0]))
    diamond = SampledCurve([1, 1j, -1, -1j])
    with pytest.raises(PreconditionError, match="refined sample"):
        count_preimages(f, diamond, 0.0)


def test_is_jordan():
    assert is_jordan(unit_circle(256)) is True
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    eight = SampledCurve(np.sin(2 * t) + 1j * np.sin(t), closed=True)
    assert is_jordan(eight) is False


def test_is_jordan_traced_lemniscate():
    from lemniscates.fingerprint import pseudo_lemniscate

    lem = pseudo_lemniscate(Polynomial([-0.1, 0, 1]), unit_circle(512), 512)
    assert is_jordan(lem, tol=1e-9) is True


# Reference: the dense midpoint-distance screen the bucketed Jordan test
# replaced, kept (renamed) as an independent oracle. Each row block screens
# only the columns that can hold a pair j > i + 1, with the same predicate.
def _dense_is_jordan(c: SampledCurve, tol: float = 1e-9) -> bool:
    """True iff no two non-adjacent segments of the closed polygon intersect
    or pass within tol of each other."""
    if not c.closed:
        raise PreconditionError("is_jordan needs a closed curve")
    p = c.points
    n = p.size
    a = p
    b = np.roll(p, -1)
    mid = 0.5 * (a + b)
    rad = 0.5 * np.abs(b - a)
    block = max(1, int(2_000_000 // n))
    for i0 in range(0, n, block):
        i = np.arange(i0, min(i0 + block, n))
        # candidate pairs (i, j) with j > i + 1, excluding the wrap-adjacent
        # pair; no row of the block pairs with a column j <= i0 + 1
        j = np.arange(i0 + 2, n)
        sep = np.abs(mid[i][:, None] - mid[j][None, :])
        reach = rad[i][:, None] + rad[j][None, :] + tol
        cand = sep <= reach
        j_idx = j[None, :]
        i_idx = i[:, None]
        adjacent = (
            (j_idx <= i_idx + 1)
            | ((i_idx == 0) & (j_idx == n - 1))
        )
        cand &= ~adjacent
        ii, jj = np.nonzero(cand)
        if ii.size == 0:
            continue
        gi, gj = i[ii], j[jj]
        hit = _segment_pair_too_close(a[gi], b[gi], a[gj], b[gj], tol)
        if hit.any():
            return False
    return True


def _dense_is_jordan_open(c: SampledCurve, tol: float = 1e-9) -> bool:
    """_dense_is_jordan for an open polyline: every pair of segments
    p[i]p[i+1], p[j]p[j+1] with j > i + 1 is scored. There is no wrap
    segment, and the first and last segments are not adjacent."""
    assert not c.closed
    p = c.points
    i, j = np.triu_indices(p.size - 1, 2)
    return not _segment_pair_too_close(p[i], p[i + 1], p[j], p[j + 1], tol).any()


_tols = st.sampled_from([0.0, 1e-9, 1e-2, 0.5])


@settings(max_examples=60)
@given(verts=_lattice, tol=_tols)
def test_is_jordan_matches_dense_on_lattice_polygons(verts, tol):
    """Integer vertices give collinear overlaps, shared vertices and
    segments that touch exactly."""
    pts = _distinct_neighbours([x + 1j * y for x, y in verts])
    assume(pts.size >= 3)
    c = SampledCurve(pts, closed=True)
    assert is_jordan(c, tol) == _dense_is_jordan(c, tol)


@settings(max_examples=60)
@given(verts=_lattice, tol=_tols)
def test_is_jordan_matches_dense_on_open_lattice_polylines(verts, tol):
    """Open polylines: the ends may meet or touch, and then they cross."""
    pts = np.array([x + 1j * y for x, y in verts])
    pts = pts[np.concatenate([[True], pts[1:] != pts[:-1]])]
    assume(pts.size >= 2)
    c = SampledCurve(pts, closed=False)
    assert is_jordan(c, tol) == _dense_is_jordan_open(c, tol)


def test_is_jordan_open_polylines():
    square = [0, 1, 1 + 1j, 1j]
    assert is_jordan(SampledCurve(square, closed=False))
    assert not is_jordan(SampledCurve(square + [0], closed=False))  # the ends meet
    near = SampledCurve(square + [-1e-3 + 1e-3j], closed=False)  # the ends nearly meet
    assert is_jordan(near, tol=1e-9) and not is_jordan(near, tol=1e-2)
    assert is_jordan(SampledCurve([0, 1], closed=False))
    t = np.linspace(0, 2 * np.pi, 300, endpoint=False)
    eight = SampledCurve(np.sin(2 * t) + 1j * np.sin(t), closed=False)
    assert not is_jordan(eight) and is_jordan(SampledCurve(eight.points[:140], closed=False))
    circle = unit_circle(300)
    assert is_jordan(SampledCurve(circle.points, closed=False))


@settings(max_examples=60)
@given(
    re=st.lists(st.floats(-3, 3), min_size=3, max_size=60),
    im=st.lists(st.floats(-3, 3), min_size=3, max_size=60),
    star=st.booleans(),
    tol=_tols,
)
def test_is_jordan_matches_dense_on_random_polygons(re, im, star, tol):
    n = min(len(re), len(im))
    pts = np.array(re[:n]) + 1j * np.array(im[:n])
    if star:  # star-shaped: vertices sorted by angle, mostly Jordan
        pts = pts[np.argsort(np.angle(pts), kind="stable")]
    pts = _distinct_neighbours(pts)
    assume(pts.size >= 3)
    c = SampledCurve(pts, closed=True)
    assert is_jordan(c, tol) == _dense_is_jordan(c, tol)


@settings(max_examples=30)
@given(
    tol=st.sampled_from([1e-9, 1e-6, 1e-4]),
    closer=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_is_jordan_spike_at_tol(tol, closer, seed):
    """A spike whose short tip stops tol*(1 -+ 1e-3) short of the long
    opposite side, so the close pair has segments of very different sizes;
    random turns and shifts move it across the grid cells."""
    d = tol * (1 - 1e-3 if closer else 1 + 1e-3)
    tip = [1.002 + 0.01j, 1.001 + 1j * d, 0.999 + 1j * d, 0.998 + 0.01j]
    square = np.array([0, 2, 2 + 2j, 1.2 + 2j, *tip, 0.8 + 2j, 2j])
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
    c = SampledCurve(shift + np.exp(2j * np.pi * rng.uniform()) * square, closed=True)
    assert is_jordan(c, tol) is (not closer)
    assert _dense_is_jordan(c, tol) is (not closer)


def _figure_eight(n):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return SampledCurve(np.sin(2 * t) + 1j * np.sin(t), closed=True)


def _x_graded_circle(n, smallest):
    """The unit circle at angles graded geometrically down to `smallest` on
    each side of 0: the segments near z = 1 crowd within 1e-9 in x."""
    theta = np.geomspace(smallest, np.pi, n // 2, endpoint=False)
    return SampledCurve(np.exp(1j * np.concatenate([-theta[::-1], theta])), closed=True)


def test_is_jordan_matches_dense_on_solver_curves(d4_chain):
    from lemniscates._fourier import trig_resample

    ell = SampledCurve(trig_resample(ellipse(1.0, 0.6, 512).points, 2048), closed=True)
    for c in (d4_chain.curve, ell, _figure_eight(3000), _x_graded_circle(1500, 1e-6)):
        for tol in (1e-9, 1e-2):
            assert is_jordan(c, tol) == _dense_is_jordan(c, tol)
    assert is_jordan(d4_chain.curve, 1e-9) and is_jordan(ell, 1e-9)


def test_is_jordan_independent_of_pair_blocks(monkeypatch):
    """Also independent of the sweep axis: with the y sweep weighed at any
    pair count, each case and its quarter turn (which swaps the axes, so one
    of the two is swept along y) give the same verdicts."""
    from lemniscates import curves

    spike = [0, 2, 2 + 2j, 1.2 + 2j, 1.002 + 0.01j, 1 + 1e-3j, 0.998 + 0.01j, 0.8 + 2j, 2j]
    cases = [unit_circle(300), _figure_eight(300), SampledCurve(spike, closed=True)]
    tols = (1e-9, 1e-3 * (1 - 1e-3), 1e-3 * (1 + 1e-3), 0.2)
    whole = [is_jordan(c, tol) for c in cases for tol in tols]
    monkeypatch.setattr(curves, "_PAIR_BLOCK", 7)
    blocked = [is_jordan(c, tol) for c in cases for tol in tols]
    assert blocked == whole == [_dense_is_jordan(c, tol) for c in cases for tol in tols]
    monkeypatch.setattr(curves, "_SWEEP_PAIRS", 0)
    for turn in (1, 1j):
        assert [is_jordan(SampledCurve(turn * c.points), tol) for c in cases for tol in tols] == whole
    assert whole[:4] == [True, True, True, False] and not any(whole[4:8])
    assert whole[8:] == [True, True, False, False]


def _comb(teeth, pitch):
    """A closed comb of thin triangular teeth, 1 tall and pitch apart, over a
    base: neighbouring teeth come within about pitch of each other."""
    x = pitch * np.arange(teeth)
    pts = np.stack([x, x + pitch / 2 + 1j], axis=1).ravel()
    return np.concatenate([pts, [teeth * pitch, teeth * pitch - 1j, -1j]])


def test_is_jordan_long_edge_adversary():
    """20,000 graded segments (1e-15 to 0.2 long) along a parabola, closed by
    its 10-unit chord. One uniform grid fitted to the long edge would put
    most segments into one cell. Then a 2,000-tooth comb, upright and turned
    on its side, where every tooth overlaps every other in x."""
    import time

    s = 10.0 * np.exp(np.linspace(-30.0, 0.0, 20_001))
    arc = (s + 0.5j * np.sqrt(s * (10.0 - s))) * np.exp(0.25j * np.pi)
    comb = _comb(2000, 0.005)
    for pts in (arc, comb, 1j * comb):
        c = SampledCurve(pts, closed=True)
        for tol, jordan in ((1e-9, True), (1e-2, False)):
            t0 = time.perf_counter()
            assert is_jordan(c, tol) is jordan
            assert time.perf_counter() - t0 < 1.0
            assert _dense_is_jordan(c, tol) is jordan


def test_is_jordan_sweeps_the_axis_with_fewer_pairs(monkeypatch):
    """The 2,000-tooth comb overlaps in y nearly everywhere upright and in x
    on its side; either way the sweep meets a few pairs per segment, not the
    8 million of the crowded axis."""
    from lemniscates import curves

    met = []
    real = curves._edge_target_pairs

    def counting(start, stop):
        for e, t in real(start, stop):
            met.append(e.size)
            yield e, t

    monkeypatch.setattr(curves, "_edge_target_pairs", counting)
    comb = _comb(2000, 0.005)
    for pts in (comb, 1j * comb):
        met.clear()
        assert is_jordan(SampledCurve(pts, closed=True), 1e-9)
        assert sum(met) <= 4 * pts.size


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), -float("inf")])
def test_is_jordan_rejects_bad_tol(tol):
    with pytest.raises(PreconditionError):
        is_jordan(unit_circle(64), tol)


def test_curve_validation():
    with pytest.raises(PreconditionError):
        SampledCurve([1.0, 1.0, 2.0], closed=True)  # repeated consecutive point
    with pytest.raises(PreconditionError):
        SampledCurve([np.nan + 0j, 1.0, 2.0], closed=True)


def test_curve_points_stay_in_the_kernels_range():
    """Curves up to _MAX_MODULUS = sqrt(max float) / 4 are accepted, and the
    winding and Jordan kernels run on them without overflow; a point beyond
    it is refused when the curve is built."""
    r = _MAX_MODULUS * (1 - 1e-15)  # rounding of r e^{i t} stays below the bound
    for pts in [r * np.exp(2j * np.pi * np.arange(64) / 64), r * np.array([1, -1, 1j, -1j])]:
        with np.errstate(all="raise"):
            curve = SampledCurve(pts)
            winding_numbers(curve.points, [0, 0.5 * r, -r, 1j * r])
            is_jordan(curve)
            is_jordan(SampledCurve(pts, closed=False))
    assert len(SampledCurve([1e150, 1j, -1, -1j])) == 4
    for big in [np.nextafter(_MAX_MODULUS, np.inf), 1e200j, -1e308]:
        with pytest.raises(PreconditionError, match="modulus at most"):
            SampledCurve([big, 1j, -1, -1j])
