"""
Winding numbers and preimage counting
=====================================

Winding numbers of sampled polygons are signed ray crossings (+1 for each
edge crossing the ray to the right of w upwards, -1 downwards), exact
integers with nothing to round. The argument principle becomes integer
bookkeeping: the winding of f(curve) about w counts zeros minus poles of
f - w enclosed by the curve.
"""
from lemniscates import (
    Polynomial,
    RationalMap,
    count_preimages,
    image_curve,
    unit_circle,
    winding_number,
)

circle = unit_circle(256)
print("winding of the unit circle about 0:", winding_number(circle, 0.0))
print("winding about 3 (outside):        ", winding_number(circle, 3.0))

print("about 0.3+0.2i:                   ", winding_number(circle, 0.3 + 0.2j))

# zeros minus poles: f = (z - 0.5) / z has one zero and one pole inside
f = RationalMap(Polynomial([-0.5, 1.0]), Polynomial([0.0, 1.0]))
print("\n(z-0.5)/z on the unit circle, target 0:", count_preimages(f, circle, 0.0))

# a pure pole: 1/z winds backwards
inv = RationalMap(Polynomial([1.0]), Polynomial([0.0, 1.0]))
print("1/z on the unit circle, target 0:      ", count_preimages(inv, circle, 0.0))

# the quartic z^2(z+1)(z+3) has two zeros strictly inside the unit circle
f4 = RationalMap(Polynomial([0, 0, 3, 4, 1]))
img = image_curve(f4, unit_circle(257))  # odd count: the zero at -1 stays unsampled
print("\nwinding of f4(unit circle) about 0:    ", winding_number(img, 0.0))
print("preimages of 0 inside |z| = 4:         ", count_preimages(f4, unit_circle(512, radius=4.0), 0.0))

# counting is stable under resampling density
from lemniscates import resample

w = 0.3 + 0.1j
for n in (512, 1024, 2048):
    print(f"preimages of {w} at {n} samples:", count_preimages(f4, resample(circle, n), w))
