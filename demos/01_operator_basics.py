"""The sign-additive product, by example.

The operator keeps the sign a multiplication would have produced and adds
the magnitudes instead of multiplying them.  This walk-through shows the
basic algebra, what survives from ordinary multiplication, what breaks,
and what each application costs.
"""

import numpy as np

from signadd import OpCountReport, mf_complex, mf_real, mf_sign, vector_product

print("== scalars ==")
for a, b in [(3, 2), (-1.5, 2), (7, 0), (-3, -4)]:
    print(f"  {a} (*) {b} = {mf_real(a, b)}   (sign {mf_sign(a, b)}, "
          f"ordinary product {a * b})")

print("\n== complex pairs ==")
for a, b in [(1 + 2j, 3 - 1j), (1 + 0j, 0 + 1j), (2 + 2j, 0 + 0j)]:
    print(f"  {a} (*) {b} = {mf_complex(a, b)}   (ordinary {a * b})")

print("\n== what survives ==")
a, b = 3.7, -1.2
print(f"  commutative: {mf_real(a, b)} == {mf_real(b, a)}")
c = -2.5
print(f"  joint scaling by c={c}: {mf_real(c * a, c * b):.4f} == "
      f"|c| * {mf_real(a, b):.4f} = {abs(c) * mf_real(a, b):.4f}")
x = np.array([1.0, -2.0, 3.0])
print(f"  self product is twice the l1 norm: {vector_product(x, x)} == "
      f"2 * {np.sum(np.abs(x))}")

print("\n== what breaks ==")
print(f"  one-sided scaling: (2*2) (*) 2 = {mf_real(4, 2)}  but  "
      f"2 * (2 (*) 2) = {2 * mf_real(2, 2)}")
print("  so input gain is a real parameter of anything built on this operator")

print("\n== cost accounting ==")
r = OpCountReport.complex(1000)
print(f"  1000 complex applications -> {r.sign_ops} signs, {r.abs_ops} "
      f"absolute values, {r.add_ops} additions, {r.complex_mul_ops} multiplies")
