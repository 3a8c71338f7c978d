"""Cost scaling of the multiplication-free transforms.

Each transform reports its cost-model count with its result
(``Spectrum.op_counts``); the table checks those counts against the closed
forms.  The direct nonlinear transform costs N^2 complex
sign-additive applications, the fast one N*(log2(N)+1), each application
being 4 sign evaluations, 8 absolute values and 6 additions.
"""

import numpy as np

from signadd import fft_exact, ndft, nfft, unit_tone
from signadd.transforms import (
    fft_complex_muls,
    ndft_complex_ops,
    nfft_complex_ops,
)

print(f"{'N':>5s} {'ndft ops':>10s} {'=N^2':>10s} {'nfft ops':>10s} "
      f"{'=N(lgN+1)':>10s} {'butterflies':>12s} {'fft muls':>9s}")
for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
    x = unit_tone(1, n)
    nd = ndft(x).op_counts.complex_mf_ops
    nf = nfft(x).op_counts.complex_mf_ops
    fm = fft_exact(x).op_counts.complex_mul_ops
    assert nd == ndft_complex_ops(n) and nf == nfft_complex_ops(n)
    assert fm == fft_complex_muls(n)
    print(f"{n:5d} {nd:10d} {n * n:10d} {nf:10d} "
          f"{n * (int(np.log2(n)) + 1):10d} {fft_complex_muls(n):12d} {fm:9d}")

n = 1024
nf = nfft_complex_ops(n)
print(f"\nper complex application: 4 signs, 8 absolute values, 6 additions")
print(f"N={n}: fast nonlinear transform -> {4 * nf} signs, {8 * nf} abs, "
      f"{6 * nf} additions, 0 multiplications")
print(f"constant over N*log2(N): {nf / (n * np.log2(n)):.3f} "
      f"(tends to 1 from above)")
