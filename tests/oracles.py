"""Independent scalar-path oracles shared by the test modules.

These deliberately avoid the library's vectorized kernels: element-by-element
evaluation with sequential accumulation, so bit-for-bit comparisons against
the production paths are meaningful.
"""

import numpy as np

from signadd import mf_complex, twiddle_table


def ndft_double_loop(x):
    """Element-by-element nonlinear DFT with sequential accumulation."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    tbl = twiddle_table(n)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        acc = complex(0.0, 0.0)
        for m in range(n):
            acc += mf_complex(complex(tbl.entries[(k * m) % n]), complex(x[m]))
        out[k] = acc
    return out


def nfft_recursive(x):
    """Recursive decimation-in-time reference for the nonlinear FFT."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    tbl = twiddle_table(n)
    if n == 2:
        return np.array([
            mf_complex(complex(tbl.entries[0]), complex(x[0]))
            + mf_complex(complex(tbl.entries[0]), complex(x[1])),
            mf_complex(complex(tbl.entries[0]), complex(x[0]))
            + mf_complex(-complex(tbl.entries[0]), complex(x[1])),
        ])
    even = nfft_recursive(x[0::2])
    odd = nfft_recursive(x[1::2])
    h = n // 2
    out = np.empty(n, dtype=complex)
    for k in range(n):
        w = complex(tbl.entries[k]) if k < h else -complex(tbl.entries[k - h])
        out[k] = even[k % h] + mf_complex(w, complex(odd[k % h]))
    return out


def nfft_levels(x):
    """``nfft_recursive`` along the last axis, so one sequence or a ``(rows, N)``
    array: the same recursion, products and sums, each level's taken by
    ``mf_complex`` over whole arrays instead of one element at a time."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    w = twiddle_table(n).entries[: n // 2]
    if n == 2:
        even, odd = mf_complex(w[0], x[..., :1]), x[..., 1:]
    else:
        even, odd = nfft_levels(x[..., 0::2]), nfft_levels(x[..., 1::2])
    return np.concatenate([even + mf_complex(w, odd), even + mf_complex(-w, odd)], axis=-1)


def fft_recursive(x):
    """Recursive decimation-in-time reference for the exact FFT.

    Transforms along the last axis, so one sequence or a ``(rows, N)`` array.
    Each level combines its half transforms with one complex product per
    odd-branch bin, ``t = W^k * odd``, and the two sums ``even + t`` and
    ``even - t``, taking its twiddles from the table of its own size.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    even = fft_recursive(x[..., 0::2])
    odd = fft_recursive(x[..., 1::2])
    t = twiddle_table(n).entries[: n // 2] * odd
    return np.concatenate([even + t, even - t], axis=-1)


def direct_exact_surface(surv, ref, l_bins, n):
    """Triple-loop evaluation of the exact ambiguity surface."""
    surv = np.asarray(surv, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    out = np.zeros((l_bins, n), dtype=complex)
    for l in range(l_bins):
        for p in range(n):
            acc = 0.0 + 0.0j
            for i in range(n):
                r = ref[i - l] if i - l >= 0 else 0.0
                acc += surv[i] * np.conj(r) * np.exp(-2j * np.pi * i * p / n)
            out[l, p] = acc
    return out
