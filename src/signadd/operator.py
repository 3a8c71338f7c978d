"""Sign-additive product: a multiplication-free replacement for scalar products.

The scalar operation maps a pair of reals to ``sign(a*b) * (|a| + |b|)``,
i.e. the magnitudes add where an ordinary product would multiply them, and
the three-valued sign of the would-be product is kept.  The complex
extension applies the real operation to the four component pairs the same
way a complex multiplication would.

Costs are stated in the operator's own currency by :class:`OpCountReport`:
one real application is 1 sign, 2 absolute values and 1 addition; one
complex application is 4 real applications plus 2 combining additions,
i.e. 4 signs, 8 absolute values and 6 additions.  The kernels here count
nothing; each transform reports its analytic cost as an ``OpCountReport``
and counts of separate computations combine with ``+``.

All functions accept scalars or numpy arrays (broadcasting applies) and
reject NaN/Inf operands, because the sign of a non-finite product is
meaningless and would silently corrupt anything built on top.

The float range has one rule, :func:`float_range`: finite in, finite out,
or one :class:`DomainError`.  Magnitudes grow by addition at every
application, so finite operands can still leave the range.  The products
here, the four transforms, the two lag products, ``compute_ambiguity`` and
``synth_surveillance`` each run under the rule, which turns numpy's
overflow and invalid-value flags into that error, naming the function.
Where rules nest, the outermost names the error and the innermost
function follows in parentheses, with numpy's message.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import astuple, dataclass

import numpy as np

__all__ = [
    "ContractError",
    "DomainError",
    "OpCountReport",
    "float_range",
    "mf_sign",
    "mf_real",
    "mf_complex",
    "vector_product",
    "scalar_vector",
]


class DomainError(ValueError):
    """An operand is NaN or infinite."""


class ContractError(ValueError):
    """A call violates an interface precondition (shape, size, range)."""


class _RangeError(DomainError):
    """A ``float_range`` failure.  Its cause names the innermost rule and
    carries numpy's message; every outer rule keeps that cause."""


@contextmanager
def float_range(what: str):
    """Context manager and decorator: under it, a float overflow or invalid
    operation raises one ``DomainError`` naming ``what``.  Nested rules keep
    the innermost rule's name and numpy's message in parentheses."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, _RangeError) as exc:
        where = exc.__cause__ or FloatingPointError(f"{what}: {exc}")
        raise _RangeError(f"{what} overflows the float range ({where})") from where


@dataclass(frozen=True)
class OpCountReport:
    """Operation counts of a computation under the operator's cost model."""

    sign_ops: int = 0
    abs_ops: int = 0
    add_ops: int = 0
    complex_mf_ops: int = 0
    complex_mul_ops: int = 0

    @classmethod
    def real(cls, n: int) -> "OpCountReport":
        """``n`` real sign-additive applications."""
        return cls(sign_ops=n, abs_ops=2 * n, add_ops=n)

    @classmethod
    def complex(cls, n: int) -> "OpCountReport":
        """``n`` complex sign-additive applications."""
        return cls(sign_ops=4 * n, abs_ops=8 * n, add_ops=6 * n, complex_mf_ops=n)

    @classmethod
    def complex_mul(cls, n: int) -> "OpCountReport":
        """``n`` ordinary complex multiplications."""
        return cls(complex_mul_ops=n)

    def __add__(self, other: "OpCountReport") -> "OpCountReport":
        return OpCountReport(*(a + b for a, b in zip(astuple(self), astuple(other))))


def _require_finite(name: str, *values) -> None:
    if not all(np.isfinite(v).all() for v in values):  # a complex value: both parts
        raise DomainError(f"{name}: values must be finite (no NaN/Inf)")


def _sign_product(a, b):
    # Defined on the operand signs, never on the float product: computing
    # a*b could underflow to 0 or overflow to inf and corrupt the sign.
    return np.sign(a) * np.sign(b)


def _mf_real_raw(a, b):
    return _sign_product(a, b) * (np.abs(a) + np.abs(b))


def _mf_complex_raw(ar, ai, br, bi):
    rr = _mf_real_raw(ar, br) - _mf_real_raw(ai, bi)
    ri = _mf_real_raw(ai, br) + _mf_real_raw(bi, ar)
    return rr, ri


def _mf_complex_laid(w_parts, b):
    """``_mf_complex_raw(w, b)`` of a complex ``b``, with ``w`` given as its parts.

    ``w_parts`` are the signs ``s_wr, s_wi`` and magnitudes ``m_wr, m_wi`` of
    ``w``'s components, each laid out over (or broadcasting to) the float
    view ``(..., 2)`` of ``b``.
    The result equals ``_mf_complex_raw`` term for term, zeros of both signs
    included, up to exact commutations (DECISIONS.md 13).
    """
    s_wr, s_wi, m_wr, m_wi = w_parts
    f = b[..., None].view(float)
    S, M = np.sign(f), np.abs(f)
    q, p = s_wi * S, m_wr + M
    S *= s_wr
    M += m_wi
    p *= S  # (s_wr*S)*(m_wr+M)
    q *= M  # (s_wi*S)*(m_wi+M)
    t = np.empty(b.shape, dtype=complex)
    np.subtract(p[..., 0], q[..., 1], out=t.real)
    np.add(q[..., 0], p[..., 1], out=t.imag)
    return t


def mf_sign(a, b):
    """Three-valued sign of the product a*b: +1, -1, or 0 if either is zero.

    Returns a Python int for scalar inputs, an integer array otherwise.
    """
    _require_finite("mf_sign", a, b)
    s = _sign_product(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return int(s) if s.ndim == 0 else s.astype(int)


@float_range("mf_real")
def mf_real(a, b):
    """Sign-additive product of two reals: ``sign(a*b) * (|a| + |b|)``."""
    _require_finite("mf_real", a, b)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = _mf_real_raw(a, b)
    return float(out) if out.ndim == 0 else out


@float_range("mf_complex")
def mf_complex(a, b):
    """Complex sign-additive product.

    Mirrors complex multiplication with every real product replaced:
    ``(ar (*) br - ai (*) bi) + j(ai (*) br + bi (*) ar)`` where ``(*)`` is
    the real sign-additive product.  One call per element costs 4 signs,
    8 absolute values and 6 additions.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    _require_finite("mf_complex", a, b)
    rr, ri = _mf_complex_raw(a.real, a.imag, b.real, b.imag)
    out = rr + 1j * ri
    return complex(out) if out.ndim == 0 else out


@float_range("vector_product")
def vector_product(x, y) -> float:
    """Sum of element-wise sign-additive products of two equal-length vectors.

    For ``x == y`` this is twice the l1 norm of ``x``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError(
            f"vector_product: need two 1-d vectors of equal length, "
            f"got shapes {x.shape} and {y.shape}"
        )
    if x.size < 1:
        raise ContractError("vector_product: vectors must have length >= 1")
    _require_finite("vector_product", x, y)
    return float(np.sum(_mf_real_raw(x, y)))


@float_range("scalar_vector")
def scalar_vector(a, x) -> np.ndarray:
    """Apply the sign-additive product of a scalar against each element."""
    _require_finite("scalar_vector", a, x)
    x = np.asarray(x, dtype=float)
    return _mf_real_raw(float(a), x)
