"""The CSV writer: every CSV the command line writes comes from here.

Columns become numpy byte matrices a slice of rows at a time: floats as
``repr``, integers as ``str`` and text as ``str`` with the minimal quoting
of Python's ``csv`` module, so the bytes are those its row-by-row writer
with ``lineterminator="\\n"`` would write (``DECISIONS.md`` entries 15,
17, 18 and 20).
"""

import numpy as np

_CSV_SLICE_ROWS = 8192  # rows formatted at a time, bounding the byte matrix held


def _split(a: np.ndarray):
    """Dekker's split: ``a = hi + lo`` with halves of at most 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# 10**j exactly (floats for j < 23, integers for j < 20), the floats indexed by
# 16 - E for the exponents E = -5..16 a log10 estimate gives.
_SCALE = np.array([float(10**j) for j in range(22)])
_POW10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)
_POW10_32 = _POW10[:10].astype(np.uint32)
_EXPONENT_BITS = np.uint64(0x7FF << 52)  # of a double


def _scaled(a: np.ndarray, e: np.ndarray):
    """``a * 10**(16-e)`` exactly, as Dekker's two-product ``hi + lo``."""
    scale = _SCALE[16 - e]
    hi = a * scale
    (ah, al), (sh, sl) = _split(a), _split(scale)
    return hi, al * sl - (((hi - ah * sh) - al * sh) - ah * sl)


def _exponent(a: np.ndarray):
    """``E = floor(log10(a))`` exactly, with ``a * 10**(16-E)`` in
    ``[1e16, 1e17)`` as ``hi + lo``, for ``1e-4 <= a < 1e16``."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if low.any() or high.any():  # log10 rounded across a power of ten
        e += high.astype(np.int64) - low
        hi, lo = _scaled(a, e)
    return e, hi, lo


def _digits(v: np.ndarray, d: np.ndarray, lead: bool) -> None:
    """Write the characters of the ``len(d)`` decimal digits of uint64
    ``v < 10**len(d)`` into the rows of uint8 ``d``, one column per cell,
    from floor division by scalar powers of ten, nine digits at a time in
    uint32.  Leading zeros (``lead``) or trailing zeros become NUL, except
    the last or first digit."""
    for stop in range(len(d), 0, -9):
        w, low = min(stop, 9), v
        if stop > 9:  # the digits above these nine remain in v
            v = v // _POW10[9]
            low = low - v * _POW10[9]
        chunk = low.astype(np.uint32)
        # the quotients' low bytes; mod 256 a digit is its quotient less ten
        # times the quotient above it
        block = d[stop - w : stop]
        for j in range(w):
            block[j] = chunk // _POW10_32[w - 1 - j]
        block[1:] -= block[:-1] * np.uint8(10)
    keep = d != 0  # then: a nonzero digit lies at or before (lead) or after it
    keep[-1 if lead else 0] = True
    for j in range(1, len(d)) if lead else range(len(d) - 2, -1, -1):
        keep[j] |= keep[j - 1 if lead else j + 1]
    d += 48
    d *= keep


def _signed_field(neg: np.ndarray, v: np.ndarray, rows_after: int):
    """An uninitialised uint8 field, one column per cell, whose rows are a
    ``-`` row (only where some cell is negative), the digits of uint64 ``v``
    (leading zeros NUL) and ``rows_after`` rows; and the index of the first
    of those."""
    sign, width = int(neg.any()), len(str(v.max()))
    field = np.empty((sign + width + rows_after, v.size), np.uint8)
    if sign:
        field[0] = neg * np.uint8(45)
    _digits(v, field[sign : sign + width], lead=True)
    return field, sign + width


def _shortest(n: np.ndarray, frac: np.ndarray, half_ulp: np.ndarray) -> np.ndarray:
    """Shortest digits as 17-digit integers ending in zeros, inside
    ``v +- half_ulp`` around ``v = n + frac`` (``DECISIONS.md`` entry 15):
    the multiple of 100 inside if there is one (there is at most one, and
    a multiple of any higher power of ten inside is that one), else the
    nearer multiple of ten inside (half-even), else ``n``."""
    # the integers inside (frac +- half_ulp is exact; open or closed ends never matter)
    upper = (n.view(np.int64) + np.floor(frac + half_ulp).astype(np.int64)).view(np.uint64)
    lower = (n.view(np.int64) + np.ceil(frac - half_ulp).astype(np.int64)).view(np.uint64)
    q = n // np.uint64(10)
    twice_r = (n - q * np.uint64(10)) * np.uint64(2)
    odd_q = q & np.uint64(1) == 1
    up = (twice_r > 10) | ((twice_r == 10) & ((frac > 0) | ((frac == 0) & odd_q)))
    tens = (q + up) * np.uint64(10)
    hundreds = upper // np.uint64(100) * np.uint64(100)
    return np.where(hundreds >= lower, hundreds,
                    np.where((lower <= tens) & (tens <= upper), tens, n))


def _float_field(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 cell as NUL-padded uint8 characters, one
    column per cell.

    Cells with ``1e-4 <= |x| < 1e16`` and a mantissa that is not a power of
    two take their shortest round-trip digits from exact integer arithmetic
    (``DECISIONS.md`` entry 15); the others are written by ``repr``.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0)
    a = np.where(ok, a, 1.0)  # a placeholder where repr writes the cell
    e, hi, lo = _exponent(a)
    # hi is an even integer (its ulp is at least 2), so adding rint(lo) rounds half-even.
    rlo = np.rint(lo)
    n = (hi.astype(np.int64) + rlo.astype(np.int64)).view(np.uint64)
    # half an ulp of each (normal) a: its exponent less 53, over a zero mantissa
    half_ulp = ((a.view(np.uint64) & _EXPONENT_BITS) - np.uint64(53 << 52)).view(np.float64)
    c = _shortest(n, lo - rlo, half_ulp * _SCALE[16 - e])
    ip = a.astype(np.uint64)  # the integer part of c * 10**(e-16) (entry 15)
    # the fraction's digits, moved to the top of 17 columns: c * 10**(e+1) less
    # ip * 10**17, below 10**17 and so exact in wrapping uint64 (ip is 0 where e < 0)
    tail = c * _POW10[np.maximum(e + 1, 0)] - ip * _POW10[17]
    zeros = max(0, -1 - int(e.min()))  # rows of leading fraction zeros some cell needs
    field, dot = _signed_field(x < 0, ip, 1 + zeros + 17)
    field[dot] = 46
    field[dot + 1 : -17] = np.where(np.arange(zeros)[:, None] < -e - 1, np.uint8(48), np.uint8(0))
    _digits(tail, field[-17:], lead=False)
    rows = np.flatnonzero(~ok)
    reps = _text_field(map(repr, x[rows].tolist()))
    if len(reps) > len(field):
        field = np.vstack([field, np.zeros((len(reps) - len(field), x.size), np.uint8)])
    field[:, rows] = 0
    field[: len(reps), rows] = reps
    return field


def _text_field(cells) -> np.ndarray:
    """Strings as a NUL-padded uint8 matrix, one column per string."""
    cells = np.array([c.encode() for c in cells], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, cells.itemsize).T


def _quoted(cell: str) -> str:
    """``cell`` quoted as by the ``csv`` module: in ``"``, ``"`` doubled, if it holds ``,"\\n``."""
    quote = "," in cell or '"' in cell or "\n" in cell
    return '"' + cell.replace('"', '""') + '"' if quote else cell


def _cell_field(col: np.ndarray) -> np.ndarray:
    """A CSV column's cells, floats as ``repr``, integers as ``str`` and the
    rest as ``str`` through ``_quoted``, as a NUL-padded uint8 matrix with
    one column per cell."""
    if col.dtype.kind == "f":
        return _float_field(col.astype(np.float64))
    if col.dtype.kind in "iu":
        u = col.astype(np.uint64)  # two's complement for negative cells
        return _signed_field(col < 0, np.where(col < 0, np.uint64(0) - u, u), 0)[0]
    return _text_field(_quoted(str(c)) for c in col.tolist())


def _csv_bytes(header: list[str], columns: list, manifest_name: str):
    """CSV of equal-length columns, cells as ``_cell_field`` writes them,
    yielded as the header's bytes and then one ``bytes`` per slice."""
    columns = [np.asarray(col) for col in columns]
    return _csv_slices(header, len(columns[0]), lambda s: [c[s] for c in columns], manifest_name)


def _csv_slices(header: list[str], rows: int, columns_of, manifest_name: str):
    """``_csv_bytes`` of ``rows`` rows, taking the columns of each slice ``s``
    of ``_CSV_SLICE_ROWS`` rows from ``columns_of(s)`` when its bytes are due.

    Each slice of rows becomes one row-major byte matrix: per column its
    NUL-padded cells, then a ``,`` or ``\\n``; without the NULs it is the
    slice's text (``DECISIONS.md`` entries 15, 17, 18 and 20).
    """
    yield f"# manifest={manifest_name}\n{','.join(header)}\n".encode()
    for r0 in range(0, rows, _CSV_SLICE_ROWS):
        fields = [_cell_field(col) for col in columns_of(slice(r0, r0 + _CSV_SLICE_ROWS))]
        matrix = np.full((fields[0].shape[1], sum(len(f) + 1 for f in fields)), ord(","), np.uint8)
        end = 0
        for field in fields:
            matrix[:, end : end + len(field)] = field.T
            end += len(field) + 1
        matrix[:, -1] = ord("\n")
        yield matrix[matrix != 0].tobytes()
