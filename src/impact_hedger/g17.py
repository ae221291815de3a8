"""``%.17g`` text of float64 arrays, computed with numpy.

A nonzero value v has the 17 significant digits D = round(|v| 10^(16-E)),
where E = floor(log10 |v|) makes 10^16 <= |v| 10^(16-E) < 10^17.  The
product is formed as an unevaluated double-double p + r: Dekker's exact
product of |v| with the double nearest 10^(16-E), plus |v| times that
double's remainder.  p + r is within 2^-46 of the exact product, so E is
fixed on p + r itself and D is decided exactly unless the fraction of
p + r lies within 2^-40 of one half.  Those cells (exact ties among them)
and every |v| outside [1e-250, 1e250] are formatted by Python's
``format(v, ".17g")``, so every byte is that of per-cell ``%.17g``.

Each value becomes one slot of ``SLOT`` bytes: its text, NUL padding, and
a last byte left to the caller (a separator).  The tables are built on
first use, so importing this module costs no table.
"""
from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

SLOT = 32
_VOID = np.dtype((np.void, SLOT))
_LOWEST, _HIGHEST = 1e-250, 1e250  # |v| formatted by numpy
_KMIN, _KMAX = 16 - 252, 16 + 252  # exponents of 10^(16-E) those |v| need
_XMIN, _XMAX = -324, 308  # decimal exponents of the finite doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_NEAR_HALF = 2.0**-40
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into halves of 26 bits, hi + lo == x."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@lru_cache(maxsize=None)
def _tables() -> SimpleNamespace:
    """10^k as hi + lo for every k needed, and the text tables of the layout."""
    powers, remainders = [], []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            exact = 10**k
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            q = 10**-k
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (den * q)  # 10^k - hi, correctly rounded
        powers.append(hi)
        remainders.append(lo)
    hi = np.array(powers)
    hi_hi, hi_lo = _split(hi)
    # text of 0..9999 in four bytes, then the same with its trailing zeros
    # made NUL, for a group that ends the significant digits
    i = np.arange(10000, dtype=np.uint16)
    quad = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    quad = (quad + _ZERO).astype(np.uint8)
    ending = quad.copy()
    for j in range(4):
        tail = np.all(quad[:, j:] == _ZERO, axis=1)
        ending[tail, j] = 0
    # the exponent suffix of each decimal exponent, NUL padded
    suffix = np.array([b"e%+03d" % e for e in range(_XMIN, _XMAX + 1)], dtype="S6")
    return SimpleNamespace(
        hi=hi,
        hi_hi=hi_hi,
        hi_lo=hi_lo,
        lo=np.array(remainders),
        # read back through a byte view, so byte order does not matter
        quad=np.concatenate((quad, ending)).view(np.uint32).ravel(),
        suffix=suffix.view(np.uint8).reshape(-1, 6),
    )


def _scaled(a: np.ndarray, e: np.ndarray, t: SimpleNamespace):
    """p + r = a 10^(16-e), p = fl(a hi) and r its error plus a lo."""
    i = 16 - e - _KMIN
    hi, b_hi, b_lo = t.hi[i], t.hi_hi[i], t.hi_lo[i]
    p = a * hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err + a * t.lo[i]


def _off(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """+1 where p + r >= 10^17, -1 where p + r < 10^16, else 0 (signs exact)."""
    return ((p - 1e17) + r >= 0).astype(np.int8) - ((p - 1e16) + r < 0)


def _decimal(v: np.ndarray, t: SimpleNamespace):
    """17 digits D and exponent E of each value, and where Python must format it."""
    a = np.abs(v)
    numeric = (a >= _LOWEST) & (a <= _HIGHEST)
    zero = a == 0
    a[~numeric] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e, t)
    # log10 may be one off next to a power of ten: move those cells once;
    # any still off (not expected) goes to Python
    step = _off(p, r)
    moved = np.flatnonzero(step)
    e[moved] += step[moved]
    p[moved], r[moved] = _scaled(a[moved], e[moved], t)
    whole = np.floor(r)
    frac = r - whole
    python = ~(numeric | zero) | (np.abs(frac - 0.5) < _NEAR_HALF)
    python[moved[_off(p[moved], r[moved]) != 0]] = True
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    return d, e, python


def _digit_text(d: np.ndarray, t: SimpleNamespace) -> np.ndarray:
    """(n, 17) characters of D; zeros that end the significant digits are NUL."""
    top = d // 10**16
    rest = d - top * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    # byte 3 is the leading digit, then four groups of four digits; a group
    # followed only by zero groups takes its text from the second half of
    # the table
    text = np.empty((d.size, 20), np.uint8)
    text[:, 3] = top + _ZERO
    words = text.view(np.uint32)
    g = hi8 // 10000
    words[:, 1] = t.quad[g + 10000 * ((hi8 == g * 10000) & (lo8 == 0))]
    words[:, 2] = t.quad[hi8 - g * 10000 + 10000 * (lo8 == 0)]
    g = lo8 // 10000
    words[:, 3] = t.quad[g + 10000 * (lo8 == g * 10000)]
    words[:, 4] = t.quad[lo8 - g * 10000 + 10000]
    return text[:, 3:]


def g17_slots(values) -> np.ndarray:
    """``(n, SLOT)`` bytes: the ``%.17g`` text of each finite value, NUL padded.

    The last byte of every slot is NUL.  Values are read in C order.
    """
    t = _tables()
    v = np.ravel(np.asarray(values, dtype=np.float64))
    n = v.size
    d, e, python = _decimal(v, t)
    # lay out the cells grouped by notation: fixed with exponent -4..16
    # (groups 0..20), then the exponent form (group 21)
    key = np.where((e >= -4) & (e <= 16), e + 4, 21).astype(np.int8)
    order = np.argsort(key, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=22))))
    digits = _digit_text(d[order], t)
    e = e[order]

    # a fixed integer part keeps its zeros (| '0' turns NUL back into '0');
    # the point shows when a digit follows it
    out = np.zeros((n, SLOT), np.uint8)
    out[:, 0] = np.signbit(v)[order].view(np.uint8) * np.uint8(_MINUS)
    for group in range(22):
        rows = slice(bounds[group], bounds[group + 1])
        if rows.start == rows.stop:
            continue
        x = group - 4 if group < 21 else 0  # the exponent form is laid out as E = 0
        if x >= 0:
            out[rows, 1 : x + 2] = digits[rows, : x + 1] | np.uint8(_ZERO)
            if x < 16:
                out[rows, x + 2] = (digits[rows, x + 1] != 0).view(np.uint8) * np.uint8(_DOT)
                out[rows, x + 3 : 19] = digits[rows, x + 1 :]
        else:
            out[rows, 1:3] = (_ZERO, _DOT)
            out[rows, 3 : 2 - x] = _ZERO
            out[rows, 2 - x : 19 - x] = digits[rows]
    rows = slice(bounds[21], n)
    out[rows, 19:25] = t.suffix[e[rows] - _XMIN]

    back = np.empty_like(order)
    back[order] = np.arange(n)
    slots = out.view(_VOID).ravel().take(back).view(np.uint8).reshape(n, SLOT)
    cells = np.flatnonzero(python)
    if cells.size:
        text = [format(x, ".17g") for x in v[cells].tolist()]
        slots[cells] = np.array(text, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)
    return slots
