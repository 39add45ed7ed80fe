"""The bytes of ``"%.17g" % x`` for a table of doubles, formed in numpy.

A cell's 17 significant digits are the integer N = round-half-even(|x| 10^(16 - X)),
where the decimal exponent X is fixed by the exact bounds
10^16 <= |x| 10^(16 - X) < 10^17, and N = 10^17 carries into X + 1.  The
product is formed in double-double arithmetic: 10^(16 - X) is held as a
pair hi + lo, exact to 2^-106, and |x| hi by Dekker's exact double-length
product (Dekker, *A floating-point technique for extending the available
precision*, 1971).  N is then known to about 1e-14 of a unit, so its
rounding is exact except within TIE_MARGIN of a tie.  Those cells, and
non-finite values, subnormals and |x| outside [LOW, HIGH], are written by
``"%.17g"`` itself.

The digits come from a table of 4-digit strings and are laid out by
Python's 'g' rule: fixed notation for -4 <= X < 17, with "0." and leading
zeros below 1, scientific notation otherwise, trailing zeros and a bare
point dropped, and exponents of at least 2 digits.  Each cell owns one
column of a (SLOTS, cells) byte array, whose rows are the slots of its
text: the sign, "0.000", 18 slots of digits and the point, "e", the
exponent's sign and 3 digits, and the separator.  One keep mask of the
same shape picks the slots the cell's text uses, cell after cell.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows"]

#: Cells per kernel call: bounds the arrays of a call to a few hundred KB
#: whatever the table's size.
CHUNK = 4096
LOW, HIGH = 1e-250, 1e250
#: Distance in units of N from a rounding tie below which a cell goes to
#: "%.17g"; the double-double error is about 1e-14 of a unit.
TIE_MARGIN = 1e-6
_XMAX = 252  # the table holds 10^(16 - X) for |X| <= _XMAX; X stays within +-251
_SPLIT = 134217729.0  # 2^27 + 1
_E16, _E17 = 10**16, 10**17
SLOTS = 30
_SLOT = np.arange(18, dtype=np.int8)[:, None]
_NO_POINT = 18


def _split(a):
    """Dekker's split of a into halves of 26 bits: a = high + low exactly."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _power(s: int) -> tuple[float, float]:
    """10^s as hi + lo: int / int division rounds correctly in Python."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


@functools.cache
def _tables():
    """The powers of ten as (hi, hi's split, lo); each 4-digit string's bytes
    as one 32-bit word; and, for each of the four groups of N's digits 2..17,
    the place of the group's last nonzero digit among the 17, 1 if none."""
    hi, lo = np.array([_power(16 - X) for X in range(-_XMAX, _XMAX + 1)]).T
    digit = np.arange(10_000) // np.array([1000, 100, 10, 1])[:, None] % 10
    four = np.ascontiguousarray((digit + ord("0")).astype(np.uint8).T).view("<u4").ravel()
    last = np.max((digit != 0) * np.arange(1, 5)[:, None], axis=0)
    significant = np.where(last > 0, 1 + 4 * np.arange(4)[:, None] + last, 1).astype(np.int8)
    return hi, _split(hi), lo, four, significant


def _scaled(ax, X):
    """ax 10^(16 - X) as r + d: r an integer, |d| a few units at most."""
    hi, (hi_h, hi_l), lo = _tables()[:3]
    k = X + _XMAX
    p = ax * hi[k]
    x_h, x_l = _split(ax)
    # p + err = ax * hi exactly
    err = ((x_h * hi_h[k] - p) + x_h * hi_l[k] + x_l * hi_h[k]) + x_l * hi_l[k]
    r = np.rint(p)
    return r, (p - r) + (err + ax * lo[k])


def _cells(x, sep):
    """The bytes of the cells x, each followed by its separator byte."""
    four, significant = _tables()[3:]
    ax = np.abs(x)
    plain = (ax >= LOW) & (ax <= HIGH)
    ax = np.where(plain, ax, 1.0)
    X = np.floor(np.log10(ax)).astype(np.int64)
    r, d = _scaled(ax, X)
    # log10 may miss the exact bounds by one
    below, above = (r - 1e16) + d < 0.0, (r - 1e17) + d >= 0.0
    fix = np.flatnonzero(below | above)
    if fix.size:
        X[fix] += np.where(above[fix], 1, -1)
        r[fix], d[fix] = _scaled(ax[fix], X[fix])
    n = np.rint(d)
    tie = np.abs(np.abs(d - n) - 0.5) < TIE_MARGIN
    N = r.astype(np.int64) + n.astype(np.int64)
    carry = N == _E17
    N[carry] = _E16
    X += carry
    zero = x == 0.0
    N[zero], X[zero] = 0, 0

    # N's digits as bytes in rows 1..17 of D, t of them significant; the
    # zero's N = 0 has one, "0"
    first = N // _E16
    rest = N - first * _E16
    upper = rest // 10**8
    groups = []
    for eight in (upper, rest - upper * 10**8):
        high = eight // 10**4
        groups += [high, eight - high * 10**4]
    D = np.empty((19, x.size), np.uint8)
    D[1] = first + ord("0")
    t = np.ones(x.size, np.int8)
    for k, group in enumerate(groups):
        D[2 + 4 * k:6 + 4 * k] = four.take(group).view(np.uint8).reshape(-1, 4).T
        np.maximum(t, significant[k].take(group), out=t)
    fixed = (X >= -4) & (X < 17)
    whole = np.where(fixed, X + 1, 1)  # digits before the point; "0." and zeros if <= 0
    count = np.maximum(t, whole).astype(np.int8)
    point = np.where((whole > 0) & (count > whole), whole, _NO_POINT).astype(np.int8)
    aX = np.abs(X)

    B = np.empty((SLOTS, x.size), np.uint8)
    keep = np.empty((SLOTS, x.size), bool)
    B[0] = ord("-")
    keep[0] = np.signbit(x)
    B[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None]
    keep[1:6] = _SLOT[:5] < np.where(whole > 0, 0, 2 - whole).astype(np.int8)
    # slot j holds digit j before the point and digit j - 1 after it;
    # D's spare rows 0 and 18 are multiplied by 0 or dropped
    B[6:24] = D[1:] * (_SLOT < point).view(np.uint8)
    B[6:24] += D[:-1] * (_SLOT > point).view(np.uint8)
    B[6:24] += (_SLOT == point).view(np.uint8) * np.uint8(ord("."))
    keep[6:24] = _SLOT < count + (point < _NO_POINT)
    B[24] = ord("e")
    B[25] = np.where(X < 0, ord("-"), ord("+"))
    B[26:29] = four.take(aX).view(np.uint8).reshape(-1, 4)[:, 1:].T
    keep[24:29] = ~fixed
    keep[26] &= aX >= 100
    B[29] = sep
    keep[29] = True

    for i in np.flatnonzero(~(plain | zero) | (tie & plain)):
        text = np.frombuffer(("%.17g" % x[i]).encode(), np.uint8)
        B[:text.size, i] = text
        keep[:-1, i] = False
        keep[:text.size, i] = True
    # no kept byte is NUL, so the mask zeroes the others, which are deleted
    B *= keep
    return B.T.tobytes().translate(None, b"\0")


def format_rows(table) -> str:
    """The rows of a 2-D table as text: each cell ``"%.17g" % x``, "," between
    cells and "\\n" after each row, formed CHUNK cells at a time."""
    table = np.asarray(table, dtype=float)
    n_rows, n_cols = table.shape
    per = max(1, CHUNK // n_cols)
    sep = np.full(n_cols, ord(","), np.uint8)
    sep[-1] = ord("\n")
    sep = np.tile(sep, min(per, n_rows))
    return b"".join(
        _cells(table[i:i + per].ravel(), sep[: min(per, n_rows - i) * n_cols])
        for i in range(0, n_rows, per)
    ).decode("ascii")
