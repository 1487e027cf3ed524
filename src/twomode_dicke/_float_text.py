"""``"%.17g" % v`` for a whole float64 array at once, with the same strings.

For a finite v with 1e-280 <= |v| <= 1e280 the 17 significant digits are the
integer N nearest to s = |v| 10^(16 - x), x = floor(log10 |v|), which lies in
[1e16, 1e17).  s is formed as a double-double (hi, lo) (Dekker, Numer. Math.
18, 224 (1971)): 10^k is held as two correctly rounded floats of the exact
power, and |v| times their sum is a Veltkamp-split TwoProduct (NumPy has no
fma) plus the rounded low product, within about 1e-14 of the exact s.  N is s
rounded half to even.  Where the fraction of s is within 1e-6 of one half that
rounding is not certified, and such a cell, like every cell outside the range
above (NaN, +-inf, +-0, tiny or huge values), is formatted by ``"%.17g"``
itself, CPython's correctly rounded dtoa (Gay, AT&T Numerical Analysis
Manuscript 90-10 (1990)); NaN is the empty string.  The digits of N are laid
out by the ``%g`` rules into a slot-major byte array, zero in unused slots,
which one ``bytes.translate`` compacts into the text of every cell.
"""

from __future__ import annotations

import functools

import numpy as np

#: |v| outside [_LOW, _HIGH] takes the fallback: every product and split below
#: then stays a normal float.
_LOW, _HIGH = 1e-280, 1e280
#: A fraction of s within this of 1/2 is an uncertain rounding; the error of
#: the double-double s is about 1e-14.
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for float64
#: Slots per cell: sign, "0.000" of a fixed value below 1, 17 digits each
#: followed by a decimal-point slot, "e+XXX", and the separator.
_DIGIT0, _EXP0, _SLOTS = 6, 40, 46
_SEPARATOR = ","  # never part of a %g string


@functools.cache
def _power(k: int) -> tuple[float, float]:
    """(hi, lo): 10^k = hi + lo to about 106 bits, each part the correctly
    rounded float of the exact rational (int / int is correctly rounded)."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The tens and the ones digit of 0..99, as two 100-entry uint8 tables."""
    return (np.frombuffer(bytes(i // 10 for i in range(100)), dtype=np.uint8),
            np.frombuffer(bytes(i % 10 for i in range(100)), dtype=np.uint8))


def _split(a):
    """Veltkamp's split of a into a high and a low part of 26 bits each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a, k):
    """a 10^k as a normalized double-double (h, l), for integer arrays k."""
    k_min = int(k.min())
    pow_hi, pow_lo = np.array([_power(j) for j in range(k_min, int(k.max()) + 1)]).T
    p_hi, p_lo = pow_hi[k - k_min], pow_lo[k - k_min]
    prod = a * p_hi
    a_h, a_l = _split(a)
    b_h, b_l = _split(p_hi)
    err = ((a_h * b_h - prod) + a_h * b_l + a_l * b_h) + a_l * b_l
    err += a * p_lo
    h = prod + err
    return h, err - (h - prod)


def _significand(a):
    """(N, x, certain) for |v| = a in [_LOW, _HIGH]: N the 17 significant digits
    as an integer in [1e16, 1e17) and x the decimal exponent, so that a rounds
    to N 10^(x - 16); certain is False where the rounding is not certified."""
    x = np.floor(np.log10(a)).astype(np.int64)
    h, l = _scaled(a, 16 - x)
    # the guess for x may be one off near a power of ten: renormalize s into [1e16, 1e17)
    for _ in range(2):
        up = (h > 1e17) | ((h == 1e17) & (l >= 0.0))
        down = (h < 1e16) | ((h == 1e16) & (l < 0.0))
        shift = up.astype(np.int64) - down
        if not shift.any():
            break
        x += shift
        h, l = _scaled(a, 16 - x)
    floor_l = np.floor(l)
    frac = l - floor_l
    n17 = h.astype(np.int64) + floor_l.astype(np.int64) + (frac > 0.5)
    certain = (np.abs(frac - 0.5) >= _TIE_MARGIN) & (n17 >= 10 ** 16) & (n17 <= 10 ** 17)
    carry = n17 == 10 ** 17
    n17[carry] = 10 ** 16
    x += carry
    return n17, x, certain


def _digits(n17):
    """The 17 decimal digits of n17 in [1e16, 1e17) as a (17, m) uint8 array,
    and the count of significant digits, trailing zeros dropped.  The leading
    digit comes first, then eight groups of two, four from each half."""
    lead = n17 // 10 ** 16
    rest = n17 - lead * 10 ** 16
    upper = rest // 10 ** 8
    r = np.stack((upper, rest - upper * 10 ** 8))
    groups = np.empty((4,) + r.shape, dtype=np.int64)
    for i, scale in enumerate((10 ** 6, 10 ** 4, 10 ** 2)):
        groups[i] = r // scale
        r -= groups[i] * scale
    groups[3] = r
    groups = groups.transpose(1, 0, 2).reshape(8, -1)
    tens, ones = _digit_tables()
    digits = np.empty((17, n17.size), dtype=np.uint8)
    digits[0] = lead
    digits[1::2], digits[2::2] = tens[groups], ones[groups]
    position = np.arange(1, 18, dtype=np.uint8)[:, None]
    return digits, np.max((digits != 0) * position, axis=0).astype(np.int64)


def g17(values: np.ndarray) -> list[str]:
    """["%.17g" % v for v in values], with "" for NaN, for a 1-D float64 array."""
    values = np.asarray(values, dtype=np.float64)
    m = values.size
    if not m:
        return []
    a = np.abs(values)
    fast = (a >= _LOW) & (a <= _HIGH)  # False for NaN, +-inf and +-0 too
    n17, x, certain = _significand(np.where(fast, a, 1.0))
    fast &= certain
    digits, n_sig = _digits(n17)

    fixed = (x >= -4) & (x < 17)
    whole = fixed & (x >= 0)
    below_one = fixed & (x < 0)
    exponential = ~fixed
    kept = np.where(whole, np.maximum(n_sig, x + 1), n_sig)
    # the decimal point follows digit `point`: x in fixed notation, 0 in exponential
    point = np.where(whole & (n_sig > x + 1), x, np.where(exponential & (n_sig > 1), 0, -1))

    buf = np.empty((_SLOTS, m), dtype=np.uint8)
    buf[0] = (values < 0.0) * np.uint8(ord("-"))
    buf[1] = below_one * np.uint8(ord("0"))
    buf[2] = below_one * np.uint8(ord("."))
    for slot, bound in zip((3, 4, 5), (-2, -3, -4)):
        buf[slot] = (fixed & (x <= bound)) * np.uint8(ord("0"))
    index = np.arange(17)[:, None]
    buf[_DIGIT0:_EXP0:2] = (digits + np.uint8(ord("0"))) * (index < kept)
    buf[_DIGIT0 + 1:_EXP0:2] = (index == point) * np.uint8(ord("."))
    buf[_EXP0] = exponential * np.uint8(ord("e"))
    buf[_EXP0 + 1] = exponential * np.where(x < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    magnitude = np.abs(x)
    exp_digits = np.stack((magnitude // 100, magnitude // 10 % 10, magnitude % 10))
    shown = exponential & (magnitude >= np.array([[100], [0], [0]]))  # at least two digits
    buf[_EXP0 + 2:_EXP0 + 5] = (exp_digits + ord("0")).astype(np.uint8) * shown
    buf[_SLOTS - 1] = ord(_SEPARATOR)
    slow = np.flatnonzero(~fast)
    buf[:-1, slow] = 0

    text = buf.T.tobytes().translate(None, b"\0").decode("ascii").split(_SEPARATOR)
    text.pop()
    for i, v in zip(slow.tolist(), values[slow].tolist()):
        text[i] = "" if v != v else "%.17g" % v
    return text
