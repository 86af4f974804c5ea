"""repr's text of whole float64 arrays, computed with array operations.

The digits, the fewest that read back as the same double and the nearest of
those, come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): three exact products of a 64-bit integer and a 126-bit
power of ten per value, built here from 32-bit limbs. A value's text lies in
a slot of SLOT bytes, padded with FILL bytes; compress drops them all at once.
"""

from __future__ import annotations

import functools

import numpy as np

SLOT = 24
FILL = np.uint8(0xFF)

# Under numpy 1.x a uint64 array and a Python int combine to float64, and a
# shift of one by the other raises: every uint64 operand is a uint64.
_U = np.uint64
_32, _M32, _M63 = _U(32), _U(2**32 - 1), _U(2**63 - 1)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_ZERO, _POINT, _MINUS, _PLUS, _E = (np.uint8(ord(char)) for char in "0.-+e")


@functools.cache
def _scales():
    """Schubfach's k, h + 2, offsets (2 or 1, and 2) << h to the interval's ends, and
    g = floor(10**-k * 2**-r) + 1 in [2**125, 2**126) as g >> 63, its limbs and those of
    g mod 2**63; at biased exponent e, + 2048 if the lower neighbour is half as far."""
    e = np.arange(4096) % 2048
    irregular = (np.arange(4096) >= 2048) & (e > 1)
    q = np.maximum(e, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10((3/4 or 1) 2**q))
    h = q + (-k * 913124641741 >> 38) + 2  # floor(log2(10**-k)) + q + 2
    g = [(10**max(-j, 0) << max(-r, 0)) // (10**max(j, 0) << max(r, 0)) + 1
         for j in range(-324, 293) for r in [(-j * 913124641741 >> 38) - 125]]
    g1, g0 = (np.array([v >> s & 2**63 - 1 for v in g], np.uint64)[k + 324] for s in (63, 0))
    return (k, *(np.array(v, dtype=np.uint64) for v in (h + 2, (2 - irregular) << h, 2 << h)),
            g1, g1 >> _32, g1 & _M32, g0 >> _32, g0 & _M32)


@functools.cache
def _tables():
    """uint32 text of each four-digit group g, at 2g + 1, and with FILL after its
    last nonzero digit at 2g; uint64 of the bytes sign, `0.`, up to three
    zeros, first digit and FILL, at sign * 40 + zeros * 10 + digit."""
    text = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    kept = np.arange(4) < np.max(np.where(text > _ZERO, np.arange(1, 5), 0), axis=1)[:, None]
    (sign, zeros, digit), place = np.indices((2, 4, 10)).reshape(3, -1, 1), np.arange(8)
    prefix = np.select([place == 0, place < 2, place == 2, place < 3 + zeros, place == 6],
                       [np.where(sign, _MINUS, FILL), _ZERO, _POINT, _ZERO, digit + _ZERO], FILL)
    return (np.stack([np.where(kept, text, FILL), text], axis=1).view(np.uint32).reshape(-1),
            prefix.astype(np.uint8).view(np.uint64).reshape(-1))


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of (a1 * 2**32 + a0) * (b1 * 2**32 + b0), all limbs below 2**32."""
    mid = a1 * b0 + (a0 * b0 >> _32)
    return a1 * b1 + (mid >> _32) + (a0 * b1 + (mid & _M32) >> _32)


def _rop(g1, g1h, g1l, g0h, g0l, cp):
    """Giulietti's rop(g * cp * 2**-127): the floor, with its lowest bit set when inexact."""
    c1, c0 = cp >> _32, cp & _M32
    z = (g1 * cp >> _U(1)) + _mulhi(g0h, g0l, c1, c0)
    return _mulhi(g1h, g1l, c1, c0) + (z >> _U(63)) | (z << _U(1) != _U(0))


def _shortest(bits):
    """(f, k) with f * 10**k the shortest, nearest decimal of each positive finite double."""
    t, e = bits & _U(2**52 - 1), bits >> _U(52)
    index = (e + (t == _U(0)) * _U(2048)).astype(np.intp)
    k, shift, below, above, *g = (part[index] for part in _scales())
    c = np.where(e > _U(0), t | _U(2**52), t)
    cp, out = c << shift, c & _U(1)
    vb = _rop(*g, cp)
    # 4 * 10**-k times the ends of the interval that rounds to x, rounded to
    # odd: an even c keeps the ends, so those compare with `<=`.
    lower = _rop(*g, cp - below) + out + _U(3) >> _U(2)
    upper = _rop(*g, cp + above) - out >> _U(2)
    s = vb >> _U(2)  # s or s + 1 lies in [lower, upper], the 10**k multiples that round to x
    tens = upper // _U(10) * _U(10)  # a shorter decimal, if it lies there
    nearer = (vb & _U(3)) + (s & _U(1)) < _U(3)  # s is nearer than s + 1, or as near and even
    return np.where(tens >= lower, tens, s + ((s < lower) | (s < upper) & ~nearer)), k


def slots(values):
    """uint8 of shape values.shape + (SLOT,): repr of each finite value, padded with FILL."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    bits = x.view(np.uint64) & _M63
    zero = bits == _U(0)
    f, k = _shortest(np.where(zero, _U(1), bits))
    size = 16 + (f >= _U(10**16))  # the digits of f: 16 or 17 unless x is subnormal
    size[bits < _U(2**52)] = np.searchsorted(_POW10, f[bits < _U(2**52)], side="right")
    digits = np.where(zero, 0, (f * _POW10[17 - size]).view(np.int64))  # 17 digits; zero is 0.0
    decpt = np.where(zero, 1, k + size)  # x = 0.ddd * 10**decpt
    head, *cuts = (digits // 10**p for p in (16, 12, 8, 4))  # np.divmod and % run far slower
    quads = [b - a * 10**4 for a, b in zip([head, *cuts], [*cuts, digits])]  # four digits each
    groups, prefixes = _tables()
    # Bytes 0-7 hold 0.ddd's sign, `0.`, up to three zeros, first digit and a
    # FILL; bytes 8-23 the other sixteen digits, FILL after the last nonzero one.
    text = np.empty((x.size, SLOT // 8), dtype=np.uint64)
    ors = [quads[1] | quads[2] | quads[3], quads[2] | quads[3], quads[3], 0]  # of later groups
    for place, later in enumerate(ors):  # a group before a nonzero one keeps its trailing zeros
        text.view(np.uint32)[:, 2 + place] = groups[2 * quads[place] + np.minimum(later, 1)]
    text[:, 0] = prefixes[np.where(np.signbit(x), 40, 0) + np.clip(-decpt, 0, 3) * 10 + head]
    text = text.view(np.uint8)
    # The few others are rewritten from those bytes: d.ddde-XX, then ddd.ddd or ddd.0.
    sci = np.flatnonzero((decpt < -3) | (decpt > 16))
    exp, row = np.abs(decpt[sci, None] - 1), text[sci]
    row[:, 1], row[:, 2] = row[:, 6], np.where(digits[sci] > head[sci] * 10**16, _POINT, FILL)
    row[:, 3:19], row[:, 19], row[:, 20] = row[:, 8:], _E, np.where(decpt[sci] < 1, _MINUS, _PLUS)
    row[:, 21:] = np.where(exp >= [100, 0, 0], exp // [100, 10, 1] % 10 + _ZERO, FILL)
    text[sci] = row
    whole = np.flatnonzero((decpt > 0) & (decpt <= 16))
    point, place, row = decpt[whole, None], np.arange(18), text[whole]
    digit = np.column_stack([row[:, 6], row[:, 8:], np.full(whole.size, FILL)])
    after = np.roll(digit, 1, axis=1)
    after[(place == point + 1) & (after == FILL)] = _ZERO
    row[:, 1:19] = np.where(place < point, np.where(digit == FILL, _ZERO, digit),
                            np.where(place == point, _POINT, after))
    row[:, 19:], text[whole] = FILL, row
    return text.reshape(np.shape(values) + (SLOT,))


def compress(chars):
    """The bytes of a uint8 array, in order, without its FILL bytes."""
    return chars.tobytes().translate(None, FILL.tobytes())


def lines(matrix):
    """repr of each value of a 2-d array, space-separated, one newline-ended line per row."""
    cells = np.full(np.shape(matrix) + (SLOT + 1,), ord(" "), dtype=np.uint8)
    cells[..., :SLOT], cells[:, -1, SLOT] = slots(matrix), ord("\n")
    return compress(cells)
