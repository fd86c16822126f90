"""repr of many floats at once: reprs(x) == [repr(float(v)) for v in x].

The shortest round-trip digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020, the algorithm of Java's
Double.toString), run on numpy uint64 arrays; the texts are then laid out as
CPython's repr lays out those digits.  Positive and negative normal values
go through the kernel; 0, subnormals, inf and nan go to repr.  The kernel
costs about 0.2 ms a call, so it pays only on large arrays.

A value is c 2^q, with c the 53-bit significand.  Its rounding interval has
the ends (c -+ 1/2) 2^q, or (c - 1/4) 2^q below at the bottom of a binade,
and scaled by 10^-k it holds exactly one integer-spaced run of candidates.
Schubfach scales the three points 4c 2^q, (4c -+ 2) 2^q by 10^-k with one
128-bit product against g = floor(10^-k 2^-r) + 1 and a rounding to odd,
which keeps every comparison against an integer exact.  The two ends are the
product -+ (g << (h + 1)), or g << h below at a binade's bottom.
"""

import functools
import mmap

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_ONE = _U(0x3FF0_0000_0000_0000)  # the bits of 1.0
# Values per chunk.  Each stage's temporaries die when it returns; at their
# peak, a chunk's are about 0.25 MB (15 uint64 arrays) beside its 0.15 MB of
# texts.  Larger chunks save little of numpy's cost per call and raise the
# peak RSS of the large tables.
_CHUNK = 2048
_K_MIN = -324  # the decimal exponents k of the normal values: -324..292


@functools.cache
def _tables():
    """(g table, layout table, exponent table), built on the first call.

    The g table holds, for k = -324..292, the two 63-bit halves of
    g = floor(10^-k 2^-r) + 1, with r such that 2^125 <= g < 2^126
    (Giulietti, section 10).
    """
    halves = np.empty((2, 617), dtype=np.uint64)
    for j in range(617):
        k = _K_MIN + j
        r = _floor_log2_pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        halves[:, j] = g >> 63, g & (2**63 - 1)
    return _mapped(halves, _layouts(), _by_exponent())


def _mapped(*arrays):
    """Copies of 8-byte-item `arrays` in one anonymous memory mapping.

    The tables are built inside the first large call, while its arrays fill
    the heap; made there, they would sit on top of memory that the call
    frees and keep the allocator from returning it (a momentum table's
    peak RSS read about 1 MB higher).
    """
    buffer = mmap.mmap(-1, sum(a.nbytes for a in arrays))
    copies, offset = [], 0
    for a in arrays:
        copy = np.frombuffer(buffer, a.dtype, a.size, offset).reshape(a.shape)
        copy[...] = a
        copies.append(copy)
        offset += a.nbytes
    return tuple(copies)


def _floor_log2_pow10(e):
    """floor(log2(10^e)), exact for |e| < 1700 (Giulietti, section 9)."""
    return (e * 913_124_641_741) >> 38


def _words(text):
    """The 24 bytes of `text` (padded with NUL) as three little-endian uint64."""
    data = bytes(text).ljust(24, b"\0")
    return [int.from_bytes(data[i:i + 8], "little") for i in (0, 8, 16)]


def _layouts():
    """The layout table: one row per (sign, notation, significant digits n).

    Notation is the scientific exponent E = -4..15 in positional form, then
    the exponent form with a two- and a three-digit exponent.  The 17 digits
    (the first one, then 16, all as raw values 0..9 with the insignificant
    ones 0) go into the text in two runs, digits [0, a) moved right by
    `move1` bytes and digits [a, 17) by `move2`.  A row holds the overlay
    bytes (the sign, "0.", ".", padding zeros, "e", and 0x30 on every digit
    byte, which turns a raw digit into its ASCII), the three words of the
    mask of digits [0, a), both moves in bits, and the bit offset of the
    exponent's sign and digits (192, off the text, in positional form).
    """
    rows = []
    for sign in (0, 1):
        forms = [(E, 0) for E in range(-4, 16)] + [(None, 2), (None, 3)]
        for E, exp_digits in forms:
            for n in range(1, 18):
                text = bytearray(b"-" if sign else b"")
                if E is None:  # d.ddde+XX
                    a, move1, move2 = 1, sign, sign + 1
                    text += b"0" + (b"." + b"0" * (n - 1) if n > 1 else b"") + b"e"
                    exp_at = len(text)
                    text += b"\0" + b"0" * exp_digits
                elif E < 0:  # 0.000ddd
                    a, move1, move2 = 17, sign + 1 - E, 0
                    text += b"0." + b"0" * (-E - 1) + b"0" * n
                    exp_at = 24
                else:  # ddd.ddd or ddd00.0
                    a, move1, move2 = E + 1, sign, sign + 1
                    text += b"0" * (E + 1) + b"." + b"0" * max(n - E - 1, 1)
                    exp_at = 24
                mask = _words(b"\xff" * a)
                rows.append(_words(text) + mask + [8 * move1, 8 * move2, 8 * exp_at])
    return np.array(rows, dtype=np.uint64).T.copy()


def _by_exponent():
    """Indexed by the scientific exponent E + 324: the layout row of E for a
    positive value with one significant digit, and the text that follows the
    "e" when E takes the exponent form: its sign byte, then its 2 or 3
    digits as raw values (the layout's overlay adds the ASCII 0x30), packed
    little-endian."""
    rows, texts = [], []
    for E in range(-324, 309):
        digits = f"{abs(E):02d}"
        raw = (b"-" if E < 0 else b"+") + bytes(int(c) for c in digits)
        texts.append(int.from_bytes(raw, "little"))
        rows.append(17 * (E + 4) if -4 <= E <= 15 else 340 + 17 * (len(digits) - 2))
    return np.array([rows, texts], dtype=np.int64)


def _mul(a, b):
    """(high, low) words of the 128-bit products a b of uint64 arrays, from
    32-bit limbs, in place where a limb product is no longer needed."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    hi, mid, cross = a1 * b1, a0 * b1, a1 * b0
    a0 *= b0
    a0 >>= _U(32)
    for part in (mid, cross):  # mid = a0 b0 / 2^32 + the low halves of both
        hi += part >> _U(32)
        part &= _M32
    mid += a0
    mid += cross
    hi += mid >> _U(32)
    return hi, a * b


def _round_to_odd(hi, lo, g, bits=None, subtract=False):
    """Giulietti's rop(g1, g0, c'): g c' / 2^127 rounded to odd, from the
    128-bit products (hi, lo) = (g1 c', g0 c') stacked on the first axis
    (g = g1 2^63 + g0).  With `bits`, c' is first moved to c' +- 2^bits,
    which moves each product by +- (g << bits), with g = (g1, g0)."""
    if bits is not None:
        d_hi, d_lo = g >> (_U(64) - bits), g << bits
        if subtract:
            d_hi += lo < d_lo  # the borrow
            hi, lo = np.subtract(hi, d_hi, out=d_hi), np.subtract(lo, d_lo, out=d_lo)
        else:
            total = np.add(lo, d_lo, out=d_lo)
            d_hi += hi
            d_hi += total < lo  # the carry
            hi, lo = d_hi, total
    z = (lo[0] >> _U(1)) + hi[1]
    return (hi[0] + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _scaled(bits, table):
    """(vb, vbl, vbr, k) of the positive normal values whose bit patterns
    are `bits`: the value and the ends of its rounding interval, times
    4 10^-k and rounded to odd, with each end moved inwards by one when the
    interval is open (odd c).

    k = floor(log10(2^q)), or floor(log10(3/4 2^q)) at a binade's bottom
    (c == 2^52 above the lowest binade, whose lower neighbour is closer), and
    c' = 4c << h with h = q + floor(log2(10^-k)) + 2 (Giulietti, sections 9
    and 10; the multiply-shift logarithms are exact over the double range).
    """
    fraction = bits & _U(2**52 - 1)
    q = (bits >> _U(52)).view(np.int64) - 1075
    bottom = (fraction == 0) & (q > -1074)
    k = (q * 661_971_961_083 - bottom * 274_743_187_321) >> 41
    shift = (_floor_log2_pow10(-k) + q + 4).view(np.uint64)  # h + 2
    del q
    g = table.take(k - _K_MIN, axis=1)
    hi, lo = _mul(g, (fraction | _U(2**52)) << shift)
    odd = fraction & _U(1)
    del fraction
    vb = _round_to_odd(hi, lo, g)
    shift -= _U(1)  # h + 1: the ends are c' -+ 2^(h + 1), or c' - 2^h below at the bottom
    vbr = _round_to_odd(hi, lo, g, shift) - odd
    vbl = _round_to_odd(hi, lo, g, shift - bottom, subtract=True) + odd
    return vb, vbl, vbr, k


def _digits(bits, table):
    """(17-digit decimal significand D, scientific exponent E) of the
    positive normal values whose bit patterns, sign bit cleared, are
    `bits`: the shortest decimal in the rounding interval, the closest one
    if several, ties to even, as repr picks it, is D 10^(E - 16)."""
    vb, vbl, vbr, k = _scaled(bits, table)
    # One digit fewer: the one multiple of 10 the interval may hold.
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    up_in = vbl <= sp10 << _U(2)
    wp_in = (sp10 << _U(2)) + _U(40) <= vbr
    # Else s or s + 1, whichever is inside (one is), or the closer when both
    # are: s + 1 when the fraction vb & 3 is above 2, or is 2 with s odd
    # (vb & 7 in 3, 6, 7: the bits of 0xC8).
    s4 = vb & ~_U(3)
    up = ((_U(0xC8) >> (vb & _U(7))) & _U(1)).astype(bool) | (vbl > s4)
    t_pick = (s4 + _U(4) <= vbr) & up
    d = np.where(up_in != wp_in, sp10 + _U(10) * wp_in, s + t_pick)
    short = d < _U(10**16)
    return d * np.where(short, _U(10), _U(1)), k + 16 - short


def _swar8(x):
    """Raw decimal digits (values 0..9) of x < 10^8, the first one in the
    lowest byte, by multiply-shift divisions exact over their ranges."""
    a = (x * _U(109951163)) >> _U(40)  # x // 10^4 for x < 10^8
    y = a | ((x - a * _U(10000)) << _U(32))
    t = ((y * _U(5243)) >> _U(19)) & _U(0x0000007F_0000007F)  # // 100 for < 10^4
    z = t | ((y - t * _U(100)) << _U(16))
    t = ((z * _U(103)) >> _U(10)) & _U(0x000F000F_000F000F)  # // 10 for < 100
    return t | ((z - t * _U(10)) << _U(8))


def _digit_words(d):
    """(the three words of the raw digits of the 17-digit d, the first one
    in the lowest byte, with the insignificant trailing zeros; the count n
    of significant digits)."""
    first = d // _U(10**16)
    rest = d - first * _U(10**16)
    high = rest // _U(10**8)
    halves = _swar8(np.stack([high, rest - high * _U(10**8)]))
    # The bytes up to the last nonzero one, from the float exponent: every
    # byte is at most 9, so the conversion cannot round up past a power of 2.
    hi_n, lo_n = (np.frexp(halves.astype(np.float64))[1] + 7) >> 3
    hi8, lo8 = halves
    n = np.where(lo_n != 0, 9 + lo_n, 1 + hi_n)
    return [first | (hi8 << _U(8)), (hi8 >> _U(56)) | (lo8 << _U(8)), lo8 >> _U(56)], n


def _move(words, bits):
    """Move three words up by `bits` < 64 bits, in place, the top ones
    dropped."""
    back = _U(64) - bits  # a shift by 64 gives 0
    for low, high in ((words[1], words[2]), (words[0], words[1])):
        high <<= bits
        high |= low >> back
    words[0] <<= bits


def _layout(sign, d, E, layouts, by_exponent):
    """(N, 3) uint64: the repr texts of sign 1 d 10^(E - 16), NUL-padded."""
    digits, n = _digit_words(d)
    e_index = E + 324
    base = by_exponent[0].take(e_index)
    row = base + n
    row += 374 * sign.view(np.int64) - 1
    del n
    exponent_form = np.flatnonzero(base >= 340)
    at = layouts[8].take(row[exponent_form])
    *overlay, mask0, mask1, mask2, move1, move2 = layouts[:8].take(row, axis=1)
    del row, base
    head = [mask0, mask1, mask2]
    out = np.empty((len(d), 3), dtype=np.uint64)
    for j in range(3):
        head[j] &= digits[j]
        digits[j] ^= head[j]  # the tail
    _move(head, move1)
    _move(digits, move2)
    for j in range(3):
        np.bitwise_or(overlay[j], head[j], out=out[:, j])
        out[:, j] |= digits[j]
    if exponent_form.size:
        # the exponent's sign and raw digits, at the row's bit offset
        text = by_exponent[1].take(e_index[exponent_form]).view(np.uint64)
        for j in range(3):
            # a shift of 64 or more, including a wrapped negative one, gives 0
            out[exponent_form, j] |= (text << (at - _U(64 * j))) | (text >> (_U(64 * j) - at))
    return out


def _chunk_texts(bits, tables):
    """The repr texts of the floats whose bit patterns are `bits`: 0,
    subnormals, inf and nan through repr, the others through the kernel."""
    biased = (bits >> _U(52)) & _U(2047)
    special = np.flatnonzero((biased == 0) | (biased == 2047)).tolist()
    others = [repr(float(v)) for v in bits[special].view(np.float64)]
    if special:
        bits = bits.copy()
        bits[special] = _ONE  # a normal stand-in, its text replaced below
    table, layouts, by_exponent = tables
    d, E = _digits(bits & _M63, table)
    words = _layout(bits >> _U(63), d, E, layouts, by_exponent)
    del d, E
    # The words' bytes in text order (a copy only on a big-endian machine),
    # then to UCS-4 code points, a quarter of the chunk at a time.
    codes = words.astype("<u8", copy=False).view(np.uint8)
    texts = []
    for start in range(0, len(codes), _CHUNK // 4):
        texts += codes[start:start + _CHUNK // 4].astype(np.uint32).view("U24").ravel().tolist()
    for i, text in zip(special, others):
        texts[i] = text
    return texts


def reprs(x):
    """[repr(float(v)) for v in x] for a 1-D float64 array x, made chunk by
    chunk so that the uint64 temporaries stay small."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    tables = _tables()
    texts = [None] * len(bits)
    for start in range(0, len(bits), _CHUNK):
        texts[start:start + _CHUNK] = _chunk_texts(bits[start:start + _CHUNK], tables)
    return texts
