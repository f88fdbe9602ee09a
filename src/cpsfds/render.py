"""The CSV text of the command-line front end: rows of floats written as
"%.16e" writes each value, by a numpy kernel.

render_rows writes every value as "%.16e" does, sign, d.dddddddddddddddd
and e±XX, from the 17-digit integer d = round-half-even(|x| 10^(16-k)) of
the decimal exponent k.  The scaled value is a double-double product of
|x| with a table of powers of ten, good to about 1e-14.  A value whose
fraction lies within _TIE_MARGIN of one half, or whose d leaves
[1e16, 1e17) because k = floor(log10 |x|) missed by one next to a power
of ten or the rounding carried into the next decade, is left to "%.16e"
itself; so are non-finite values and magnitudes outside
[1e-_FAST_DECADES, 1e_FAST_DECADES).

`cli` imports this module on first use, so a process that writes no CSV
never compiles it.
"""

import functools

import numpy as np

_FAST_DECADES = 270
_K_MIN = -_FAST_DECADES - 2          # decimal exponents in the tables
_K_MAX = _FAST_DECADES + 2
_K_SPAN = _K_MAX - _K_MIN + 1
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0                 # 2**27 + 1, Dekker's splitter
_WORDS = 7                           # uint32 words per rendered value


def _dekker_split(a):
    """Split a into high and low halves of 26 significant bits each."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _words_of(texts, width):
    """The ASCII strings texts, each zero-padded to width bytes, as one
    uint32 array."""
    raw = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=np.uint32)


@functools.cache
def render_tables():
    """Lookup tables of render_rows, built on first use.

    pow10: rows hi, hi_1, hi_2, lo for k in [_K_MIN, _K_MAX], with hi + lo
        = 10**(16 - k) to 2**-106 and hi = hi_1 + hi_2 split for Dekker's
        product.
    lead: 20 words, sign * 10 + leading digit -> "[-]d.".
    digits: 10,000 words, n -> "%04d" % n.
    exponent: (2, 2 * _K_SPAN) words: column i < _K_SPAN holds "e±XX,"
        for k = i + _K_MIN, and column i + _K_SPAN the same with "\\n";
        the unused bytes are zero.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        # 10**(16 - k) = num / den; int / int rounds correctly
        num, den = 10**max(16 - k, 0), 10**max(k - 16, 0)
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    pow10 = np.stack([hi, *_dekker_split(hi), np.array(lo)])
    lead = _words_of((f"{s}{d}." for s in ("", "-") for d in range(10)), 4)
    digits = _words_of((f"{n:04d}" for n in range(10000)), 4)
    exponent = _words_of((f"e{k:+03d}{sep}" for sep in (",", "\n")
                          for k in range(_K_MIN, _K_MAX + 1)), 8)
    exponent = np.ascontiguousarray(exponent.reshape(-1, 2).T)
    for table in (pow10, lead, digits, exponent):
        table.setflags(write=False)
    return pow10, lead, digits, exponent


def _scaled(a, i, pow10):
    """(h, l): h = fl(a * 10**(16 - k)) and l the rest of the product to
    about 1e-14, for i = k - _K_MIN."""
    hi, hi_1, hi_2, lo = np.take(pow10, i, axis=1)
    a_1, a_2 = _dekker_split(a)
    h = a * hi
    l = ((a_1 * hi_1 - h) + a_1 * hi_2 + a_2 * hi_1) + a_2 * hi_2
    return h, l + a * lo


def render_rows(table) -> str:
    """The rows of the 2D float array table as "%.16e" writes each value,
    joined by "," within a row and ended by a newline."""
    pow10, lead, digits, exponent = render_tables()
    rows, cols = table.shape
    x = np.ravel(table)
    a = np.abs(x)
    fast = (a >= 10.0 ** -_FAST_DECADES) & (a < 10.0 ** _FAST_DECADES)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    h, l = _scaled(a, i, pow10)
    r = np.rint(l)
    frac = l - r
    d = h.astype(np.int64) + r.astype(np.int64)
    # d = 10**16 with a negative fraction may belong to the decade below
    fast &= (d >= 10**16) & (d < 10**17) \
        & (np.abs(np.abs(frac) - 0.5) > _TIE_MARGIN) \
        & ((d > 10**16) | (frac >= 0.0))
    fast |= zero
    blank = ~fast | zero
    d[blank] = 0
    i[blank] = -_K_MIN

    words = np.empty((rows * cols, _WORDS), dtype=np.uint32)
    first, rest = np.divmod(d, 10**16)
    words[:, 0] = lead[first + 10 * np.signbit(x)]
    upper, lower = np.divmod(rest, 10**8)
    words[:, 1:5] = digits[np.stack([*np.divmod(upper, 10**4),
                                     *np.divmod(lower, 10**4)], axis=1)]
    i.reshape(rows, cols)[:, -1] += _K_SPAN      # "\n" ends each row
    words[:, 5:] = np.take(exponent, i, axis=1).T
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ("%.16e" % x[n] + ("\n" if n % cols == cols - 1 else ",")
                 for n in slow.tolist())
        words[slow] = _words_of(texts, 4 * _WORDS).reshape(-1, _WORDS)
    return words.tobytes().translate(None, b"\0").decode("ascii")
