"""Truncated bivariate Taylor arithmetic: exact partials of a chart or field map.

A jet carries the partial derivatives of one scalar quantity in the two
chart parameters up to a fixed order (at most 3).  It is a dict from a
sorted axis tuple -- (), (0,), (0, 1), (1, 1, 1), ... -- to the partial's
values, with the point axes last.  A missing key is a partial that is zero
by structure, so a separable map spends no work and no rounding on it.
Products follow the Leibniz splits of a key and functions of one variable
the set partitions of Faa di Bruno's formula, both precomputed per order
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).

A map evaluated on jets must be elementwise numpy: +, -, *, /, ** by a
number, unary minus, and np.sin, np.cos, np.tan, np.exp, np.log and
np.sqrt; its constants may be real or complex.  Anything else (math.sin,
np.arctan2, c ** u, abs(u), a comparison) raises TypeError with CONTRACT.
A function of one variable computes its derivative rows only up to the
jet's order.
"""

import itertools
from collections import Counter

import numpy as np

MAX_ORDER = 3

CONTRACT = (
    "a chart or field map must be elementwise numpy in its two parameters: "
    "+, -, *, /, ** by a number, and np.sin, np.cos, np.tan, np.exp, np.log, np.sqrt"
)

KEYS = [k for n in range(MAX_ORDER + 1)
        for k in itertools.combinations_with_replacement((0, 1), n)]


def _group(key, positions):
    return tuple(sorted(key[p] for p in positions))


def _splits(key):
    """(ka, kb) for each way to give every position of the key to a or to b."""
    for side in itertools.product((1, 0), repeat=len(key)):
        yield tuple(_group(key, [p for p, s in enumerate(side) if s == g]) for g in (1, 0))


def _partitions(key):
    """(number of blocks, blocks, set of blocks) for each set partition of the
    key's positions; the key () has one partition, the empty one."""
    n = range(len(key))
    parts = {frozenset(tuple(p for p in n if label[p] == g) for g in set(label))
             for label in itertools.product(n, repeat=len(key))}
    for part in sorted(map(sorted, parts)):
        blocks = tuple(sorted(_group(key, block) for block in part))
        yield len(part), blocks, frozenset(blocks)


def _table(terms_of_key):
    """Per order n, the flat list of (key, count, *term) over the keys of
    order <= n: each distinct term of a key once, with its multiplicity."""
    flat = [(key, count) + term for key in KEYS
            for term, count in Counter(terms_of_key(key)).items()]
    return [[t for t in flat if len(t[0]) <= n] for n in range(MAX_ORDER + 1)]


# Leibniz: d_key (a b) is the sum of count * a_ka * b_kb over
# (key, count, ka, kb).
_LEIBNIZ = _table(_splits)

# Faa di Bruno: d_key f(x) is the sum of count * f^(k)(x) * prod_b x_b over
# (key, count, k, blocks, set of blocks).
_FAA_DI_BRUNO = _table(_partitions)

# Where a partial sits in its symmetric array: every ordering of its key.
_SLOTS = {key: sorted(set(itertools.permutations(key))) for key in KEYS}


def _cycle(f, g):
    """Rows of a function whose derivatives run f, g, -f, -g."""

    def rows(x, n):
        if not n:
            return [f(x)]
        a, b = f(x), g(x)
        return [a, b] + [-a, -b][:n - 1]

    return rows


def _power_rows(x, exponent, n, first=0):
    """Rows first..n of x ** exponent; None for a zero row past an integer
    exponent."""
    rows, coeff = [], 1.0
    for k in range(n + 1):
        if k >= first:
            rows.append(coeff * x ** (exponent - k) if coeff else None)
        coeff *= exponent - k
    return rows


def _tan_rows(x, n):
    t = np.tan(x)
    rows = [t]
    if n:
        rows.append(1.0 + t * t)  # tan' = 1 + tan^2
    if n > 1:
        rows.append(2.0 * t * rows[1])
    if n > 2:
        rows.append(2.0 * rows[1] * (rows[1] + 2.0 * t * t))
    return rows


# rows(x, n): the values at x of each supported function and of its first n
# derivatives, for a jet of order n.
_ROWS = {
    np.sin: _cycle(np.sin, np.cos),
    np.cos: _cycle(np.cos, lambda x: -np.sin(x)),
    np.tan: _tan_rows,
    np.exp: lambda x, n: [np.exp(x)] * (n + 1),
    np.log: lambda x, n: [np.log(x)] + _power_rows(x, -1, n - 1),
    np.sqrt: lambda x, n: [np.sqrt(x)] + _power_rows(x, 0.5, n, first=1),
}


def _neg(x):
    return Jet({k: -v for k, v in x.d.items()}, x.order) if isinstance(x, Jet) else -x


def _add(x, y):
    if not isinstance(x, Jet):
        x, y = y, x
    d = dict(x.d)
    for k, v in (y.d if isinstance(y, Jet) else {(): y}).items():
        d[k] = d[k] + v if k in d else v
    return Jet(d, x.order)


def _sub(x, y):
    return _add(x, _neg(y))


def _mul(x, y):
    if not isinstance(x, Jet):
        x, y = y, x
    if not isinstance(y, Jet):
        return Jet({k: v * y for k, v in x.d.items()}, x.order)
    a, b, d = x.d, y.d, {}
    for key, count, ka, kb in _LEIBNIZ[x.order]:
        if ka in a and kb in b:
            term = a[ka] * b[kb]
            term = term if count == 1 else count * term
            d[key] = d[key] + term if key in d else term
    return Jet(d, x.order)


def _div(x, y):
    if isinstance(y, Jet):
        return _mul(x, _pow(y, -1))
    return Jet({k: v / y for k, v in x.d.items()}, x.order)


def _pow(x, exponent):
    if not isinstance(x, Jet) or isinstance(exponent, Jet) or np.ndim(exponent):
        raise TypeError(f"** on a jet takes a number exponent: {CONTRACT}")
    return _chain(x, _power_rows(x.d[()], exponent, x.order))


def _chain(x, rows):
    """f(x) from the rows of f's derivatives at x's value (None: a zero row)."""
    d, have = {}, x.d.keys()
    for key, count, k, blocks, need in _FAA_DI_BRUNO[x.order]:
        if rows[k] is not None and need <= have:
            term = rows[k]
            for b in blocks:
                term = term * x.d[b]
            term = term if count == 1 else count * term
            d[key] = d[key] + term if key in d else term
    return Jet(d, x.order)


def _refuse(*_):
    raise TypeError(CONTRACT)


_UFUNCS = {np.add: _add, np.subtract: _sub, np.multiply: _mul,
           np.true_divide: _div, np.power: _pow, np.negative: _neg}


class Jet:
    """Partials of one scalar to `order`, keyed by sorted axis tuples."""

    __slots__ = ("d", "order")

    def __init__(self, d, order):
        self.d, self.order = d, order

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and not kwargs:
            if ufunc in _ROWS:
                (x,) = inputs
                return _chain(x, _ROWS[ufunc](x.d[()], x.order))
            if ufunc in _UFUNCS:
                return _UFUNCS[ufunc](*inputs)
        raise TypeError(f"{ufunc.__name__} of a jet: {CONTRACT}")

    # float(), c ** jet, abs() and comparisons are outside the contract
    __float__ = __rpow__ = __abs__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse

    __add__ = __radd__ = _add
    __sub__ = _sub
    __rsub__ = lambda self, other: _sub(other, self)  # noqa: E731
    __mul__ = __rmul__ = _mul
    __truediv__ = _div
    __rtruediv__ = lambda self, other: _div(other, self)  # noqa: E731
    __pow__ = _pow
    __neg__ = _neg


def partials(fn, q1, q2, order):
    """[r, d r, d d r, d d d r][:order + 1] of the map fn at the points.

    Over the broadcast point shape S the n-th entry has shape
    (2,) * n + (C,) + S, for a map into C components (C = 3 for a chart),
    symmetric in its derivative axes.  Its dtype is that of the jet values,
    at least float64: complex for a map with complex constants.
    """
    a, b = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    seeds = [{(): a}, {(): b}]
    if order:
        seeds[0][(0,)] = seeds[1][(1,)] = 1.0
    comps = [c.d if isinstance(c, Jet) else {(): c}
             for c in fn(*(Jet(d, order) for d in seeds))]
    dtype = np.result_type(float, *(v for d in comps for v in d.values()))
    out = [np.zeros((2,) * n + (len(comps),) + a.shape, dtype) for n in range(order + 1)]
    for c, d in enumerate(comps):
        for key, value in d.items():
            for slot in _SLOTS[key]:
                out[len(key)][slot + (c,)] = value
    return out
