"""The numpy float formatter behind the large CSV/JSON tables: _repr.reprs
must give repr's text, byte for byte, for every float64.

repr itself is the oracle.  Random bit patterns cover the bulk of the
doubles; the powers of two and ten and their neighbours cover the ends of
the binades, where the rounding interval is not symmetric and where the
scaled interval ends land on integers.  A random pattern almost never sits
at a binade's bottom, so only the powers catch a kernel that gets that
interval wrong (the negative control).
"""

import inspect
import json

import numpy as np
import pytest

from surfquant import _repr
from surfquant._repr import reprs
from surfquant.cli import _csv, _fmt, _json

SEED = 20110901


def repr_texts(x):
    return [repr(float(v)) for v in x]


def random_patterns(count):
    """Seeded random 64-bit patterns: both signs, every exponent, NaN
    payloads, infinities and subnormals included."""
    rng = np.random.default_rng(SEED)
    return rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False).view(np.float64)


def powers_and_neighbours():
    """Every power of two from 2^-1074 to 2^1023 and of ten from 1e-323 to
    1e308, each with both np.nextafter neighbours."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    return np.concatenate([powers, np.nextafter(powers, np.inf),
                           np.nextafter(powers, -np.inf)])


def integers_and_short_decimals():
    """Integers up to +-2^53 and short decimals round(x, k), k < 12."""
    rng = np.random.default_rng([SEED, 1])
    ints = rng.integers(-2**53, 2**53, 20_000, endpoint=True).astype(np.float64)
    edges = [2.0**53, -2.0**53, 2.0**53 - 1, 1.0, -1.0, 10.0, 100.0, 123456789.0]
    scales = 10.0 ** rng.integers(-6, 12, 20_000)
    digits = rng.integers(0, 12, 20_000)
    decimals = [round(v, int(k)) for v, k in zip(rng.random(20_000) * scales, digits)]
    return np.concatenate([ints, edges, decimals, np.negative(decimals)])


# The notation switches (1e16 and 1e-4), the largest and smallest normals,
# the smallest subnormal, and the non-normal values the kernel hands to repr.
SWITCHES = [9999999999999998.0, 1e16, 9.999999999999999e-05, 1e-4, 1e-5, 0.001,
            1.7976931348623157e308, 2.2250738585072014e-308, 5e-324, -5e-324,
            0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 1 / 3, 2.5, -123.456]


@pytest.mark.parametrize("values", [
    random_patterns(200_000),
    powers_and_neighbours(),
    integers_and_short_decimals(),
    np.array(SWITCHES),
], ids=["random-bits", "powers", "integers-decimals", "switches"])
def test_reprs_is_repr(values):
    assert reprs(values) == repr_texts(values)


def test_reprs_takes_any_float_sequence():
    values = [0.5, -0.0, float("nan"), 1e300]
    assert reprs(values) == repr_texts(values)
    assert reprs(np.array([], dtype=np.float64)) == []
    # a chunk's worth and more, not contiguous
    stride = np.ldexp(np.arange(1.0, 3 * _repr._CHUNK + 8), -7)[::-1]
    assert reprs(stride) == repr_texts(stride)


def mutant_reprs(old, new):
    """reprs of a copy of _repr with `old` replaced by `new` in its source."""
    source = inspect.getsource(_repr)
    assert source.count(old) == 1
    namespace = {"__name__": "surfquant._repr_mutant"}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["reprs"]


def test_the_powers_catch_a_symmetric_interval_at_a_binades_bottom():
    # The lower end moved by 2^(h + 1) at c == 2^52 too, as everywhere else.
    symmetric = mutant_reprs("shift - bottom, subtract=True", "shift, subtract=True")
    powers = powers_and_neighbours()
    wrong = sum(a != b for a, b in zip(symmetric(powers), repr_texts(powers)))
    assert wrong > 100
    patterns = random_patterns(200_000)
    assert symmetric(patterns) == repr_texts(patterns)


def test_a_large_table_of_every_kind_of_cell_prints_as_repr():
    # both signs, twins and lone negatives, zeros of both signs, NaN payloads,
    # infinities and subnormals, in the CSV and the JSON writer
    values = np.concatenate([random_patterns(3000),
                             powers_and_neighbours()[::7], SWITCHES, [-0.0, -np.nan]])
    values = np.concatenate([values, -values[::3]])
    text = _csv({"v": values})
    assert text == "v\n" + "".join(_fmt(v) + "\n" for v in values)
    dumped = _json({"rows": {"v": values}}, "rows")
    assert dumped.count("\n") > len(values)
    assert dumped == json.dumps({"rows": [{"v": float(v)} for v in values]}, indent=2) + "\n"
