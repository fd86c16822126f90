from itertools import combinations_with_replacement

import numpy as np
import pytest

from surfquant import _jets
from surfquant import charts as chlib
from surfquant._jets import CONTRACT, Jet
from surfquant.errors import ChartSingularityError
from surfquant.geometry import evaluate_frame

from conftest import chart_points


def test_registry_names():
    assert set(chlib.CHART_BUILDERS) == {"sphere", "cylinder", "torus", "plane"}
    chart = chlib.make_chart("sphere", radius=2.0)
    assert chart.params == {"radius": 2.0}


def test_registry_rejects_unknown_surface():
    with pytest.raises(ValueError, match="unknown surface"):
        chlib.make_chart("mobius")


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_analytic_partials_match_finite_differences(name, builtin_charts):
    chart = builtin_charts[name]
    h = 1e-5
    def position(a, b):
        return chart.partials(a, b, 0)[0]

    for q1, q2 in chart_points(chart, 20):
        _, d1, d2 = chart.partials(q1, q2, 2)
        fd1 = np.array(
            [
                (position(q1 + h, q2) - position(q1 - h, q2)) / (2 * h),
                (position(q1, q2 + h) - position(q1, q2 - h)) / (2 * h),
            ]
        )
        assert np.abs(d1 - fd1).max() < 1e-8
        p0 = position(q1, q2)
        fd_tt = (position(q1 + h, q2) - 2 * p0 + position(q1 - h, q2)) / h**2
        fd_pp = (position(q1, q2 + h) - 2 * p0 + position(q1, q2 - h)) / h**2
        fd_tp = (
            position(q1 + h, q2 + h)
            - position(q1 + h, q2 - h)
            - position(q1 - h, q2 + h)
            + position(q1 - h, q2 - h)
        ) / (4 * h**2)
        assert np.abs(d2[0, 0] - fd_tt).max() < 1e-5
        assert np.abs(d2[1, 1] - fd_pp).max() < 1e-5
        assert np.abs(d2[0, 1] - fd_tp).max() < 1e-5
        assert np.abs(d2[0, 1] - d2[1, 0]).max() == 0.0


def test_finite_difference_adaptor_on_paraboloid():
    # z = u^2 + v^2: the jets of u * u are 2u and 2 exactly.
    adapted = chlib.from_map(
        lambda u, v: np.array([u, v, u * u + v * v]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        name="paraboloid",
    )
    for u, v in chart_points(adapted, 10):
        _, d1, d2, d3 = adapted.partials(u, v, 3)
        exact_d1 = np.array([[1.0, 0.0, 2 * u], [0.0, 1.0, 2 * v]])
        assert np.array_equal(d1, exact_d1)
        exact_d2 = np.zeros((2, 2, 3))
        exact_d2[0, 0, 2] = 2.0
        exact_d2[1, 1, 2] = 2.0
        assert np.array_equal(d2, exact_d2)
        assert not d3.any()


# Hand-written first and second partials the built-in charts carried before
# their partials came from jets of the map: an independent oracle.
def _hand_sphere(R, th, ph):
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    zero = np.zeros_like(th)
    d1 = np.array([[R * ct * cp, R * ct * sp, -R * st], [-R * st * sp, R * st * cp, zero]])
    dtt = np.array([-R * st * cp, -R * st * sp, -R * ct])
    dtp = np.array([-R * ct * sp, R * ct * cp, zero])
    dpp = np.array([-R * st * cp, -R * st * sp, zero])
    return d1, np.array([[dtt, dtp], [dtp, dpp]])


def _hand_cylinder(R, ph, v):
    zero, one = np.zeros_like(ph), np.ones_like(ph)
    d1 = np.array([[-R * np.sin(ph), R * np.cos(ph), zero], [zero, zero, one]])
    dpp = np.array([-R * np.cos(ph), -R * np.sin(ph), zero])
    z = np.array([zero, zero, zero])
    return d1, np.array([[dpp, z], [z, z]])


def _hand_torus(a, b, u, v):
    w = a + b * np.cos(v)
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    zero = np.zeros_like(u)
    d1 = np.array([[-w * su, w * cu, zero], [-b * sv * cu, -b * sv * su, b * cv]])
    duu = np.array([-w * cu, -w * su, zero])
    duv = np.array([b * sv * su, -b * sv * cu, zero])
    dvv = np.array([-b * cv * cu, -b * cv * su, -b * sv])
    return d1, np.array([[duu, duv], [duv, dvv]])


def _hand_plane(u, v):
    zero, one = np.zeros_like(u), np.ones_like(u)
    return np.array([[one, zero, zero], [zero, one, zero]]), np.zeros((2, 2, 3) + u.shape)


HAND_WRITTEN = [
    (chlib.sphere(1.0), lambda q1, q2: _hand_sphere(1.0, q1, q2)),
    (chlib.sphere(1.7), lambda q1, q2: _hand_sphere(1.7, q1, q2)),
    (chlib.cylinder(1.3), lambda q1, q2: _hand_cylinder(1.3, q1, q2)),
    (chlib.torus(2.0, 0.5), lambda q1, q2: _hand_torus(2.0, 0.5, q1, q2)),
    (chlib.torus(3.1, 0.7), lambda q1, q2: _hand_torus(3.1, 0.7, q1, q2)),
    (chlib.plane(), _hand_plane),
]


@pytest.mark.parametrize(
    "chart, hand",
    HAND_WRITTEN,
    ids=["sphere-1", "sphere-1.7", "cylinder-1.3", "torus-2-0.5", "torus-3.1-0.7", "plane"],
)
def test_jet_partials_equal_the_hand_written_ones(chart, hand):
    pts = chlib.interior_points(chart, 400)
    for q1, q2 in [(pts[:, 0], pts[:, 1])] + [tuple(p) for p in pts[:10]]:
        q1, q2 = np.asarray(q1), np.asarray(q2)
        d1, d2 = hand(q1, q2)
        assert np.array_equal(chart.partials(q1, q2, 2)[1], d1)
        assert np.array_equal(chart.partials(q1, q2, 2)[2], d2)


def test_jets_match_sympy_to_third_order():
    # every supported operation, with real and complex constants, against
    # sympy's derivatives of the same map
    sp = pytest.importorskip("sympy")

    def real(lib, u, v):
        return [
            lib.exp(u) * v / (2.0 + lib.cos(v)),
            lib.log(3.0 + u * u) - lib.sqrt(2.0 + lib.sin(u * v)),
            (1.5 + u) ** -2 * v**3 - 1.0 / (2.0 - u),
        ]

    def expressions(lib, u, v):
        return real(lib, u, v) + [
            lib.tan(0.4 * u - 0.3 * v) * (1.0 - 2.0j) + 1j * v,
            lib.exp(-2.5j * lib.log(lib.tan(0.5 * (u + 1.6)))) / lib.sin(u + 1.6),
        ]

    u, v = sp.symbols("u v")
    exprs = expressions(sp, u, v)
    for q1, q2 in ((0.3, -0.7), (-0.8, 0.45)):
        assert _jets.partials(lambda a, b: real(np, a, b), q1, q2, 3)[3].dtype == float
        jets = _jets.partials(lambda a, b: expressions(np, a, b), q1, q2, 3)
        assert all(d.dtype == complex for d in jets)
        for key in (k for n in range(4) for k in combinations_with_replacement((0, 1), n)):
            wrt = [(u, v)[k] for k in key]
            exact = [complex((e.diff(*wrt) if wrt else e).subs({u: q1, v: q2}))
                     for e in exprs]
            assert np.allclose(jets[len(key)][key], exact, rtol=1e-13, atol=1e-13)


ROW_FUNCTIONS = {name: _jets._ROWS[f] for name, f in (
    ("sin", np.sin), ("cos", np.cos), ("tan", np.tan), ("exp", np.exp), ("log", np.log),
    ("sqrt", np.sqrt),
)} | {f"power{e}": lambda x, n, e=e: _jets._power_rows(x, e, n) for e in (2, 0.5, -1)}


class CountingArray(np.ndarray):
    """An array that counts the ufuncs applied to it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountingArray.calls += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


@pytest.mark.parametrize("name", ROW_FUNCTIONS)
def test_rows_stop_at_the_jet_order(name):
    # a jet of order n computes n + 1 rows, the same bits as the first n + 1
    # rows at order 3 (None marks a row that is zero by structure), and an
    # order-0 jet evaluates the function alone, none of its derivatives
    rows_of = ROW_FUNCTIONS[name]
    x = np.linspace(0.2, 1.3, 7)
    full = rows_of(x, 3)
    for n in range(4):
        rows = rows_of(x, n)
        assert len(rows) == n + 1
        for a, b in zip(rows, full):
            assert (a is None and b is None) or np.array_equal(a, b)
    CountingArray.calls = 0
    rows_of(x.view(CountingArray), 0)
    assert CountingArray.calls == 1


def _array_jet(rng, shape):
    return Jet({key: rng.uniform(0.5, 2.0, shape) for key in [(), (0,), (1,)]}, 1)


def test_indexing_a_jet_gives_the_jets_of_the_entries():
    jet = _array_jet(np.random.default_rng(1), (2, 3, 4))
    assert jet.shape == (2, 3, 4)
    for index in [1, (slice(None), [2, 0]), (slice(None), None), (slice(None, None, -1), 0)]:
        entry = jet[index]
        assert isinstance(entry, Jet) and entry.order == 1
        assert entry.d.keys() == jet.d.keys()
        for key, v in jet.d.items():
            assert np.array_equal(entry.d[key], v[index])
        assert entry.shape == jet.d[()][index].shape


def test_ldexp_of_a_jet_scales_every_partial():
    jet = _array_jet(np.random.default_rng(2), (3, 4))
    n = np.array([-3, 0, 5, -1070])
    scaled = np.ldexp(jet, n)
    assert isinstance(scaled, Jet) and scaled.order == 1
    for key, v in jet.d.items():
        assert np.array_equal(scaled.d[key], np.ldexp(v, n))


def test_a_jet_quotient_keeps_the_bits_of_the_array_quotient():
    rng = np.random.default_rng(3)
    x, y = _array_jet(rng, 1000), _array_jet(rng, 1000)
    a, b = x.d[()], y.d[()]
    assert not np.array_equal(a * b**-1, a / b)  # the product form rounds differently
    for q, value in [(x / y, a / b), (0.7 / y, 0.7 / b), (np.float64(0.7) / y, 0.7 / b)]:
        assert np.array_equal(q.d[()], value)
    # the partials are the quotient rule's, to rounding
    q = x / y
    for key in [(0,), (1,)]:
        exact = (x.d[key] * b - a * y.d[key]) / (b * b)
        assert np.abs(q.d[key] - exact).max() < 1e-14  # entries are O(1)


def test_maps_outside_the_elementwise_contract_raise():
    import math

    chart = chlib.from_map(lambda u, v: [u, v, math.sin(u)], ((-1, 1), (-1, 1)))
    with pytest.raises(TypeError, match="elementwise numpy"):
        chart.partials(0.2, 0.3, 1)
    chart = chlib.from_map(lambda u, v: [u, v, np.arctan2(u, v)], ((-1, 1), (-1, 1)))
    with pytest.raises(TypeError, match="elementwise numpy"):
        chart.partials(0.2, 0.3, 2)


@pytest.mark.parametrize("third", [
    lambda u: 2.0 ** u, lambda u: abs(u), lambda u: u * (u > 0), lambda u: u * (0 >= u),
    lambda u: u * (u < 1.0), lambda u: u * (u <= 1.0), lambda u: u * (u == 0),
    lambda u: u * (u != 0),
], ids=["rpow", "abs", "gt", "le-reflected", "lt", "le", "eq", "ne"])
def test_pow_abs_and_comparisons_of_a_jet_name_the_contract(third):
    # the error names the elementwise contract, not the internal type, and
    # == / != may not silently compare identities
    chart = chlib.from_map(lambda u, v: [u, v, third(u)], ((-1, 1), (-1, 1)))
    with pytest.raises(TypeError) as err:
        chart.partials(0.2, 0.3, 1)
    assert str(err.value) == CONTRACT


def test_maps_with_numpy_scalar_constants():
    two, half = np.float64(2.0), np.float64(0.5)
    chart = chlib.from_map(
        lambda u, v: [two * u, v - half, half * u * v + two], ((-1, 1), (-1, 1))
    )
    d1 = chart.partials(np.array([0.2, -0.4]), 0.3, 1)[1]
    assert np.array_equal(chart.partials(0.2, 0.3, 0)[0], [0.4, 0.3 - 0.5, 0.5 * 0.2 * 0.3 + 2.0])
    assert np.array_equal(d1[:, :, 1], [[2.0, 0.0, 0.5 * 0.3], [0.0, 1.0, 0.5 * -0.4]])


def test_sphere_pole_is_singular():
    sphere = chlib.sphere()
    with pytest.raises(ChartSingularityError) as err:
        evaluate_frame(sphere, 0.0, 1.0)
    assert err.value.point == (0.0, 1.0)
    evaluate_frame(sphere, 1.0, 1.0)  # interior point is fine


def test_interior_points_deterministic_and_inside(builtin_charts):
    for chart in builtin_charts.values():
        pts_a = chlib.interior_points(chart, 30)
        pts_b = chlib.interior_points(chart, 30)
        assert np.array_equal(pts_a, pts_b)
        for q1, q2 in pts_a:
            assert chart.contains(q1, q2)
    sphere_pts = chlib.interior_points(builtin_charts["sphere"], 100)
    assert sphere_pts[:, 0].min() > chlib.POLE_BAND
    assert sphere_pts[:, 0].max() < np.pi - chlib.POLE_BAND


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        chlib.sphere(radius=-1.0)
    with pytest.raises(ValueError):
        chlib.torus(major_radius=1.0, minor_radius=2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, param", [
    ("sphere", "radius"), ("cylinder", "radius"), ("cylinder", "half_height"),
    ("torus", "major_radius"), ("torus", "minor_radius"), ("plane", "extent"),
])
def test_builders_refuse_a_non_finite_parameter(name, param, value):
    # `R <= 0.0` let NaN and inf through, to a chart with NaN or inf partials
    with pytest.raises(ValueError, match="finite"):
        chlib.make_chart(name, **{param: value})
