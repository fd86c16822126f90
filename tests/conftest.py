import numpy as np
import pytest

from surfquant import charts as chlib
from surfquant import fields as flib


@pytest.fixture(scope="session")
def builtin_charts():
    return {
        "sphere": chlib.sphere(),
        "cylinder": chlib.cylinder(),
        "torus": chlib.torus(),
        "plane": chlib.plane(),
    }


@pytest.fixture(scope="session")
def field_library():
    # Y_lm for l <= 3, all m, plus three seeded trig polynomials.
    return flib.field_library(lmax=3, trig_count=3)


@pytest.fixture(scope="session")
def sphere_points():
    return chlib.interior_points(chlib.sphere(), 50)


def plane_wave(k, axis=0):
    """exp(i k q_axis), the flat chart's momentum eigenfunction, as a field."""
    return flib.map_field(lambda q1, q2: np.exp(1j * k * (q1, q2)[axis]),
                          f"exp(i{k:g}q{axis + 1})")


def chart_points(chart, n=50):
    return chlib.interior_points(chart, n)


def fd_gradient(fn, q1, q2, h=1e-5):
    """O(h^2) central difference gradient of a scalar callable."""
    return np.array(
        [
            (fn(q1 + h, q2) - fn(q1 - h, q2)) / (2 * h),
            (fn(q1, q2 + h) - fn(q1, q2 - h)) / (2 * h),
        ]
    )


def fd_hessian(fn, q1, q2, h=1e-4):
    f0 = fn(q1, q2)
    d11 = (fn(q1 + h, q2) - 2 * f0 + fn(q1 - h, q2)) / h**2
    d22 = (fn(q1, q2 + h) - 2 * f0 + fn(q1, q2 - h)) / h**2
    d12 = (
        fn(q1 + h, q2 + h)
        - fn(q1 + h, q2 - h)
        - fn(q1 - h, q2 + h)
        + fn(q1 - h, q2 - h)
    ) / (4 * h**2)
    return np.array([[d11, d12], [d12, d22]])
