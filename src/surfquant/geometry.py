"""Pointwise differential geometry of a parametric surface and its shell.

Everything here is a pure function of a chart and its parameter points.  The
central object is the GeometryFrame: tangents, metric, normal, second
fundamental form, Weingarten map and the curvature invariants.  A frame
comes from one evaluation of the chart's map on jets to second order, and
one body computes it: on arrays, or, for the curvature gradients
(d_mu M, d_mu K) that thin_shell needs, on order-1 jets of the tangents and
second partials from one evaluation to third order.  The gradients are
then the first partials of the frame's own M and K, exact on every chart.

Sign conventions (fixed once, relied on by every operator downstream):

* normal n = (d1 r x d2 r) / |d1 r x d2 r|, outward on built-in closed
  surfaces;
* second fundamental form h_{mu nu} = n . d_mu d_nu r;
* Weingarten map alpha = -g^{-1} h, equivalently d_mu n = alpha_mu^nu r_nu;
* mean curvature M = -tr(alpha)/2, Gaussian curvature K = det(alpha).

Under these choices the unit sphere with outward normal has M = -1, K = 1,
and the Laplace-Beltrami image of the coordinate functions satisfies the
identity lap(r) = 2 M n, which the tests use as the curvature oracle.

Point-axis convention: (q1, q2) may be arrays that broadcast to a point
shape S.  Point axes go last in every frame entry (tangents (2, 3) + S,
metric (2, 2) + S, normal (3,) + S, curvatures S), so one call evaluates a
whole set of points.  A scalar point gives the plain per-point arrays and
Python floats.
"""

from dataclasses import dataclass

import numpy as np

from ._jets import Jet, first_order, value
from .charts import _norm, _regular_cross
from .errors import ChartSingularityError, ShellFoldError


def _scalar(x):
    """A Python float for a single point, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _contract(x, axis):
    """Sum over a short axis as a chain of elementwise adds.

    Unlike einsum or a ufunc reduction, the rounding of each point then does
    not depend on the size or layout of the batch it is evaluated in.
    """
    head = (slice(None),) * axis
    total = x[head + (0,)]
    for k in range(1, x.shape[axis]):
        total = total + x[head + (k,)]
    return total


def _mm(a, b):
    """Matrix product over the two leading axes, point axes last."""
    return _contract(a[:, :, None] * b[None], 1)


def _matmul(a, b):
    """Matrix product over the two leading axes through np.matmul.

    Used for the raised tangents, so a single point's value is bit for bit
    its plain `metric_inv @ tangents`; np.matmul rounds differently from
    the elementwise _mm.
    """
    if a.ndim == b.ndim == 2:
        return a @ b
    lead = ((0, 1), (-2, -1))
    out = np.matmul(np.moveaxis(a, *lead), np.moveaxis(b, *lead))
    return np.moveaxis(out, (-2, -1), (0, 1))


@dataclass(frozen=True)
class GeometryFrame:
    """First- and second-order surface data over a point shape S (last axes);
    no metric derivative, since Gamma^l_{mu nu} = r^l . r_{mu nu}."""

    point: tuple  # (q1, q2), floats or arrays of shape S
    position: np.ndarray  # (3,) + S
    tangents: np.ndarray  # (2, 3) + S, rows d_mu r
    raised: np.ndarray  # (2, 3) + S, rows r^mu = g^{mu nu} r_nu
    metric: np.ndarray  # (2, 2) + S
    metric_inv: np.ndarray  # (2, 2) + S
    sqrt_g: object  # float or S
    normal: np.ndarray  # (3,) + S, unit
    second_form: np.ndarray  # (2, 2) + S, n . d_mu d_nu r
    weingarten: np.ndarray  # (2, 2) + S, alpha = -g^{-1} h
    mean_curvature: object  # float or S
    gaussian_curvature: object  # float or S
    second_partials: np.ndarray  # (2, 2, 3) + S, d_mu d_nu r

    def completeness_residual(self):
        """Entrywise residual of sum_mu r^mu (x) r_mu + n (x) n - I, (3, 3) + S."""
        r, t, n = self.raised, self.tangents, self.normal
        proj = _contract(r[:, :, None] * t[:, None], 0) + n[:, None] * n[None]
        return proj - np.eye(3).reshape((3, 3) + (1,) * (proj.ndim - 2))


@dataclass(frozen=True)
class ShellFrame:
    """Shell metric determinant and fold factor at offsets q3 above points."""

    det: object  # determinant of the shell metric from its entries
    fold_factor: object  # 1 - 2 M q3 + K q3^2, positive; det = g * fold_factor^2


def evaluate_frame(chart, q1, q2):
    """Evaluate the full geometric frame of `chart` at the points (q1, q2).

    The chart's map is evaluated once, on jets to second order.  The
    tangents are scaled per point by a power of two first, which is exact,
    so det g and |cross| cost no digits at any surface scale whose entries
    fit the float range.  Raises ChartSingularityError at a non-finite
    point, before the map runs, and where the tangents degenerate (for
    example the poles of the sphere chart), and ValueError where sqrt(g),
    g^-1, M or K is not finite (a surface scale whose metric or curvatures
    leave the float range), each naming the first such point.
    """
    return _frame(chart, q1, q2, 2)[0]


def _frame(chart, q1, q2, order):
    """(frame,) at order 2, (frame, dM, dK) at order 3, from one evaluation
    of the map; a non-finite point is refused before it.  At order 3 the body
    runs on order-1 jets of the tangents and second partials, so dM and dK,
    (2,) + point shape, are the partials of its M and K, refused like the
    frame where not finite, and the frame keeps the order-2 bits."""
    q1b, q2b = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
    finite_point = np.ravel(np.isfinite(q1b) & np.isfinite(q2b))
    if not finite_point.all():
        k = int(np.argmin(finite_point))
        raise ChartSingularityError(chart.name, (q1b.flat[k], q2b.flat[k]), "non-finite point")
    partials = chart.partials(q1, q2, order)
    position, tangents, d2 = partials[:3]
    # Each point's tangents times 2^-e (exact), so that g, det g and |cross|
    # stay in the float range; h = n . r_{mu nu} needs no scaling, and enters
    # alpha times 2^-e too.  Every entry is scaled back below.
    e = _scale_exponent(tangents)
    down, up2, down2 = -e, 2 * e, -2 * e
    t = tangents
    if order == 3:
        t, d2 = (first_order(x, dx) for x, dx in zip(partials[1:3], partials[2:4]))
    t = np.ldexp(t, down)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        cross = _regular_cross(chart, q1b, q2b, t)
        g = _contract(t[:, None] * t[None], 2)
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape((2, 2) + (1,) * len(det.shape))
        metric_inv = g[::-1, ::-1] * sign / det  # the adjugate, as g01 == g10 bit for bit
        raised = _matmul(value(metric_inv), value(t))
        del t
        sqrt_g = _norm(cross)
        normal = cross / sqrt_g
        second_form = _contract(d2 * normal, 2)
        weingarten = -_mm(metric_inv, np.ldexp(second_form, down))
        w = weingarten
        M = np.ldexp(-0.5 * (w[0, 0] + w[1, 1]), down)
        K = np.ldexp(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0], down2)
        gradients = [np.array([x.d[(0,)], x.d[(1,)]]) for x in (M, K) if isinstance(x, Jet)]
        g, metric_inv, sqrt_g, normal, second_form, weingarten, M, K = (
            value(x) for x in (g, metric_inv, sqrt_g, normal, second_form, weingarten, M, K))
        sqrt_g = np.ldexp(sqrt_g, up2)
        for x, p in ((g, up2), (metric_inv, down2), (raised, down), (weingarten, down)):
            np.ldexp(x, p, out=x)
    point = (q1b, q2b) if q1b.ndim else (float(q1b), float(q2b))
    _require_finite(chart, point, sqrt_g, metric_inv, M, K, *gradients)
    frame = GeometryFrame(
        point=point,
        position=position,
        tangents=tangents,
        raised=raised,
        metric=g,
        metric_inv=metric_inv,
        sqrt_g=_scalar(sqrt_g),
        normal=normal,
        second_form=second_form,
        weingarten=weingarten,
        mean_curvature=_scalar(M),
        gaussian_curvature=_scalar(K),
        second_partials=partials[2],
    )
    return (frame, *gradients)


def _scale_exponent(tangents):
    """Per point, the binary exponent e of its largest tangent entry, so that
    the tangents times 2^-e lie in [0.5, 1) at most."""
    return np.frexp(np.abs(tangents).max((0, 1)))[1]


def _require_finite(chart, point, *entries):
    """ValueError naming the first point at which an entry, of shape
    (...) + the point shape, is not finite."""
    shape = (-1,) + np.shape(point[0])
    finite = np.ravel(np.all([np.isfinite(x).reshape(shape).all(0) for x in entries], 0))
    if not finite.all():
        k = int(np.argmin(finite))
        bad = tuple(float(np.ravel(q)[k]) for q in point)
        raise ValueError(
            f"the {chart.name} chart's frame is not finite at {bad}: its metric or "
            f"curvatures overflow or underflow the float range"
        )


def geometric_potential(frame, hbar=1.0, mu=1.0):
    """Curvature-induced potential -(hbar^2 / 2 mu) (M^2 - K); a potential
    that overflows is a ValueError naming its first point."""
    if not (0.0 < hbar < np.inf and 0.0 < mu < np.inf):
        raise ValueError(f"hbar and mu must be finite and positive (got {hbar}, {mu})")
    M = frame.mean_curvature
    K = frame.gaussian_curvature
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        potential = -(hbar * hbar) / (2.0 * mu) * (M * M - K)
    overflow = ~np.isfinite(potential)
    if overflow.any():
        point = tuple(float(np.ravel(q)[np.argmax(overflow)]) for q in frame.point)
        raise ValueError(
            f"the geometric potential overflows at {point} (hbar={hbar}, mu={mu})"
        )
    return potential


def shell_frame(frame, q3):
    """Shell metric of the points r + q3 n built on a surface frame.

    The surface block is (I + q3 alpha) g (I + q3 alpha)^T, the normal
    row/column vanish and G_33 = 1, so det is the block's.  Degenerates
    (folds) where the fold factor 1 - 2 M q3 + K q3^2 <= 0, i.e. past the
    focal distance, and a NaN factor (a NaN q3 included) counts as a fold;
    an infinite q3, and an offset whose fold factor or determinant
    overflows, is a ValueError.
    q3 may be an array that broadcasts with the frame's point shape, with
    any extra axes leading (offsets (K,) on a scalar frame give shape
    (K,)); the first failing entry in C order is reported.
    """
    q3 = _scalar(np.asarray(q3, dtype=float))
    if np.isinf(q3).any():
        raise ValueError(f"shell offsets q3 must be finite (got {q3})")
    M = frame.mean_curvature
    K = frame.gaussian_curvature
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        factor = 1.0 - 2.0 * M * q3 + K * q3 * q3
        shape = np.shape(factor)
        # the offsets' extra leading axes go between the 2x2 axes and the points
        pad = (slice(None),) * 2 + (None,) * (len(shape) - np.ndim(M))
        B = np.eye(2).reshape((2, 2) + (1,) * len(shape)) + q3 * frame.weingarten[pad]
        block = _mm(_mm(B, frame.metric[pad]), B.swapaxes(0, 1))
        det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    folded = np.ravel(np.logical_not(factor > 0.0))  # NaN folds too
    failed = folded | np.ravel(~(np.isfinite(factor) & np.isfinite(det)))
    if failed.any():
        k = int(np.argmax(failed))
        q3_k = np.broadcast_to(q3, shape).ravel()[k]
        if folded[k]:
            raise ShellFoldError(q3_k, np.ravel(factor)[k])
        raise ValueError(f"shell offset q3={q3_k} overflows the shell metric")
    return ShellFrame(det=_scalar(det), fold_factor=factor)


def laplace_beltrami_jets(frame, grad, hess):
    """Intrinsic Laplacian from a field's first and second partials, in
    Christoffel form: g^{mu nu} (d_mu d_nu f - Gamma^l_{mu nu} d_l f) with
    Gamma^l_{mu nu} = r^l . r_{mu nu}, so the frame's g^-1, raised tangents
    and second partials are all it reads.

    grad has shape (2,) + E + S and hess (2, 2) + E + S, where S is the
    frame's point shape and E any extra leading axes (for example the three
    coordinate products of one field); the result has shape E + S.
    """
    ginv, d2 = frame.metric_inv, frame.second_partials
    traced = _contract(_contract(ginv[:, :, None] * d2, 1), 0)  # g^{mu nu} r_{mu nu}
    c = _contract(frame.raised * traced, 1)  # c_l = g^{mu nu} Gamma^l_{mu nu}
    trace = (
        ginv[0, 0] * hess[0, 0]
        + ginv[0, 1] * hess[0, 1]
        + ginv[1, 0] * hess[1, 0]
        + ginv[1, 1] * hess[1, 1]
    )
    return trace - (c[0] * grad[0] + c[1] * grad[1])


def laplace_beltrami(chart, field, q1, q2):
    """Intrinsic Laplacian (1/sqrt g) d_mu (g^{mu nu} sqrt g  d_nu f), in
    the Christoffel form of laplace_beltrami_jets.

    The field must supply exact partials to second order at the points; the
    connection comes from the chart's second partials, so for analytic
    charts and fields the result is accurate to machine precision.  Returns
    a complex for a single point, an array of the point shape otherwise.
    """
    frame = evaluate_frame(chart, q1, q2)
    out = laplace_beltrami_jets(frame, *field.partials(q1, q2, 2)[1:])
    return complex(out) if np.ndim(out) == 0 else out
