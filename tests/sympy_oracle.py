"""The sympy oracle for fields: `from_expr` lambdifies an expression and its
first and second partials, independently of the jets that differentiate
the package's own fields.  THETA and PHI are the real symbols it takes."""

import numpy as np
import sympy as sp

from surfquant.fields import ScalarField

THETA, PHI = sp.symbols("theta phi", real=True)


def from_expr(expr, syms=(THETA, PHI), label="oracle"):
    """A ScalarField from a sympy expression in two symbols."""
    expr = sp.sympify(expr)
    grad = [sp.diff(expr, s) for s in syms]
    rows = [[expr], grad, [sp.diff(g, s) for g in grad for s in syms]]
    fns = [[sp.lambdify(syms, e, modules="numpy") for e in row] for row in rows]

    def partials(q1, q2, order):
        shape = np.broadcast(np.asarray(q1), np.asarray(q2)).shape
        return [
            np.array([np.broadcast_to(np.asarray(fn(q1, q2), dtype=complex), shape)
                      for fn in row]).reshape(lead + shape)
            for row, lead in zip(fns[:order + 1], [(), (2,), (2, 2)])
        ]

    return ScalarField(label, partials)
