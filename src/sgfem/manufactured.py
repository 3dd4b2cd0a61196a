"""Closed-form solutions with separable factors and their source terms.

Both examples live on the unit square with clamped boundary (value and
normal derivative zero).  Each displacement component is a product of two
univariate factors, so every derivative through fourth order is a product
of 1D derivative chains and the source

    f = iota^2 Delta g - g,     g = mu Delta u + (lam + mu) grad div u

expands into those chains with no numerical differentiation.

Each axis is one derivative chain: a function ``chain(t, k)`` that returns
the pair ``(F1, F2)`` of both components' factors along that axis, each
the list of orders ``0..k`` (``k <= 4``) at ``t``.  The chain evaluates
every sine, cosine and exponential once, and both factors share them.  So
the displacement, the derivative rows (first and second derivatives of
each component together, :meth:`ManufacturedField.derivative_rows`) and
the source read the x chain once and the y chain once, at orders 0, 2
and 4.

Each chain runs only at the distinct coordinates of its axis and every
order is gathered back to the points with one take per axis, so the
values are those of one evaluation per point.  A field whose x and y
chains are one function, as the layer field's are, evaluates it in one
call on both axes' distinct coordinates.  A
:class:`~sgfem.quadrature.PointSet`, such as the quadrature points a dof
map keeps for the load and the energy error, carries its distinct
coordinates; any other (n, 2) array is deduplicated on each call.  No
evaluation is kept between calls: the load's order-4 pass and the energy
error's order-2 pass each run the chains.

The second example subtracts a boundary corrector, built from ratios of
exponentials, from both of its factors.  It is evaluated in an
overflow-safe form (every exponential argument is nonpositive on [0, 1])
and stays finite down to ``iota = 1e-6``; the corrector and its first
derivative cancel exactly at the endpoints.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .assembly import MaterialParams
from .quadrature import PointSet, distinct_coordinates

__all__ = [
    "ManufacturedField",
    "example_smooth",
    "example_layer",
    "example_field",
    "source",
]

TWO_PI = 2.0 * np.pi
# The (x, y) derivative orders of the rows of ManufacturedField.derivative_rows:
# d_x, d_y, d_xx, d_xy, d_yy.
_ROW_ORDERS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _cos_sin(omega, t, k):
    """cos(omega t), and sin(omega t) once order ``k`` needs it."""
    wt = omega * t
    return np.cos(wt), (np.sin(wt) if k >= 1 else None)


def _exp_cos(omega, c, s, k):
    """Orders 0..k of exp(cos(omega t)) - e, clamped to zero slope and value
    at t = 0, from ``c = cos(omega t)`` and ``s = sin(omega t)``."""
    ec = np.exp(c)
    out = [ec - np.e]
    if k >= 1:
        out.append(-omega * s * ec)
    if k >= 2:
        ss = s * s
        out.append(omega**2 * ec * (ss - c))
    if k >= 3:
        cubic = 3.0 * c + 1.0 - ss
        out.append(omega**3 * ec * s * cubic)
    if k >= 4:
        out.append(omega**4 * ec * ((c - ss) * cubic - ss * (3.0 + 2.0 * c)))
    return out


def _cos(omega, c, s, k):
    """Orders 0..k of cos(omega t) - 1."""
    out = [c - 1.0]
    if k >= 1:
        out.append(-omega * s)
    if k >= 2:
        out.append(-(omega**2) * c)
    if k >= 3:
        out.append(omega**3 * s)
    if k >= 4:
        out.append(omega**4 * c)
    return out


def _smooth_x(t, k):
    """Axis chain of the smooth field along x: exp(cos(2 pi t)) - e and
    cos(2 pi t) - 1 share one cosine and one sine."""
    c, s = _cos_sin(TWO_PI, t, k)
    return _exp_cos(TWO_PI, c, s, k), _cos(TWO_PI, c, s, k)


def _smooth_y(t, k):
    """Axis chain of the smooth field along y: exp(cos(2 pi t)) - e and
    cos(4 pi t) - 1, whose cosine is evaluated directly."""
    c, s = _cos_sin(TWO_PI, t, k)
    c2, s2 = _cos_sin(2.0 * TWO_PI, t, k)
    return _exp_cos(TWO_PI, c, s, k), _cos(2.0 * TWO_PI, c2, s2, k)


def _corrector_chain(iota: float):
    """Derivative chain of the boundary corrector

        L(t) = pi iota [coth(1/(2 iota)) - cosh((2t-1)/(2 iota)) / sinh(1/(2 iota))]

    written with exponentials of nonpositive argument only.  L and L' vanish
    at both endpoints to the last bit.
    """
    q = np.exp(-1.0 / iota)
    den = 1.0 - q
    coth = (1.0 + q) / den

    def chain(t, k):
        right, left = np.exp((t - 1.0) / iota), np.exp(-t / iota)
        even = (right + left) / den
        out = [np.pi * iota * (coth - even)]
        if k >= 1:
            odd = (right - left) / den
            out.append(-np.pi * odd)
        if k >= 2:
            out.append(-(np.pi / iota) * even)
        if k >= 3:
            out.append(-(np.pi / iota**2) * odd)
        if k >= 4:
            out.append(-(np.pi / iota**3) * even)
        return out

    return chain


def _exp_sin(s, c, k):
    """Orders 0..k of exp(sin(pi t)) - 1 from ``s = sin(pi t)`` and
    ``c = cos(pi t)``."""
    p = np.pi
    es = np.exp(s)
    out = [es - 1.0]
    if k >= 1:
        out.append(p * c * es)
    if k >= 2:
        cc = c * c
        out.append(p**2 * es * (cc - s))
    if k >= 3:
        cubic = cc - 3.0 * s - 1.0
        out.append(p**3 * es * c * cubic)
    if k >= 4:
        out.append(p**4 * es * ((cc - s) * cubic - cc * (2.0 * s + 3.0)))
    return out


def _sin(s, c, k):
    """Orders 0..k of sin(pi t)."""
    p = np.pi
    out = [s]
    if k >= 1:
        out.append(p * c)
    if k >= 2:
        out.append(-(p**2) * s)
    if k >= 3:
        out.append(-(p**3) * c)
    if k >= 4:
        out.append(p**4 * s)
    return out


def _layer_axis(iota: float) -> Callable:
    """Axis chain of the layer field, the same along x and y: the factors
    exp(sin(pi t)) - 1 - L(t) and sin(pi t) - L(t) share one sine, one
    cosine and the corrector L."""
    corrector = _corrector_chain(iota)

    def chain(t, k):
        pt = np.pi * t
        s = np.sin(pt)
        c = np.cos(pt) if k >= 1 else None
        lift = corrector(t, k)
        return tuple([a - b for a, b in zip(f(s, c, k), lift)] for f in (_exp_sin, _sin))

    return chain


def _gathered(factors, index):
    """Both factors' orders, evaluated at distinct coordinates, at the
    points that ``index`` maps to them: one (2, k + 1, n) block, from one
    take, whose rows are contiguous."""
    F1, F2 = factors
    return np.array(F1 + F2).take(index, axis=1).reshape(2, -1, len(index))


def _axis_orders(field, xy, k):
    """Orders ``0..k`` of both factors of each axis at the points ``xy``:
    ``(X, Y)``, each a (2, k + 1, n) block whose first index is the factor.

    The chains run at the distinct coordinates of each axis, which a
    :class:`~sgfem.quadrature.PointSet` carries and any other array
    computes, and are gathered back to the points."""
    (x, ix), (y, iy) = xy.axes if isinstance(xy, PointSet) else distinct_coordinates(xy)
    if field.y is field.x:
        # One call on both axes' coordinates: at a few hundred values the
        # cost of a chain is its per-call overhead.
        both = field.x(np.concatenate([x, y]), k)
        return _gathered(both, ix), _gathered(both, iy + len(x))
    return _gathered(field.x(x, k), ix), _gathered(field.y(y, k), iy)


@dataclass(frozen=True)
class ManufacturedField:
    """u = (X1(x) Y1(y), X2(x) Y2(y)) with the material it was built for;
    ``x(t, k)`` is the axis chain returning ``(X1, X2)`` through order
    ``k``, and ``y(t, k)`` the one returning ``(Y1, Y2)``."""

    name: str
    x: Callable
    y: Callable
    mat: MaterialParams

    def displacement(self, xy):
        (x1, x2), (y1, y2) = _axis_orders(self, xy, 0)
        return np.stack([x1[0] * y1[0], x2[0] * y2[0]], axis=-1)

    def derivative_rows(self, xy):
        """(2, 5, n) array: for each displacement component ``u_i`` the rows
        d_x u_i, d_y u_i, d_xx u_i, d_xy u_i and d_yy u_i over the points,
        from one order-2 pass."""
        rows = np.empty((2, 5, len(xy)))
        for i, (X, Y) in enumerate(zip(*_axis_orders(self, xy, 2))):
            for r, (a, b) in enumerate(_ROW_ORDERS):
                np.multiply(X[a], Y[b], out=rows[i, r])
        return rows

    def derivatives(self, xy):
        """The gradient, (n, 2, 2) with entry [i, j] = d_j u_i, and the
        Hessian, (n, 2, 2, 2) with entry [i, j, k] = d_j d_k u_i, from one
        :meth:`derivative_rows` read."""
        rows = self.derivative_rows(xy)
        g = rows[:, :2].transpose(2, 0, 1)
        h = rows[:, [2, 3, 3, 4]].reshape(2, 2, 2, -1).transpose(3, 0, 1, 2)
        return np.ascontiguousarray(g), np.ascontiguousarray(h)

    def gradient(self, xy):
        """(n, 2, 2) array with entry [i, j] = d_j u_i."""
        return self.derivatives(xy)[0]

    def hessian(self, xy):
        """(n, 2, 2, 2) array with entry [i, j, k] = d_j d_k u_i."""
        return self.derivatives(xy)[1]


def example_smooth(mat: MaterialParams | None = None) -> ManufacturedField:
    """Trigonometric-exponential solution, smooth uniformly in iota."""
    mat = mat or MaterialParams()
    return ManufacturedField(name="smooth", x=_smooth_x, y=_smooth_y, mat=mat)


def example_layer(iota: float, lam: float = 10.0, mu: float = 1.0) -> ManufacturedField:
    """Solution with exponential boundary correctors of width O(iota)."""
    mat = MaterialParams(lam=lam, mu=mu, iota=iota)
    axis = _layer_axis(iota)
    return ManufacturedField(name="layer", x=axis, y=axis, mat=mat)


def example_field(example: str, mat: MaterialParams) -> ManufacturedField:
    """The ``smooth`` or ``layer`` field built for ``mat``."""
    if example == "smooth":
        return example_smooth(mat)
    if example == "layer":
        return example_layer(mat.iota, mat.lam, mat.mu)
    raise ValueError(f"unknown example {example!r}, expected 'smooth' or 'layer'")


def source(field: ManufacturedField):
    """Pointwise f = iota^2 Delta g - g as a vectorized evaluator.

    Returns ``f(xy) -> (n, 2)`` expanded into products of the 1D chains;
    each call evaluates the x chain and the y chain once, through order 4,
    at the distinct coordinates of ``xy``.
    """
    lam, mu, i2 = field.mat.lam, field.mat.mu, field.mat.iota**2
    lm = lam + mu

    def f(xy):
        (x1, x2), (y1, y2) = _axis_orders(field, xy, 4)

        # Each product that the formula repeats is formed once, and the
        # sums keep its order of operations, so every bit is as written out.
        p1, p2 = x1[2] * y1[0], x2[0] * y2[2]
        q1, q2 = x1[4] * y1[0], x2[0] * y2[4]
        g1 = mu * (p1 + x1[0] * y1[2]) + lm * (p1 + x2[1] * y2[1])
        g2 = mu * (x2[2] * y2[0] + p2) + lm * (x1[1] * y1[1] + p2)
        lap_g1 = mu * (q1 + 2.0 * x1[2] * y1[2] + x1[0] * y1[4]) + lm * (
            q1 + x1[2] * y1[2] + x2[3] * y2[1] + x2[1] * y2[3]
        )
        lap_g2 = mu * (x2[4] * y2[0] + 2.0 * x2[2] * y2[2] + q2) + lm * (
            x1[3] * y1[1] + x1[1] * y1[3] + x2[2] * y2[2] + q2
        )
        out = np.empty((len(g1), 2))
        np.subtract(i2 * lap_g1, g1, out=out[:, 0])
        np.subtract(i2 * lap_g2, g2, out=out[:, 1])
        return out

    return f
