"""Closed-form solutions with separable factors and their source terms.

Both examples live on the unit square with clamped boundary (value and
normal derivative zero).  Each displacement component is a product of two
univariate factors, so every derivative through fourth order is a product
of 1D derivative chains and the source

    f = iota^2 Delta g - g,     g = mu Delta u + (lam + mu) grad div u

expands into those chains with no numerical differentiation.

Each factor is its derivative chain: a function ``chain(t, k)`` that
returns the list of orders ``0..k`` (``k <= 4``) at ``t`` and evaluates
every sine, cosine and exponential it needs once, so the displacement, the
gradient, the Hessian and the source read one chain per factor, at orders
0, 1, 2 and 4.

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

__all__ = [
    "ManufacturedField",
    "example_smooth",
    "example_layer",
    "example_field",
    "source",
]

TWO_PI = 2.0 * np.pi


def factor_exp_cos(omega: float) -> Callable:
    """exp(cos(omega t)) - e, clamped to zero slope and value at t = 0."""
    e = np.e

    def chain(t, k):
        wt = omega * t
        c = np.cos(wt)
        ec = np.exp(c)
        out = [ec - e]
        if k >= 1:
            s = np.sin(wt)
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

    return chain


def factor_cos(omega: float) -> Callable:
    """cos(omega t) - 1."""

    def chain(t, k):
        wt = omega * t
        c = np.cos(wt)
        out = [c - 1.0]
        if k >= 1:
            s = np.sin(wt)
            out.append(-omega * s)
        if k >= 2:
            out.append(-(omega**2) * c)
        if k >= 3:
            out.append(omega**3 * s)
        if k >= 4:
            out.append(omega**4 * c)
        return out

    return chain


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


def _exp_sin(t, k):
    """Derivative chain of exp(sin(pi t)) - 1."""
    p = np.pi
    pt = p * t
    s = np.sin(pt)
    es = np.exp(s)
    out = [es - 1.0]
    if k >= 1:
        c = np.cos(pt)
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


def _sin(t, k):
    """Derivative chain of sin(pi t)."""
    p = np.pi
    pt = p * t
    s = np.sin(pt)
    out = [s]
    if k >= 1:
        c = np.cos(pt)
        out.append(p * c)
    if k >= 2:
        out.append(-(p**2) * s)
    if k >= 3:
        out.append(-(p**3) * c)
    if k >= 4:
        out.append(p**4 * s)
    return out


def _minus_corrector(smooth, iota: float) -> Callable:
    """The chain of the layer factor ``smooth(t) - L(t)``, order by order."""
    corrector = _corrector_chain(iota)

    def chain(t, k):
        return [a - b for a, b in zip(smooth(t, k), corrector(t, k))]

    return chain


@dataclass(frozen=True)
class ManufacturedField:
    """u = (X1(x) Y1(y), X2(x) Y2(y)) with the material it was built for;
    each factor is its derivative chain ``chain(t, k)``."""

    name: str
    x1: Callable
    y1: Callable
    x2: Callable
    y2: Callable
    mat: MaterialParams

    def displacement(self, xy):
        x, y = xy[:, 0], xy[:, 1]
        u1 = self.x1(x, 0)[0] * self.y1(y, 0)[0]
        return np.stack([u1, self.x2(x, 0)[0] * self.y2(y, 0)[0]], axis=-1)

    def gradient(self, xy):
        """(n, 2, 2) array with entry [i, j] = d_j u_i."""
        x, y = xy[:, 0], xy[:, 1]
        x1, y1 = self.x1(x, 1), self.y1(y, 1)
        x2, y2 = self.x2(x, 1), self.y2(y, 1)
        g = np.empty(xy.shape[:1] + (2, 2))
        g[:, 0, 0] = x1[1] * y1[0]
        g[:, 0, 1] = x1[0] * y1[1]
        g[:, 1, 0] = x2[1] * y2[0]
        g[:, 1, 1] = x2[0] * y2[1]
        return g

    def hessian(self, xy):
        """(n, 2, 2, 2) array with entry [i, j, k] = d_j d_k u_i."""
        x, y = xy[:, 0], xy[:, 1]
        x1, y1 = self.x1(x, 2), self.y1(y, 2)
        x2, y2 = self.x2(x, 2), self.y2(y, 2)
        h = np.empty(xy.shape[:1] + (2, 2, 2))
        h[:, 0, 0, 0] = x1[2] * y1[0]
        h[:, 0, 0, 1] = h[:, 0, 1, 0] = x1[1] * y1[1]
        h[:, 0, 1, 1] = x1[0] * y1[2]
        h[:, 1, 0, 0] = x2[2] * y2[0]
        h[:, 1, 0, 1] = h[:, 1, 1, 0] = x2[1] * y2[1]
        h[:, 1, 1, 1] = x2[0] * y2[2]
        return h


def example_smooth(mat: MaterialParams | None = None) -> ManufacturedField:
    """Trigonometric-exponential solution, smooth uniformly in iota."""
    mat = mat or MaterialParams()
    return ManufacturedField(
        name="smooth",
        x1=factor_exp_cos(TWO_PI),
        y1=factor_exp_cos(TWO_PI),
        x2=factor_cos(TWO_PI),
        y2=factor_cos(2.0 * TWO_PI),
        mat=mat,
    )


def example_layer(iota: float, lam: float = 10.0, mu: float = 1.0) -> ManufacturedField:
    """Solution with exponential boundary correctors of width O(iota)."""
    mat = MaterialParams(lam=lam, mu=mu, iota=iota)
    return ManufacturedField(
        name="layer",
        x1=_minus_corrector(_exp_sin, iota),
        y1=_minus_corrector(_exp_sin, iota),
        x2=_minus_corrector(_sin, iota),
        y2=_minus_corrector(_sin, iota),
        mat=mat,
    )


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
    each call evaluates every factor's chain once, through order 4.
    """
    lam, mu, i2 = field.mat.lam, field.mat.mu, field.mat.iota**2
    lm = lam + mu

    def f(xy):
        x, y = xy[:, 0], xy[:, 1]
        x1, y1 = field.x1(x, 4), field.y1(y, 4)
        x2, y2 = field.x2(x, 4), field.y2(y, 4)

        g1 = mu * (x1[2] * y1[0] + x1[0] * y1[2]) + lm * (x1[2] * y1[0] + x2[1] * y2[1])
        g2 = mu * (x2[2] * y2[0] + x2[0] * y2[2]) + lm * (x1[1] * y1[1] + x2[0] * y2[2])
        lap_g1 = mu * (x1[4] * y1[0] + 2.0 * x1[2] * y1[2] + x1[0] * y1[4]) + lm * (
            x1[4] * y1[0] + x1[2] * y1[2] + x2[3] * y2[1] + x2[1] * y2[3]
        )
        lap_g2 = mu * (x2[4] * y2[0] + 2.0 * x2[2] * y2[2] + x2[0] * y2[4]) + lm * (
            x1[3] * y1[1] + x1[1] * y1[3] + x2[2] * y2[2] + x2[0] * y2[4]
        )
        return np.stack([i2 * lap_g1 - g1, i2 * lap_g2 - g2], axis=-1)

    return f
