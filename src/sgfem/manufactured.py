"""Closed-form solutions with separable factors and their source terms.

Both examples live on the unit square with clamped boundary (value and
normal derivative zero).  Each displacement component is a product of two
univariate factors, so every derivative through fourth order is a product
of 1D derivative chains and the source

    f = iota^2 Delta g - g,     g = mu Delta u + (lam + mu) grad div u

expands into those chains with no numerical differentiation.

The second example adds boundary correctors built from ratios of
exponentials.  They are evaluated in an overflow-safe form (every
exponential argument is nonpositive on [0, 1]) and stay finite down to
``iota = 1e-6``; the corrector and its first derivative cancel exactly at
the endpoints.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import MaterialParams

__all__ = [
    "Separable1D",
    "ManufacturedField",
    "example_smooth",
    "example_layer",
    "example_field",
    "source",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Separable1D:
    """A univariate factor with evaluators for derivative orders 0..4."""

    funcs: tuple

    def __call__(self, t, order: int = 0):
        return self.funcs[order](np.asarray(t, dtype=float))


def factor_exp_cos(omega: float) -> Separable1D:
    """exp(cos(omega t)) - e, clamped to zero slope and value at t = 0."""
    e = np.e

    def d0(t):
        return np.exp(np.cos(omega * t)) - e

    def d1(t):
        return -omega * np.sin(omega * t) * np.exp(np.cos(omega * t))

    def d2(t):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return omega**2 * np.exp(c) * (s * s - c)

    def d3(t):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return omega**3 * np.exp(c) * s * (3.0 * c + 1.0 - s * s)

    def d4(t):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return omega**4 * np.exp(c) * (
            (c - s * s) * (3.0 * c + 1.0 - s * s) - s * s * (3.0 + 2.0 * c)
        )

    return Separable1D((d0, d1, d2, d3, d4))


def factor_cos(omega: float) -> Separable1D:
    """cos(omega t) - 1."""
    return Separable1D(
        (
            lambda t: np.cos(omega * t) - 1.0,
            lambda t: -omega * np.sin(omega * t),
            lambda t: -(omega**2) * np.cos(omega * t),
            lambda t: omega**3 * np.sin(omega * t),
            lambda t: omega**4 * np.cos(omega * t),
        )
    )


def _corrector_chain(iota: float):
    """Derivatives 0..4 of the boundary corrector

        L(t) = pi iota [coth(1/(2 iota)) - cosh((2t-1)/(2 iota)) / sinh(1/(2 iota))]

    written with exponentials of nonpositive argument only.  L and L' vanish
    at both endpoints to the last bit.
    """
    q = np.exp(-1.0 / iota)
    den = 1.0 - q
    coth = (1.0 + q) / den

    def even(t):
        return (np.exp((t - 1.0) / iota) + np.exp(-t / iota)) / den

    def odd(t):
        return (np.exp((t - 1.0) / iota) - np.exp(-t / iota)) / den

    d0 = lambda t: np.pi * iota * (coth - even(t))
    d1 = lambda t: -np.pi * odd(t)
    d2 = lambda t: -(np.pi / iota) * even(t)
    d3 = lambda t: -(np.pi / iota**2) * odd(t)
    d4 = lambda t: -(np.pi / iota**3) * even(t)
    return d0, d1, d2, d3, d4


def factor_exp_sin_layer(iota: float) -> Separable1D:
    """exp(sin(pi t)) - 1 - L(t)."""
    p = np.pi
    L = _corrector_chain(iota)

    def d0(t):
        return np.exp(np.sin(p * t)) - 1.0 - L[0](t)

    def d1(t):
        return p * np.cos(p * t) * np.exp(np.sin(p * t)) - L[1](t)

    def d2(t):
        s, c = np.sin(p * t), np.cos(p * t)
        return p**2 * np.exp(s) * (c * c - s) - L[2](t)

    def d3(t):
        s, c = np.sin(p * t), np.cos(p * t)
        return p**3 * np.exp(s) * c * (c * c - 3.0 * s - 1.0) - L[3](t)

    def d4(t):
        s, c = np.sin(p * t), np.cos(p * t)
        smooth = p**4 * np.exp(s) * (
            (c * c - s) * (c * c - 3.0 * s - 1.0) - c * c * (2.0 * s + 3.0)
        )
        return smooth - L[4](t)

    return Separable1D((d0, d1, d2, d3, d4))


def factor_sin_layer(iota: float) -> Separable1D:
    """sin(pi t) - L(t)."""
    p = np.pi
    L = _corrector_chain(iota)
    return Separable1D(
        (
            lambda t: np.sin(p * t) - L[0](t),
            lambda t: p * np.cos(p * t) - L[1](t),
            lambda t: -(p**2) * np.sin(p * t) - L[2](t),
            lambda t: -(p**3) * np.cos(p * t) - L[3](t),
            lambda t: p**4 * np.sin(p * t) - L[4](t),
        )
    )


@dataclass(frozen=True)
class ManufacturedField:
    """u = (X1(x) Y1(y), X2(x) Y2(y)) with the material it was built for."""

    name: str
    x1: Separable1D
    y1: Separable1D
    x2: Separable1D
    y2: Separable1D
    mat: MaterialParams

    def displacement(self, xy):
        x, y = xy[:, 0], xy[:, 1]
        return np.stack([self.x1(x) * self.y1(y), self.x2(x) * self.y2(y)], axis=-1)

    def gradient(self, xy):
        """(n, 2, 2) array with entry [i, j] = d_j u_i."""
        x, y = xy[:, 0], xy[:, 1]
        g = np.empty(xy.shape[:1] + (2, 2))
        g[:, 0, 0] = self.x1(x, 1) * self.y1(y)
        g[:, 0, 1] = self.x1(x) * self.y1(y, 1)
        g[:, 1, 0] = self.x2(x, 1) * self.y2(y)
        g[:, 1, 1] = self.x2(x) * self.y2(y, 1)
        return g

    def hessian(self, xy):
        """(n, 2, 2, 2) array with entry [i, j, k] = d_j d_k u_i."""
        x, y = xy[:, 0], xy[:, 1]
        h = np.empty(xy.shape[:1] + (2, 2, 2))
        h[:, 0, 0, 0] = self.x1(x, 2) * self.y1(y)
        h[:, 0, 0, 1] = h[:, 0, 1, 0] = self.x1(x, 1) * self.y1(y, 1)
        h[:, 0, 1, 1] = self.x1(x) * self.y1(y, 2)
        h[:, 1, 0, 0] = self.x2(x, 2) * self.y2(y)
        h[:, 1, 0, 1] = h[:, 1, 1, 0] = self.x2(x, 1) * self.y2(y, 1)
        h[:, 1, 1, 1] = self.x2(x) * self.y2(y, 2)
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
        x1=factor_exp_sin_layer(iota),
        y1=factor_exp_sin_layer(iota),
        x2=factor_sin_layer(iota),
        y2=factor_sin_layer(iota),
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

    Returns ``f(xy) -> (n, 2)`` expanded into products of the 1D chains.
    """
    lam, mu, i2 = field.mat.lam, field.mat.mu, field.mat.iota**2
    lm = lam + mu

    def f(xy):
        x, y = xy[:, 0], xy[:, 1]
        x1 = [field.x1(x, k) for k in range(5)]
        y1 = [field.y1(y, k) for k in range(5)]
        x2 = [field.x2(x, k) for k in range(5)]
        y2 = [field.y2(y, k) for k in range(5)]

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
