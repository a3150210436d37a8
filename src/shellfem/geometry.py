"""Midsurface differential geometry.

Charts map parameter coordinates (x1, x2) to points of a surface in R^3.
Built-in charts (plate, cylinder, sphere, hypar) are coordinate expressions
whose partials up to third order `expr.jet` takes exactly, once per chart,
and `expr.partials` evaluates; the Gauss and Weingarten formulas map that
jet to every coefficient field.  User-expression charts take the tangents
and second partials by central finite differences and feed them to the
exact charts' routine for the zeroth-order fields (`_coefficients`); their
derivative fields are central differences of those.  `Chart.evaluate` gives
the coefficient fields of `GeometryEval`, which is what the DOF layout,
assembly, loads and norms read; `Chart.derivatives` their first partials
(`GeometryDerivatives`), which only the exact manufactured loads and the
mesh condition read; `Chart.position` gives the points of the surface,
which only the VTK output reads.

Index conventions used throughout the package:
    a_cov[a, b]        = a_{ab}
    a_con[a, b]        = a^{ab}
    b_cov[a, b]        = b_{ab}
    b_mix[a, b]        = b^a_b = a^{ag} b_{gb}
    c_cov[a, b]        = c_{ab} = b_a^g b_{gb}
    christoffel[c,a,b] = Gamma^c_{ab}
    d_*[..., d]        = partial derivative with respect to x_d (last axis)
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import expr as exprmod

# A chart is refused where sqrt(a) = |a_1 x a_2| is below _DEGEN_TOL, or
# where its tangents are parallel to within _PARALLEL_TOL, as
# sqrt(a) <= _PARALLEL_TOL |a_1| |a_2|: central-difference tangents carry
# noise near FD_STEP^2 = _DEGEN_TOL, which the absolute test alone passes.
_DEGEN_TOL = 1e-12
_PARALLEL_TOL = 1e-8
# Central-difference step of ExpressionChart's tangents; its second
# differences and derivative fields take coarser steps derived from it.
FD_STEP = 1e-6
# The most points one batched evaluation takes; it bounds the transient
# memory of evaluating charts, loads and exact fields over a whole mesh.
POINT_BUDGET = 1 << 15


class GeometryError(ValueError):
    pass


class DegenerateChartError(GeometryError):
    pass


class DomainError(GeometryError):
    pass


@dataclass
class GeometryEval:
    """Geometric coefficient bundle at a batch of points (leading axes = batch)."""

    a_cov: np.ndarray         # (..., 2, 2)
    a_con: np.ndarray         # (..., 2, 2)
    sqrt_a: np.ndarray        # (...,)
    b_cov: np.ndarray         # (..., 2, 2)
    b_mix: np.ndarray         # (..., 2, 2)
    c_cov: np.ndarray         # (..., 2, 2)
    christoffel: np.ndarray   # (..., 2, 2, 2)

    def __getitem__(self, idx):
        """The bundle at batch index `idx`, applied to every field."""
        return GeometryEval(*(getattr(self, f.name)[idx] for f in fields(self)))

    def reshape(self, *shape):
        """The bundle with its batch axes reshaped to `shape`."""
        n = self.sqrt_a.ndim
        return GeometryEval(*(a.reshape(shape + a.shape[n:]) for a in
                              (getattr(self, f.name) for f in fields(self))))


@dataclass
class GeometryDerivatives:
    """First partials of the curvature and connection fields at a batch of
    points (leading axes = batch, last axis = direction)."""

    d_b_cov: np.ndarray        # (..., 2, 2, 2)
    d_b_mix: np.ndarray        # (..., 2, 2, 2)
    d_christoffel: np.ndarray  # (..., 2, 2, 2, 2)


@dataclass
class ElasticTensors:
    elastic: np.ndarray      # (..., 2, 2, 2, 2) a^{abgd}
    compliance: np.ndarray   # (..., 2, 2, 2, 2) a_{abgd}


def _join(parts):
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    if isinstance(first, tuple):
        return tuple(_join(list(p)) for p in zip(*parts))
    if is_dataclass(first):
        return type(first)(*(_join([getattr(p, f.name) for p in parts])
                             for f in fields(first)))
    return np.concatenate(parts)


def batched(fn, points, *more):
    """fn(points, *more) over slices of the leading axis of `points` (..., 2)
    and of `more` of at most POINT_BUDGET points each (at least one row);
    the results, arrays or tuples or dataclasses of arrays, are joined."""
    points = np.asarray(points, dtype=float)
    step = max(1, POINT_BUDGET // max(1, int(np.prod(points.shape[1:-1]))))
    return _join([fn(points[i:i + step], *(m[i:i + step] for m in more))
                  for i in range(0, max(len(points), 1), step)])


class Chart:
    """Base chart: the domain check.  Subclasses provide `position`,
    `evaluate` (a `GeometryEval`) and `derivatives` (a
    `GeometryDerivatives`)."""

    name = "chart"
    domain = None  # ((x1min, x1max), (x2min, x2max)) or None

    def check_domain(self, points) -> np.ndarray:
        """`points` as a float array, once checked to lie in the domain."""
        points = np.asarray(points, dtype=float)
        if self.domain is None:
            return points
        tol = 1e-9
        (l1, u1), (l2, u2) = self.domain
        x1, x2 = points[..., 0], points[..., 1]
        if (np.any(x1 < l1 - tol) or np.any(x1 > u1 + tol)
                or np.any(x2 < l2 - tol) or np.any(x2 > u2 + tol)):
            raise DomainError(f"point outside chart domain of {self.name}")
        return points


def _normal(tan):
    """a_1 x a_2 and sqrt(a) = |a_1 x a_2| from the tangents (3, 2, ...);
    raises where the chart is degenerate (see _PARALLEL_TOL)."""
    cross = np.cross(tan[:, 0], tan[:, 1], axis=0)
    sqrt_a = np.sqrt(np.einsum("i...,i...->...", cross, cross))
    length = np.sqrt(np.einsum("ia...,ia...->a...", tan, tan))
    if (np.any(sqrt_a < _DEGEN_TOL)
            or np.any(sqrt_a <= _PARALLEL_TOL * length[0] * length[1])):
        raise DegenerateChartError("tangent vectors are (nearly) linearly dependent")
    return cross, sqrt_a


def _coefficients(T, X2):
    """The zeroth-order coefficient fields, component axes first, from the
    tangents T[:, a] = a_a (3, 2, ...) and the second partials
    X2[:, a, b] = x_ab (3, 2, 2, ...): (a_cov, a_con, sqrt_a, b_cov, b_mix,
    christoffel), then a_1 x a_2 and G[e, a, b] = a_e . x_ab, which the
    derivative fields of exact jets read.  Raises where the chart is
    degenerate, before any field divides by sqrt(a) or det(a_cov)."""
    cross, sqrt_a = _normal(T)
    a_cov = np.einsum("ia...,ib...->ab...", T, T)
    a_con = np.array([[a_cov[1, 1], -a_cov[0, 1]],
                      [-a_cov[1, 0], a_cov[0, 0]]])
    a_con /= a_cov[0, 0] * a_cov[1, 1] - a_cov[0, 1] * a_cov[1, 0]
    # Gamma^c_ab = a^{ce} G_{e,ab}
    G = np.einsum("ie...,iab...->eab...", T, X2)
    b_cov = np.einsum("i...,iab...->ab...", cross, X2)
    b_cov /= sqrt_a
    b_mix = np.einsum("ag...,gb...->ab...", a_con, b_cov)
    gamma = np.einsum("ce...,eab...->cab...", a_con, G)
    return (a_cov, a_con, sqrt_a, b_cov, b_mix, gamma), cross, G


def _components_last(cls, k, *fs):
    """`cls` of the fields `fs`, given component axes first on k batch axes."""
    return cls(*(np.moveaxis(f, range(f.ndim - k), range(k - f.ndim, 0))
                 for f in fs))


def _geometry_eval(a_cov, a_con, sqrt_a, b_cov, b_mix, christoffel):
    """The `GeometryEval` of the fields given component axes first, with
    c_cov made from b_mix and b_cov."""
    c_cov = np.einsum("ga...,gb...->ab...", b_mix, b_cov)
    return _components_last(GeometryEval, sqrt_a.ndim, a_cov, a_con, sqrt_a,
                            b_cov, b_mix, c_cov, christoffel)


class SymbolicChart(Chart):
    """Chart given by three coordinate expressions and differentiated
    exactly: `expr.jet` gives the partials of the position up to third
    order once, and every coefficient field and its first derivatives
    follow from that jet by the Gauss and Weingarten formulas."""

    def __init__(self, name: str, components, domain=None):
        self.name = name
        self.domain = domain
        self._jet = exprmod.jet(components, 3)

    def position(self, points):
        points = self.check_domain(points)
        return np.moveaxis(exprmod.partials(self._jet, points, 0), 0, -1)

    def evaluate(self, points) -> GeometryEval:
        points = self.check_domain(points)
        T, X2 = (exprmod.partials(self._jet, points, k) for k in (1, 2))
        return _geometry_eval(*_coefficients(T, X2)[0])

    def derivatives(self, points) -> GeometryDerivatives:
        points = self.check_domain(points)
        T, X2, X3 = (exprmod.partials(self._jet, points, k) for k in (1, 2, 3))
        order0, cross, G = _coefficients(T, X2)
        _, a_con, sqrt_a, b_cov, b_mix, gamma = order0
        # A dot product over the vector axis i is a sum of three products,
        # so products that cancel in exact arithmetic cancel exactly: the
        # derivative fields of constant-coefficient charts are exactly 0.
        # dG[e, a, b, d] = x_ed . x_ab + a_e . x_abd are the partials of G
        dG = np.einsum("ied...,iab...->eabd...", X2, X2)
        dG += np.einsum("ie...,iabd...->eabd...", T, X3)
        # d_d a^{ab} = -a^{ag} (d_d a_gh) a^{hb} = -(M[a,b,d] + M[b,a,d])
        # with M[a,b,d] = a^{ag} Gamma^b_gd, as d_d a_gh = G_{h,gd} + G_{g,hd}
        M = np.einsum("ag...,bgd...->abd...", a_con, gamma)
        d_a_con = M + np.swapaxes(M, 0, 1)
        np.negative(d_a_con, out=d_a_con)
        d_christoffel = np.einsum("ce...,eabd...->cabd...", a_con, dG)
        d_christoffel += np.einsum("ced...,eab...->cabd...", d_a_con, G)
        # Weingarten: d_d b_ab = a3 . x_abd - b^g_d (a_g . x_ab)
        d_b_cov = np.einsum("i...,iabd...->abd...", cross, X3)
        d_b_cov /= sqrt_a
        del dG, X3     # the largest temporaries, before the outputs grow
        d_b_cov -= np.einsum("gd...,gab...->abd...", b_mix, G)
        d_b_mix = np.einsum("agd...,gb...->abd...", d_a_con, b_cov)
        d_b_mix += np.einsum("ag...,gbd...->abd...", a_con, d_b_cov)
        return _components_last(GeometryDerivatives, sqrt_a.ndim, d_b_cov,
                                d_b_mix, d_christoffel)


class ExpressionChart(Chart):
    """Chart given by three coordinate expressions and differentiated by
    central finite differences: the tangents (step FD_STEP) and the second
    partials (a coarser step) of the position feed `_coefficients`, as the
    exact jets of `SymbolicChart` do, and the derivative fields are central
    differences of its fields (a coarser step still)."""

    def __init__(self, name: str, components, domain=None):
        self.name = name
        self.domain = domain
        self._asts = [exprmod.parse(c) if isinstance(c, str) else c
                      for c in components]

    def position(self, points):
        return np.moveaxis(self._position(self.check_domain(points)), 0, -1)

    def _position(self, points):
        """The position (3, ...) at points (..., 2), unchecked."""
        x1, x2 = points[..., 0], points[..., 1]
        return np.stack([exprmod.evaluate(a, x1, x2) for a in self._asts])

    def _tangents(self, points):
        """T[:, a] = a_a (3, 2, ...) by central differences."""
        h = FD_STEP
        T = np.empty((3, 2) + points.shape[:-1])
        for a, e in enumerate(np.eye(2) * h):
            T[:, a] = (self._position(points + e)
                       - self._position(points - e)) / (2 * h)
        return T

    def _order0(self, points):
        """The zeroth-order fields of `_coefficients` at `points`."""
        # second differences of the position give x_ab; roundoff in a
        # second difference scales like eps/h^2, so use a coarser step than
        # for the first derivatives (optimal near eps^(1/4))
        h = max(FD_STEP, 1.2e-4)
        e1, e2 = np.eye(2) * h
        pc = self._position(points)
        X2 = np.empty((3, 2, 2) + points.shape[:-1])
        X2[:, 0, 0] = (self._position(points + e1) - 2 * pc
                       + self._position(points - e1)) / h**2
        X2[:, 1, 1] = (self._position(points + e2) - 2 * pc
                       + self._position(points - e2)) / h**2
        X2[:, 0, 1] = X2[:, 1, 0] = (
            self._position(points + e1 + e2) - self._position(points + e1 - e2)
            - self._position(points - e1 + e2)
            + self._position(points - e1 - e2)) / (4 * h**2)
        return _coefficients(self._tangents(points), X2)[0]

    def evaluate(self, points) -> GeometryEval:
        return _geometry_eval(*self._order0(self.check_domain(points)))

    def derivatives(self, points) -> GeometryDerivatives:
        points = self.check_domain(points)
        _normal(self._tangents(points))
        # FD of b_cov, b_mix and Gamma, the direction axis after their
        # components; a larger step keeps the inner second-difference noise
        # from being amplified
        h2 = max(FD_STEP ** 0.5, 1e-4)
        diffs = []
        for step in np.eye(2) * h2:
            plus, minus = (self._order0(points + s) for s in (step, -step))
            diffs.append([(plus[i] - minus[i]) / (2 * h2) for i in (3, 4, 5)])
        return _components_last(GeometryDerivatives, points.ndim - 1, *(
            np.stack(d, axis=-points.ndim) for d in zip(*diffs)))


def make_chart(kind: str, *, radius: float = 1.0, coeff: float = 1.0,
               components=None, domain=None) -> Chart:
    """Factory for the charts: the built-in plate, cylinder (radius R, in
    arclength coordinates), sphere (radius R, polar angle x1) and hypar
    (x3 = c x1 x2) as exact-jet charts of their coordinate expressions, and
    user-expression charts."""
    R, c = repr(float(radius)), repr(float(coeff))
    built_in = {
        "plate": ("x1", "x2", "0"),
        "cylinder": (f"{R}*cos(x1/{R})", f"{R}*sin(x1/{R})", "x2"),
        "sphere": (f"{R}*sin(x1)*cos(x2)", f"{R}*sin(x1)*sin(x2)",
                   f"{R}*cos(x1)"),
        "hypar": ("x1", "x2", f"{c}*x1*x2"),
    }
    if kind in built_in:
        return SymbolicChart(kind, built_in[kind], domain)
    if kind == "expression":
        if components is None or len(components) != 3:
            raise GeometryError("expression chart needs 3 coordinate expressions")
        return ExpressionChart("expression", components, domain)
    raise GeometryError(f"unknown chart kind {kind!r}")


def eval_elastic(geom: GeometryEval, lam: float, mu: float,
                 kappa: float = 5.0 / 6.0,
                 compliance: bool = True) -> ElasticTensors:
    """Plane-stress-reduced elastic tensor and its inverse (compliance),
    which is None unless `compliance`."""
    if mu <= 0 or lam < 0 or kappa <= 0:
        raise ValueError("need mu > 0, lam >= 0, kappa > 0")
    ac = geom.a_con
    elastic = (mu * (np.einsum("...ag,...bd->...abgd", ac, ac)
                     + np.einsum("...bg,...ad->...abgd", ac, ac))
               + (2 * mu * lam / (2 * mu + lam))
               * np.einsum("...ab,...gd->...abgd", ac, ac))
    if not compliance:
        return ElasticTensors(elastic, None)
    av = geom.a_cov
    return ElasticTensors(elastic, (1.0 / (2 * mu)) * (
        0.5 * (np.einsum("...ad,...bg->...abgd", av, av)
               + np.einsum("...bd,...ag->...abgd", av, av))
        - (lam / (2 * mu + 3 * lam))
        * np.einsum("...ab,...gd->...abgd", av, av)))

