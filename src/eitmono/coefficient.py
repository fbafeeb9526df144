"""Piecewise conductivity fields over labeled mesh regions.

A field assigns: the positive background on unlabeled triangles, symbolic 0
on D0, symbolic infinity on Dinf, bounded per-triangle values on DFminus and
DFplus, and power-law weight formulas on Ddeg and Dsing.  The extreme labels
never become floating-point values; they change the discrete function space
in the solver instead.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .geometry import BACKGROUND, REGION_LABELS

EXTREME_LABELS = ("D0", "Dinf")
WEIGHT_LABELS = ("Ddeg", "Dsing")
FINITE_LABELS = ("DFminus", "DFplus")

_FEATURE_TOL = 1e-9


class CoefficientError(ValueError):
    pass


class SingularNodeError(CoefficientError):
    """Raised when a negative-exponent weight is evaluated exactly on its
    singular set; quadrature must route nodes around such points."""


@dataclass(frozen=True)
class WeightFactor:
    kind: str                  # constant | radial_power | surface_power
    value: float = 1.0         # constant value, or power-law amplitude
    center: tuple = None       # radial_power
    exponent: float = 0.0
    polyline: tuple = None     # surface_power, ((x,y), ...)


@dataclass(frozen=True)
class WeightSpec:
    """Product of power-law factors with an optional clip window.

    Exponent ranges follow the planar admissible class: radial exponents in
    (-2, 2), surface exponents in (-1, 1).  The clip, when set, bounds values
    away from the declared singular behaviour (it is applied to the evaluated
    product, so configurations should keep it inactive near features).
    """

    factors: tuple
    clip: tuple = None

    def __post_init__(self):
        for f in self.factors:
            if f.kind == "constant":
                if not (f.value > 0 and math.isfinite(f.value)):
                    raise CoefficientError("constant weight factor must be finite positive")
            elif f.kind == "radial_power":
                if not (-2.0 < f.exponent < 2.0):
                    raise CoefficientError(
                        f"radial exponent {f.exponent} outside (-2, 2)")
                if f.value <= 0:
                    raise CoefficientError("radial amplitude must be positive")
            elif f.kind == "surface_power":
                if not (-1.0 < f.exponent < 1.0):
                    raise CoefficientError(
                        f"surface exponent {f.exponent} outside (-1, 1)")
                if f.value <= 0:
                    raise CoefficientError("surface amplitude must be positive")
            else:
                raise CoefficientError(f"unknown weight factor kind {f.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c):
        return WeightSpec(factors=(WeightFactor(kind="constant", value=float(c)),))

    @staticmethod
    def radial_power(center, exponent, amplitude=1.0, clip=None):
        return WeightSpec(factors=(WeightFactor(
            kind="radial_power", value=float(amplitude),
            center=(float(center[0]), float(center[1])),
            exponent=float(exponent)),), clip=clip)

    @staticmethod
    def surface_power(polyline, exponent, amplitude=1.0, clip=None):
        pl = tuple((float(x), float(y)) for x, y in polyline)
        if len(pl) < 2:
            raise CoefficientError("surface_power needs a polyline of >= 2 points")
        return WeightSpec(factors=(WeightFactor(
            kind="surface_power", value=float(amplitude),
            exponent=float(exponent), polyline=pl),), clip=clip)

    @staticmethod
    def product(*specs, clip=None):
        factors = tuple(f for s in specs for f in s.factors)
        return WeightSpec(factors=factors, clip=clip)

    # -- evaluation --------------------------------------------------------

    def __call__(self, points):
        return self.eval(points)

    def eval(self, points):
        """Evaluate the weight at an (n, 2) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.ones(len(pts))
        for f in self.factors:
            if f.kind == "constant":
                vals *= f.value
                continue
            d = self._feature_distance(f, pts)
            if f.exponent < 0 and np.any(d <= 0.0):
                raise SingularNodeError(
                    "weight evaluated exactly on its singular set")
            with np.errstate(divide="ignore"):
                vals *= f.value * d ** f.exponent
        if self.clip is not None:
            lo, hi = self.clip
            if lo is not None:
                vals = np.maximum(vals, lo)
            if hi is not None:
                vals = np.minimum(vals, hi)
        return vals

    @staticmethod
    def _feature_distance(f, pts):
        if f.kind == "radial_power":
            c = np.asarray(f.center)
            return np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
        pl = np.asarray(f.polyline)
        from .polygons import points_segments_distance
        return points_segments_distance(pts, pl[:-1], pl[1:])

    # -- singular feature geometry (for meshing and graded quadrature) -----

    def singular_points(self):
        out = []
        for f in self.factors:
            if f.kind == "radial_power" and f.exponent != 0.0:
                out.append(np.asarray(f.center, dtype=float))
        return out

    def singular_segments(self):
        out = []
        for f in self.factors:
            if f.kind == "surface_power" and f.exponent != 0.0:
                out.append(np.asarray(f.polyline, dtype=float))
        return out

    def vertex_exponent(self, point):
        """Total homogeneity degree of the weight around a point (sum over
        factors whose singular set passes through it)."""
        p = np.asarray(point, dtype=float)
        total = 0.0
        for f in self.factors:
            if f.kind == "radial_power":
                if np.hypot(*(p - np.asarray(f.center))) <= _FEATURE_TOL:
                    total += f.exponent
            elif f.kind == "surface_power":
                if float(self._feature_distance(f, p[None, :])[0]) <= _FEATURE_TOL:
                    total += f.exponent
        return total

    def edge_exponent(self, a, b):
        """Exponent of the factor whose polyline carries the segment ab, or
        None when the segment is not on a singular surface."""
        mid = (np.asarray(a, float) + np.asarray(b, float)) / 2.0
        total, hit = 0.0, False
        for f in self.factors:
            if f.kind != "surface_power" or f.exponent == 0.0:
                continue
            d = self._feature_distance(f, np.array([a, b, mid], dtype=float))
            if np.all(d <= _FEATURE_TOL):
                total += f.exponent
                hit = True
        return total if hit else None

    def describe(self):
        parts = []
        for f in self.factors:
            if f.kind == "constant":
                parts.append(f"const({f.value:g})")
            elif f.kind == "radial_power":
                parts.append(f"radial({f.center},{f.exponent:g},{f.value:g})")
            else:
                parts.append(f"surface({f.polyline},{f.exponent:g},{f.value:g})")
        return "*".join(parts) + (f"|clip{self.clip}" if self.clip else "")


def graded_triangle_integral(func, tri, weight, depth=12, splits=2,
                             exponent_sign=1.0):
    """Integrate ``func`` over a triangle, grading toward any singular
    feature of ``weight`` that touches the triangle.

    Dispatch: an edge lying on a singular polyline gets strip grading; a
    vertex on a singular point/polyline gets ring grading; otherwise a plain
    order-5 rule with uniform splits.  ``func`` need not equal the weight:
    the A2 machinery integrates 1/w with the same grading geometry, passing
    ``exponent_sign=-1`` so the series tails match the actual integrand.
    """
    tri = np.asarray(tri, dtype=float)

    for e in range(3):
        a, b = tri[(e + 1) % 3], tri[(e + 2) % 3]
        s = weight.edge_exponent(a, b)
        if s is not None:
            return quad.integrate_edge_graded(func, tri, e, exponent_sign * s,
                                              depth=depth, splits=splits)
    for v in range(3):
        s = weight.vertex_exponent(tri[v])
        if s != 0.0:
            return quad.integrate_vertex_graded(func, tri, v, exponent_sign * s,
                                                depth=depth, splits=splits)
    return quad.integrate(func, tri[None, :, :], rule="order5", splits=splits)


# ---------------------------------------------------------------------------
# Coefficient field on a mesh
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """Conductivity assignment over the labeled triangles of a mesh."""

    mesh: object
    gamma0: object = 1.0
    finite_values: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    quad_depth: int = 12

    def __post_init__(self):
        for label in self.finite_values:
            if label not in FINITE_LABELS:
                raise CoefficientError(f"finite values not allowed on {label}")
        for label in self.weights:
            if label not in WEIGHT_LABELS:
                raise CoefficientError(f"weights not allowed on {label}")
        self._element_integrals = None

    # -- basic queries ------------------------------------------------------

    def gamma0_per_triangle(self):
        g = self.gamma0
        if np.isscalar(g):
            return np.full(self.mesh.num_triangles, float(g))
        g = np.asarray(g, dtype=float)
        if g.shape != (self.mesh.num_triangles,):
            raise CoefficientError("per-triangle gamma0 has wrong length")
        return g

    def finite_per_triangle(self, label):
        v = self.finite_values[label]
        mask = self.mesh.triangle_region == label
        if np.isscalar(v):
            return np.full(int(mask.sum()), float(v)), mask
        v = np.asarray(v, dtype=float)
        if v.shape == (self.mesh.num_triangles,):
            return v[mask], mask
        if v.shape == (int(mask.sum()),):
            return v, mask
        raise CoefficientError(f"per-triangle values for {label} have wrong length")

    def weight_for(self, label):
        if label not in self.weights:
            raise CoefficientError(f"no weight assigned to {label}")
        return self.weights[label]

    # -- evaluation ----------------------------------------------------------

    def eval(self, points, label):
        """Coefficient value at points known to lie in triangles labeled
        ``label``: 0 on D0, inf on Dinf, weight formula on Ddeg/Dsing,
        assigned finite value elsewhere (background value for 'bg')."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if label == "D0":
            return np.zeros(len(pts))
        if label == "Dinf":
            return np.full(len(pts), np.inf)
        if label in WEIGHT_LABELS:
            return self.weight_for(label).eval(pts)
        if label in FINITE_LABELS:
            v = self.finite_values.get(label)
            if v is None:
                raise CoefficientError(f"no values assigned to {label}")
            if np.isscalar(v):
                return np.full(len(pts), float(v))
            # Per-triangle data needs a triangle lookup; nearest centroid.
            mask = self.mesh.triangle_region == label
            cents = self.mesh.centroids()[mask]
            vals, _ = self.finite_per_triangle(label)
            idx = np.argmin(np.sum((pts[:, None, :] - cents[None, :, :]) ** 2, axis=2), axis=1)
            return vals[idx]
        if label == BACKGROUND:
            g = self.gamma0
            if np.isscalar(g):
                return np.full(len(pts), float(g))
            raise CoefficientError("per-triangle background needs a triangle index")
        raise CoefficientError(f"unknown label {label!r}")

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Enforce the sign conventions and boundedness clauses at quadrature
        nodes; raises CoefficientError naming the violated clause."""
        problems = []
        g0 = self.gamma0_per_triangle()
        if np.any(~np.isfinite(g0)) or np.any(g0 <= 0):
            problems.append("background gamma0 must be finite positive")

        for label in FINITE_LABELS:
            if not np.any(self.mesh.triangle_region == label):
                continue
            if label not in self.finite_values:
                problems.append(f"{label} triangles present but no values assigned")
                continue
            vals, mask = self.finite_per_triangle(label)
            if np.any(vals <= 0) or np.any(~np.isfinite(vals)):
                problems.append(f"{label} values must be bounded away from 0 and inf")
            g = g0[mask]
            if label == "DFminus" and np.any(vals > g + 1e-12):
                problems.append("DFminus values exceed the background")
            if label == "DFplus" and np.any(vals < g - 1e-12):
                problems.append("DFplus values fall below the background")

        for label in WEIGHT_LABELS:
            mask = self.mesh.triangle_region == label
            if not np.any(mask):
                continue
            if label not in self.weights:
                problems.append(f"{label} triangles present but no weight assigned")
                continue
            w = self.weights[label]
            tris = self.mesh.triangle_coords(np.where(mask)[0])
            # Interior-node rule: edge midpoints could sit exactly on a
            # declared singular segment.
            pts, _ = quad.quad_nodes(tris, rule="order5", splits=0)
            vals = w.eval(pts)
            gref = np.repeat(g0[mask], len(pts) // int(mask.sum()))
            if np.any(vals <= 0):
                problems.append(f"{label} weight not strictly positive at quadrature nodes")
            if label == "Ddeg" and np.any(vals > gref + 1e-12):
                problems.append("Ddeg weight exceeds the background at quadrature nodes")
            if label == "Dsing" and np.any(vals < gref - 1e-12):
                problems.append("Dsing weight falls below the background at quadrature nodes")

        if problems:
            raise CoefficientError("; ".join(problems))
        return self

    # -- assembly support ------------------------------------------------------

    def element_integrals(self):
        """Per-triangle integral of the coefficient over non-extreme
        triangles (nan on D0/Dinf, which never enter the stiffness form)."""
        if self._element_integrals is not None:
            return self._element_integrals
        mesh = self.mesh
        areas = mesh.triangle_areas()
        g0 = self.gamma0_per_triangle()
        out = g0 * areas  # background default
        region = mesh.triangle_region

        for label in EXTREME_LABELS:
            out[region == label] = np.nan
        for label in FINITE_LABELS:
            if label in self.finite_values and np.any(region == label):
                vals, mask = self.finite_per_triangle(label)
                out[mask] = vals * areas[mask]
        for label in WEIGHT_LABELS:
            mask = region == label
            if not np.any(mask):
                continue
            w = self.weight_for(label)
            for t in np.where(mask)[0]:
                tri = mesh.triangle_coords(t)
                val = graded_triangle_integral(w.eval, tri, w, depth=self.quad_depth)
                if not np.isfinite(val):
                    raise CoefficientError(
                        f"nonfinite element integral on triangle {t} ({label}); "
                        "undeclared singularity?")
                out[t] = val
        self._element_integrals = out
        return out

    # -- derived fields ---------------------------------------------------------

    def with_mesh_labels(self, mapping):
        """Field on a mesh with relabeled triangles (weights dropped for
        labels that were remapped away)."""
        new_mesh = self.mesh.relabeled(mapping)
        weights = {k: v for k, v in self.weights.items() if k not in mapping}
        finite = {k: v for k, v in self.finite_values.items() if k not in mapping}
        return CoefficientField(mesh=new_mesh, gamma0=self.gamma0,
                                finite_values=finite, weights=weights,
                                quad_depth=self.quad_depth)

    def provenance(self):
        hasher = hashlib.sha256()
        hasher.update(self.mesh.provenance().encode())
        hasher.update("".join(self.mesh.triangle_region.tolist()).encode())
        g = self.gamma0_per_triangle()
        hasher.update(np.round(g, 12).tobytes())
        for label in sorted(self.finite_values):
            hasher.update(label.encode())
            v = self.finite_values[label]
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            hasher.update(np.round(arr, 12).tobytes())
        for label in sorted(self.weights):
            hasher.update(label.encode())
            hasher.update(self.weights[label].describe().encode())
        return hasher.hexdigest()[:16]


def homogeneous_field(mesh, gamma0=1.0):
    """Background-only field (all labels ignored if present)."""
    return CoefficientField(mesh=mesh.relabeled(
        {lab: BACKGROUND for lab in REGION_LABELS}), gamma0=gamma0)


def eval_coefficient(field, point, region_label):
    """Coefficient value at a point lying in a triangle with the given label."""
    return float(field.eval(np.asarray(point, dtype=float)[None, :], region_label)[0])


def bracket_coefficients(fld):
    """Lower and upper bracketing fields: the weighted regions become
    insulating (lower) or perfectly conducting (upper); everything else is
    unchanged.  With no weighted regions both outputs are the field itself.

    Raises CoefficientError when the merged insulating region disconnects
    the rest of the domain (checked on the mesh adjacency graph).
    """
    region = fld.mesh.triangle_region
    has_weights = np.any(np.isin(region, WEIGHT_LABELS))
    if not has_weights:
        return fld, fld

    low = fld.with_mesh_labels({"Ddeg": "D0", "Dsing": "D0"})
    up = fld.with_mesh_labels({"Ddeg": "Dinf", "Dsing": "Dinf"})

    # Merged-extreme geometry re-check: complement of the enlarged D0 must
    # stay connected, else the lower bracket loses solvability.
    mask = low.mesh.triangle_region != "D0"
    if not np.any(mask):
        raise CoefficientError("lower bracket insulates the whole domain")
    if not low.mesh.triangles_connected(mask):
        raise CoefficientError(
            "merged insulating region disconnects the domain complement")
    return low, up


# ---------------------------------------------------------------------------
# A2 constant estimation
# ---------------------------------------------------------------------------

@dataclass
class A2Estimate:
    constant_estimate: float
    centers: np.ndarray
    radii: np.ndarray
    products: np.ndarray


def _ball_average_pair(weight, center, radius, n_boundary=96, depth=10):
    """Averages of w and 1/w over a polygonal ball.

    Both integrands use the same grading geometry (apex at a singular point
    when one lies inside the ball), with series tails matched to their own
    local exponents.  The normalizing area uses the same dissection, keeping
    the averages mutually consistent.
    """
    from .polygons import regular_polygon

    center = np.asarray(center, dtype=float)
    ring = regular_polygon(center, radius, n_boundary)

    apex = center
    for p in weight.singular_points():
        if np.hypot(*(p - center)) < radius * (1 - 1e-9):
            apex = p
            break
    fan = quad.fan_triangles(apex, ring)

    def w_inv(pts):
        return 1.0 / weight.eval(pts)

    area = int_w = int_winv = 0.0
    for tri in fan:
        int_w += graded_triangle_integral(weight.eval, tri, weight,
                                          depth=depth, splits=1)
        int_winv += graded_triangle_integral(w_inv, tri, weight, depth=depth,
                                             splits=1, exponent_sign=-1.0)
        area += quad.triangle_area(tri)
    return int_w / area, int_winv / area


def estimate_a2_constant(weight, domain, n_balls=512, n_quad=96, seed=2468,
                         depth=10):
    """Sampled lower estimate of the A2 constant of a weight on the domain.

    The ball family combines a deterministic sweep of balls centered on the
    declared singular features with a seeded random family of balls fully
    inside the domain; the estimate is the max of the per-ball products and
    is monotone nondecreasing in ``n_balls``.
    """
    if n_balls < 1:
        raise CoefficientError("n_balls must be >= 1")
    rng = np.random.default_rng(seed)
    centers, radii = [], []

    anchors = list(weight.singular_points())
    for seg in weight.singular_segments():
        for t in np.linspace(0.15, 0.85, 3):
            for i in range(len(seg) - 1):
                anchors.append(seg[i] + t * (seg[i + 1] - seg[i]))
    for p in anchors:
        dmax = float(domain.signed_distance_to_boundary(p[None, :])[0])
        if dmax <= 0:
            continue
        for r in np.geomspace(1e-3, 0.9 * dmax, 6):
            centers.append(np.asarray(p, dtype=float))
            radii.append(float(r))

    bp = domain.boundary_polygon
    lo, hi = bp.min(axis=0), bp.max(axis=0)
    tries = 0
    while len(centers) < n_balls + len(anchors) * 6 and tries < 100 * n_balls:
        tries += 1
        c = lo + rng.random(2) * (hi - lo)
        d = float(domain.signed_distance_to_boundary(c[None, :])[0])
        if d <= 1e-3:
            continue
        r = float(rng.uniform(1e-3, 0.95 * d))
        centers.append(c)
        radii.append(r)
        if len(radii) - len(anchors) * 6 >= n_balls:
            break

    products = []
    for c, r in zip(centers, radii):
        try:
            avg_w, avg_winv = _ball_average_pair(weight, c, r,
                                                 n_boundary=n_quad, depth=depth)
        except SingularNodeError:
            continue
        products.append(avg_w * avg_winv)

    products = np.array(products)
    return A2Estimate(constant_estimate=float(products.max()),
                      centers=np.array(centers), radii=np.array(radii),
                      products=products)
