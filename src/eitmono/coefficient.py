"""Piecewise conductivity fields over labeled mesh regions.

A field assigns: the positive background on unlabeled triangles, symbolic 0
on D0, symbolic infinity on Dinf, a bounded constant on each of DFminus and
DFplus, and power-law weight formulas on Ddeg and Dsing.  The extreme labels
never become floating-point values; they change the discrete function space
in the solver instead.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad

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
    """Product of power-law factors.

    Each factor's exponent lies in its planar A2 range: radial in (-2, 2),
    surface in (-1, 1).  That does not make a product A2: where singular
    sets meet, the exponents add, and `graded_triangle_integrals` rejects a
    mesh corner whose total leaves (-2, 2) or a mesh edge on a singular
    surface whose total leaves (-1, 1); inside those ranges it grades every
    corner and edge where they meet.
    """

    factors: tuple

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
    def constant(value):
        return WeightSpec(factors=(WeightFactor(kind="constant", value=float(value)),))

    @staticmethod
    def radial_power(center, exponent, amplitude=1.0):
        return WeightSpec(factors=(WeightFactor(
            kind="radial_power", value=float(amplitude),
            center=(float(center[0]), float(center[1])),
            exponent=float(exponent)),))

    @staticmethod
    def surface_power(segment, exponent, amplitude=1.0):
        pl = tuple((float(x), float(y)) for x, y in segment)
        if len(pl) < 2:
            raise CoefficientError("surface_power needs a polyline of >= 2 points")
        return WeightSpec(factors=(WeightFactor(
            kind="surface_power", value=float(amplitude),
            exponent=float(exponent), polyline=pl),))

    @staticmethod
    def product(*specs):
        return WeightSpec(factors=tuple(f for s in specs for f in s.factors))

    # -- evaluation --------------------------------------------------------

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

    def vertex_exponents(self, points):
        """Total homogeneity degree of the weight around each of an (n, 2)
        array of points (sum over factors whose singular set passes within
        `_FEATURE_TOL` of it)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        total = np.zeros(len(pts))
        for f in self.factors:
            if f.kind != "constant":
                total += np.where(self._feature_distance(f, pts) <= _FEATURE_TOL,
                                  f.exponent, 0.0)
        return total

    def edge_exponents(self, a, b):
        """Summed exponent of the factors whose polyline carries each segment
        ab (both ends and the midpoint within `_FEATURE_TOL`), nan where the
        segment is not on a singular surface."""
        a, b = np.atleast_2d(np.asarray(a, float)), np.atleast_2d(np.asarray(b, float))
        total, hit = np.zeros(len(a)), np.zeros(len(a), dtype=bool)
        for f in self.factors:
            if f.kind == "surface_power" and f.exponent != 0.0:
                d = self._feature_distance(f, np.concatenate([a, b, (a + b) / 2.0]))
                on = np.all(d.reshape(3, -1) <= _FEATURE_TOL, axis=0)
                total += np.where(on, f.exponent, 0.0)
                hit |= on
        return np.where(hit, total, np.nan)

    def describe(self):
        parts = []
        for f in self.factors:
            if f.kind == "constant":
                parts.append(f"const({f.value:g})")
            elif f.kind == "radial_power":
                parts.append(f"radial({f.center},{f.exponent:g},{f.value:g})")
            else:
                parts.append(f"surface({f.polyline},{f.exponent:g},{f.value:g})")
        return "*".join(parts)


def graded_triangle_integrals(tris, weight, depth=12):
    """Integrals of ``weight`` over each of an (n, 3, 2) array of triangles:
    the weight evaluated once on the nodes of `quadrature.element_rule`,
    of order ``depth``, graded toward every singular corner and edge of each
    triangle, and summed per triangle; no value depends on the other
    triangles.

    Raises CoefficientError unless ``depth`` is an integer in [1, 64], and
    where w or 1/w is not locally integrable: at a corner whose total
    exponent leaves (-2, 2), or on an edge whose total surface exponent
    leaves (-1, 1).  Inside these ranges the Gauss–Jacobi weights of the
    rule exist.
    """
    if not (isinstance(depth, (int, np.integer)) and 1 <= depth <= 64):
        raise CoefficientError(
            f"quadrature depth must be an integer in [1, 64], got {depth!r}")
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    ends = np.stack([tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]], axis=2)
    vertex = weight.vertex_exponents(tris.reshape(-1, 2)).reshape(-1, 3)
    edge = weight.edge_exponents(ends[:, :, 0].reshape(-1, 2),
                                 ends[:, :, 1].reshape(-1, 2)).reshape(-1, 3)
    for totals, at, bound, what in ((vertex, tris, 2, "corner"), (edge, ends, 1, "edge")):
        bad = np.argwhere(np.abs(totals) >= bound)
        if len(bad):
            t, k = bad[0]
            raise CoefficientError(
                f"weight exponents sum to {totals[t, k]:g} at {what} "
                f"{np.round(at[t, k], 6).tolist()}, outside (-{bound}, {bound}): "
                "w or 1/w is not locally integrable")
    pts, w, owner = quad.element_rule(tris, vertex, edge, depth)
    return np.bincount(owner, weight.eval(pts) * w, minlength=len(tris))


# ---------------------------------------------------------------------------
# Coefficient field on a mesh
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """Conductivity assignment over the labeled triangles of a mesh."""

    mesh: object
    gamma0: float = 1.0
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

    # -- basic queries ------------------------------------------------------

    def weight_for(self, label):
        if label not in self.weights:
            raise CoefficientError(f"no weight assigned to {label}")
        return self.weights[label]

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Enforce the sign conventions and boundedness clauses at quadrature
        nodes; raises CoefficientError naming the violated clause."""
        problems = []
        g0 = float(self.gamma0)
        if not (g0 > 0 and math.isfinite(g0)):
            problems.append("background gamma0 must be finite positive")

        for label in FINITE_LABELS:
            if not np.any(self.mesh.triangle_region == label):
                continue
            if label not in self.finite_values:
                problems.append(f"{label} triangles present but no values assigned")
                continue
            v = float(self.finite_values[label])
            if not (v > 0 and math.isfinite(v)):
                problems.append(f"{label} values must be bounded away from 0 and inf")
            if label == "DFminus" and v > g0 + 1e-12:
                problems.append("DFminus values exceed the background")
            if label == "DFplus" and v < g0 - 1e-12:
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
            pts, _ = quad.quad_nodes(tris)
            vals = w.eval(pts)
            if np.any(vals <= 0):
                problems.append(f"{label} weight not strictly positive at quadrature nodes")
            if label == "Ddeg" and np.any(vals > g0 + 1e-12):
                problems.append("Ddeg weight exceeds the background at quadrature nodes")
            if label == "Dsing" and np.any(vals < g0 - 1e-12):
                problems.append("Dsing weight falls below the background at quadrature nodes")

        if problems:
            raise CoefficientError("; ".join(problems))
        return self

    # -- assembly support ------------------------------------------------------

    def element_integrals(self):
        """Per-triangle integral of the coefficient over non-extreme
        triangles (nan on D0/Dinf, which never enter the stiffness form)."""
        mesh = self.mesh
        areas = mesh.triangle_areas()
        out = float(self.gamma0) * areas  # background default
        region = mesh.triangle_region

        for label in EXTREME_LABELS:
            out[region == label] = np.nan
        for label in FINITE_LABELS:
            mask = region == label
            if label in self.finite_values and np.any(mask):
                out[mask] = float(self.finite_values[label]) * areas[mask]
        for label in WEIGHT_LABELS:
            mask = region == label
            if not np.any(mask):
                continue
            w = self.weight_for(label)
            tris = np.flatnonzero(mask)
            out[tris] = graded_triangle_integrals(mesh.triangle_coords(tris), w,
                                                  depth=self.quad_depth)
            bad = tris[~np.isfinite(out[tris])]
            if len(bad):
                raise CoefficientError(
                    f"nonfinite element integral on triangle {bad[0]} ({label}); "
                    "undeclared singularity?")
        return out

    def provenance(self):
        """Hash of the field, computed once: the mesh's labels are made
        read-only with its hashed arrays, so it cannot go stale."""
        if "_provenance" not in vars(self):
            self.mesh.triangle_region.setflags(write=False)
            self._provenance = self._hash()
        return self._provenance

    def _hash(self):
        hasher = hashlib.sha256()
        hasher.update(self.mesh.provenance().encode())
        hasher.update("".join(self.mesh.triangle_region.tolist()).encode())
        g = np.full(self.mesh.num_triangles, float(self.gamma0))
        hasher.update(_rounded(g).tobytes())
        for label in sorted(self.finite_values):
            hasher.update(label.encode())
            hasher.update(_rounded([float(self.finite_values[label])]).tobytes())
        for label in sorted(self.weights):
            hasher.update(label.encode())
            hasher.update(self.weights[label].describe().encode())
        return hasher.hexdigest()[:16]


def _rounded(values):
    """The values rounded to 12 decimals where that is finite, raw
    elsewhere: `np.round` scales by 1e12, which overflows above about
    1.8e296."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        rounded = np.round(values, 12)
    return np.where(np.isfinite(rounded), rounded, values)
