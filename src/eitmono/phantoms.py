"""Named benchmark phantoms used by the CLI and the regression suite.

Each builder returns ``(RegionSet, coefficient_spec)`` where the coefficient
spec holds the background value, per-label finite values, and weight specs.
All geometry lives well inside the default scan window of the unit disk.
"""

import numpy as np

from . import polygons as pg
from .coefficient import WeightSpec
from .geometry import RegionSet


def _ring(r_outer, r_inner, n=48):
    """Annulus as an oriented polygon pair (outer CCW, inner CW)."""
    outer = pg.regular_polygon((0.0, 0.0), r_outer, n)
    inner = pg.regular_polygon((0.0, 0.0), r_inner, n)[::-1].copy()
    return [outer, inner]


def homogeneous():
    return RegionSet(), {"background": 1.0}


def insulating_disk():
    return RegionSet(polys={"D0": [pg.regular_polygon((0.0, 0.0), 0.3, 48)]}), \
        {"background": 1.0}


def conducting_disk():
    return RegionSet(polys={"Dinf": [pg.regular_polygon((0.0, 0.0), 0.3, 48)]}), \
        {"background": 1.0}


def concentric_disk(rho=0.5, kind="D0", segments=128):
    """Centered extreme disk of the given radius (matches the separation of
    variables reference)."""
    return RegionSet(polys={kind: [pg.regular_polygon((0.0, 0.0), rho, segments)]}), \
        {"background": 1.0}


def two_blob_mixed():
    """One insulating and one conducting blob in opposite quadrants (the
    indefinite benchmark); sized to sit inside 2x2 blocks of the default
    8x8 scan grid."""
    d0 = pg.regular_polygon((-0.325, -0.325), 0.16, 32)
    dinf = pg.regular_polygon((0.325, 0.325), 0.16, 32)
    return RegionSet(polys={"D0": [d0], "Dinf": [dinf]}), {"background": 1.0}


def weighted_annulus():
    """Insulating core, degenerate ring with a radial power deficit, finite
    negative outer ring; the lower/upper brackets of this phantom exercise
    the full four-link chain."""
    core = pg.regular_polygon((0.0, 0.0), 0.15, 48)
    wspec = WeightSpec.radial_power((0.0, 0.0), 0.5, amplitude=1.0 / 0.28 ** 0.5)
    regions = RegionSet(
        polys={"D0": [core],
               "Ddeg": _ring(0.28, 0.15, 48),
               "DFminus": _ring(0.40, 0.28, 48)},
        singular_points=[(0.0, 0.0)])
    spec = {"background": 1.0, "DFminus": 0.5, "Ddeg": wspec}
    return regions, spec


def plain_annulus():
    """Same layout as weighted_annulus but without weighted regions (the
    degenerate bracketing case where lower and upper coincide)."""
    core = pg.regular_polygon((0.0, 0.0), 0.15, 48)
    regions = RegionSet(polys={"D0": [core], "DFminus": _ring(0.40, 0.15, 48)})
    return regions, {"background": 1.0, "DFminus": 0.5}


def df_minus_square():
    """Purely negative finite perturbation (one-sided test phantom)."""
    sq = pg.rectangle(-0.25, -0.2, 0.22, 0.24)
    return RegionSet(polys={"DFminus": [sq]}), {"background": 1.0, "DFminus": 0.35}


def df_plus_disk():
    d = pg.regular_polygon((0.1, -0.1), 0.24, 40)
    return RegionSet(polys={"DFplus": [d]}), {"background": 1.0, "DFplus": 3.0}


def insulating_pair():
    a = pg.regular_polygon((-0.3, 0.2), 0.14, 32)
    b = pg.regular_polygon((0.28, -0.22), 0.15, 32)
    return RegionSet(polys={"D0": [a, b]}), {"background": 1.0}


def _annular_sector(r_outer, r_inner, k_lo, k_hi, n=48):
    """Partial ring between lattice angles 2*pi*k/n; sharing the angular
    lattice with the full rings keeps coincident arcs crossing-free."""
    th = 2.0 * np.pi * np.arange(k_lo, k_hi + 1) / n
    outer = np.column_stack([r_outer * np.cos(th), r_outer * np.sin(th)])
    inner = np.column_stack([r_inner * np.cos(th[::-1]),
                             r_inner * np.sin(th[::-1])])
    return np.vstack([outer, inner])


def singular_core():
    """Conducting core hugged by a singular half-ring that blows up toward
    the center, inside a finite positive ring."""
    core = pg.regular_polygon((0.0, 0.0), 0.12, 48)
    wspec = WeightSpec.radial_power((0.0, 0.0), -0.5, amplitude=0.22 ** 0.5)
    # The complementary sector is finite-positive so the singular piece stays
    # compactly inside the union (its caps must not touch the background).
    sector = _annular_sector(0.22, 0.12, -10, 10)
    rest = _annular_sector(0.22, 0.12, 10, 38)
    regions = RegionSet(
        polys={"Dinf": [core],
               "Dsing": [sector],
               "DFplus": _ring(0.32, 0.22, 48) + [rest]},
        singular_points=[(0.0, 0.0)])
    spec = {"background": 1.0, "DFplus": 2.5, "Dsing": wspec}
    return regions, spec


def off_center_mixed():
    d0 = pg.regular_polygon((-0.33, 0.1), 0.17, 32)
    dfp = pg.rectangle(0.18, -0.34, 0.45, -0.08)
    return RegionSet(polys={"D0": [d0], "DFplus": [dfp]}), \
        {"background": 1.0, "DFplus": 2.5}


def quarter_blobs():
    dfm = pg.regular_polygon((0.26, 0.3), 0.15, 32)
    dinf = pg.regular_polygon((-0.26, -0.3), 0.12, 32)
    return RegionSet(polys={"DFminus": [dfm], "Dinf": [dinf]}), \
        {"background": 1.0, "DFminus": 0.4}


def surface_weighted_blob():
    """Degenerate strip along a declared interior segment inside a finite
    negative blob (exercises surface-power grading end to end)."""
    blob = pg.regular_polygon((0.05, 0.0), 0.34, 48)
    seg = [(-0.1, -0.05), (0.2, 0.05)]
    strip = pg.rectangle(-0.14, -0.12, 0.24, 0.12)
    wspec = WeightSpec.surface_power(seg, 0.5, amplitude=1.0 / 0.3 ** 0.5)
    regions = RegionSet(polys={"Ddeg": [strip], "DFminus": [blob, strip[::-1].copy()]},
                        singular_segments=[seg])
    return regions, {"background": 1.0, "DFminus": 0.6, "Ddeg": wspec}


CATALOG = {
    "homogeneous": homogeneous,
    "insulating_disk": insulating_disk,
    "conducting_disk": conducting_disk,
    "two_blob_mixed": two_blob_mixed,
    "weighted_annulus": weighted_annulus,
    "plain_annulus": plain_annulus,
    "df_minus_square": df_minus_square,
    "df_plus_disk": df_plus_disk,
    "insulating_pair": insulating_pair,
    "singular_core": singular_core,
    "off_center_mixed": off_center_mixed,
    "quarter_blobs": quarter_blobs,
    "surface_weighted_blob": surface_weighted_blob,
}

# The standing regression set for the containment direction of the test.
REGRESSION_PHANTOMS = (
    "insulating_disk", "conducting_disk", "two_blob_mixed",
    "weighted_annulus", "plain_annulus", "df_minus_square", "df_plus_disk",
    "insulating_pair", "singular_core", "off_center_mixed", "quarter_blobs",
)


def build_phantom(name):
    if name not in CATALOG:
        raise KeyError(f"unknown phantom {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name]()

