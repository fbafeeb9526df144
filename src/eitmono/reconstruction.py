"""Outer-shape recovery from the measured ND matrix.

The driver realizes the inclusion-detection scan in three exact-monotone
stages, each built from operator-inequality tests the solver evaluates to
solver precision on a shared mesh:

1. Sign-localized bounding boxes.  Painting a candidate cell set E
   insulating gives a coefficient below the measured one exactly when E
   covers every below-background part of the perturbation, regardless of
   any above-background parts (and symmetrically with conducting paint).
   Shrinking a box while that cover test passes is monotone in the Loewner
   order, so the minimal passing boxes localize each sign of the
   perturbation without interference from the other.

2. Neutralized pixel tests inside each box.  A cell B is probed with the
   field that paints B insulating and the opposite box conducting; the
   opposite-sign support is then dominated exactly and the comparison with
   the data isolates B's own contribution.

3. Visibility-normalized verdicts.  A cell's score is compared against the
   score a fully-foreign cell would produce at the same location (its
   visibility, measured against the background map), so one relative
   threshold approximates the same covered-area rule at every depth.

Cells outside every admissible scan position stay inside (indeterminate,
reported); enclosed pockets of outside cells are filled afterwards so the
result keeps outer-shape semantics.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import polygons as pg
from .coefficient import homogeneous_field
from .fem import ConfigurationError
from .geometry import connected_labels
from .monotonicity import MonotonicityVerdict, psd_test
from .ndmap import CutOffError, NDError, PaintTemplate

DEFAULT_TAU_ABS = 1e-5
DEFAULT_TAU_REL = 0.5
VISIBILITY_FLOOR = 1e-9


@dataclass
class ReconstructionResult:
    grid_n: int
    inside: np.ndarray            # (grid_n, grid_n) bool, indexed [ix, iy]
    indeterminate: list
    verdicts: list
    box_lower: tuple = None
    box_upper: tuple = None
    jaccard: float = None
    filled_cells: int = 0
    cell_errors: list = field(default_factory=list)   # (cell, sign, message)
    n_factor: int = 0             # ND maps the scan factored
    n_update: int = 0             # ND maps updated on a retained base factorization
    lu_nnz: int = 0               # L+U nonzeros summed over the factorizations
    nd_background: object = None  # the background map the scan solved

    def inside_count(self):
        return int(np.sum(self.inside))

    def csv_text(self):
        lines = []
        for iy in range(self.grid_n):
            lines.append(",".join(str(int(self.inside[ix, iy]))
                                  for ix in range(self.grid_n)))
        return "\n".join(lines) + "\n"

    def verdict_log(self):
        return "\n".join(v.log_line() for v in self.verdicts) + "\n"


def fill_enclosed(outside):
    """Outside cells not 4-connected through outside cells to the window
    border are enclosed pockets and flip to inside.  Returns
    (inside_after_fill, n_filled)."""
    n = outside.shape[0]
    ids = np.arange(n * n).reshape(n, n)
    pairs = np.concatenate([np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
                            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)])
    labels = connected_labels(n * n, pairs[outside.ravel()[pairs].all(axis=1)])
    labels = labels.reshape(n, n)
    border = np.zeros_like(outside)
    border[[0, -1], :] = border[:, [0, -1]] = True
    reach = outside & np.isin(labels, labels[border & outside])
    pockets = outside & ~reach
    return ~(outside & reach), int(np.sum(pockets))


def rasterize_truth(regions, fam):
    """Outer-shape raster of the true regions: cell centers inside any
    labeled polygon, holes filled."""
    n = fam.grid_n
    cx, cy = fam.cell_centers()
    centers = np.array([[cx[i], cy[j]] for i in range(n) for j in range(n)])
    inside = np.zeros(len(centers), dtype=bool)
    for _, poly in regions.all_polys():
        inside |= pg.points_in_polygon(centers, poly, boundary=True)
    grid = inside.reshape(n, n)
    filled, _ = fill_enclosed(~grid)
    return filled


def jaccard_index(a, b):
    inter = np.sum(a & b)
    union = np.sum(a | b)
    return float(inter) / float(union) if union else 1.0


def grid_cells(mesh, fam):
    """Cell of the pixel family's grid (`PixelFamily.cell_of`) holding each
    triangle's centroid.  A vertex off the grid lines must lie in the cell
    of each of its triangles, so no union of cells is straddled; NDError
    otherwise."""
    cell = fam.cell_of(mesh.centroids())
    seg_a, seg_b = (np.array(s) for s in zip(*fam.grid_segments()))
    off_grid = pg.points_segments_distance(mesh.vertices, seg_a, seg_b,
                                           cutoff=1e-8) > 1e-9
    tris = mesh.triangles
    if np.any(off_grid[tris] & (fam.cell_of(mesh.vertices)[tris] != cell[:, None])):
        raise NDError("mesh does not conform to the scan grid")
    return cell


def grid_template(mesh, fam, gamma0, basis):
    """`PaintTemplate` whose parts are the grid cells of `grid_cells`, on
    the constant background ``gamma0``: its paintings are the scan maps."""
    return PaintTemplate(mesh, grid_cells(mesh, fam), fam.grid_n ** 2 + 1,
                         homogeneous_field(mesh, gamma0).element_integrals(), basis)


def _box_cells(box):
    if box is None:
        return set()
    x0, x1, y0, y1 = box
    return {(i, j) for i in range(x0, x1 + 1) for j in range(y0, y1 + 1)}


class _Scanner:
    """Shared state for one reconstruction run.

    ``bases`` holds the factored maps that pixel-phase maps update by one
    cell: the background map and each sign's final cover box.  A base
    keeps its system and potentials but not its factorization, which its
    first update rebuilds.  A SuperLU factor keeps its whole work memory
    (about 8.9 MB for a 1.7k-DOF scan system), so one held through
    `min_box` or beside another base would raise the peak memory of a
    scan.  ``last`` is the map the latest request factored, without its
    factorization, and None when that map was cached or updated."""

    def __init__(self, nd_gamma, mesh, fam, gamma0, basis, rtol):
        self.nd = nd_gamma
        self.fam = fam
        self.rtol = rtol
        self.scale = nd_gamma.gnorm()
        self.template = grid_template(mesh, fam, gamma0, basis)
        self._nd_cache = {}
        self.bases = {}
        self.last = None
        self.n_update = 0

    def nd_painted(self, zero_cells, inf_cells):
        """ND map with the cells painted insulating, then conducting
        (conducting wins where the sets overlap)."""
        key = (frozenset(zero_cells), frozenset(inf_cells))
        self.last = None
        if key not in self._nd_cache:
            painted = self.template.solve(self.fam.flat(zero_cells),
                                          self.fam.flat(inf_cells), self.rtol,
                                          list(self.bases.values()))
            self._nd_cache[key] = painted.nd
            if painted.system is None:
                self.n_update += 1
            else:
                self.last = replace(painted, system=painted.system.unfactored())
        return self._nd_cache[key]

    def retain(self, role):
        """Keep the map just factored as the base of ``role``, releasing the
        role's previous base (a role stays empty when that map was not
        factored)."""
        self.bases.pop(role, None)
        if self.last is not None:
            self.bases[role] = self.last
        self.last = None

    def paint(self, sign, own, other):
        """ND map with ``own`` painted with the sign's extreme label
        (insulating for lower, conducting for upper) and ``other`` with the
        opposite one."""
        if sign == "lower":
            return self.nd_painted(own, other)
        return self.nd_painted(other, own)

    def below(self, sign, a, b):
        """lambda_min of a - b for the lower sign and of b - a for the upper
        one, normalized by the data map's Gram norm."""
        if sign != "lower":
            a, b = b, a
        lam, _ = psd_test(a, b, tau=None)
        return lam / self.scale

    def cover_margin(self, cells, sign):
        """Normalized lambda_min of the sign-targeted cover test."""
        return self.below(sign, self.paint(sign, cells, set()), self.nd)

    def min_box(self, sign, tau_abs):
        """Minimal passing bounding box for one sign (None when the empty
        cover already passes, meaning no visible support of that sign).

        The box shrinks greedily by one cell off one side at a time, sides
        in the order x0, x1, y0, y1, pass after pass.  A side whose trial
        fails is dropped: the box only shrinks, so the side's next trial
        would paint a subset of the failed one, whose margin Loewner
        monotonicity bounds from above.  Dropping it hides no error either:
        a one-label sub-rectangle of a painting that solved touches the
        domain boundary only where that painting does, and leaves a larger
        complement to reach gamma.
        """
        if self.cover_margin(set(), sign) >= -tau_abs:
            return None
        n = self.fam.grid_n
        box = [0, n - 1, 0, n - 1]
        covered = self.cover_margin(_box_cells(tuple(box)), sign) >= -tau_abs
        self.retain(sign)
        if not covered:
            # Perturbation not coverable inside the window: keep the full
            # window; the pixel phase will still grade the cells.
            return tuple(box)
        sides = [0, 1, 2, 3]
        while sides:
            for side in list(sides):
                trial = box.copy()
                trial[side] += 1 if side in (0, 2) else -1
                if trial[0] > trial[1] or trial[2] > trial[3] or \
                        self.cover_margin(_box_cells(tuple(trial)), sign) < -tau_abs:
                    sides.remove(side)
                    self.last = None
                else:
                    box = trial
                    self.retain(sign)
        return tuple(box)

    def pixel_score(self, cell, sign, neutralizer):
        """Exact-order pixel score with the opposite-sign support dominated
        by the neutralizer cells.  A probe cell that the neutralizer's
        insulating paint cuts off from gamma raises `enclosed_by_neutralizer`."""
        try:
            probe = self.paint(sign, {cell}, neutralizer - {cell})
        except CutOffError as exc:
            if self.fam.flat([cell])[0] not in exc.cells:
                raise
            raise ConfigurationError(
                f"enclosed_by_neutralizer: cell {cell} is cut off from the "
                f"measurement arc by the insulating neutralizer") from exc
        return self.below(sign, self.nd, probe)

    def visibility(self, cell, sign, nd_bg):
        """Magnitude of a full foreign cell's effect at this location,
        measured against the background map."""
        return abs(self.below(sign, nd_bg, self.paint(sign, {cell}, set())))


def reconstruct(nd_gamma, mesh, family, gamma0, basis,
                tau=DEFAULT_TAU_ABS, side="both", truth_regions=None,
                rtol=1e-10, tau_rel=DEFAULT_TAU_REL):
    """Mark each cell of the pixel family's grid inside or outside the
    recovered outer shape.

    ``tau`` gates the absolute cover tests (relative to the data map's Gram
    norm); ``tau_rel`` is the per-cell fraction of that cell's own
    visibility below which its score still counts as inside.  ``side``
    restricts the scan to one sign of perturbation.
    """
    if side not in ("both", "lower_only", "upper_only"):
        raise ValueError(f"unknown side {side!r}")
    grid_n = family.grid_n
    scanner = _Scanner(nd_gamma, mesh, family, gamma0, basis, rtol)
    nd_bg = scanner.nd_painted(set(), set())
    scanner.retain("background")

    # Indeterminate cells: no admissible pixel position (e.g. the cell is
    # not compactly inside the domain).  Conservatively inside.
    indeterminate = list(family.cell_faults)

    box_lower = box_upper = None
    if side in ("both", "lower_only"):
        box_lower = scanner.min_box("lower", tau)
    if side in ("both", "upper_only"):
        box_upper = scanner.min_box("upper", tau)
    lower_cells = _box_cells(box_lower) - set(indeterminate)
    upper_cells = _box_cells(box_upper) - set(indeterminate)

    verdicts = []
    inside = np.zeros((grid_n, grid_n), dtype=bool)
    for (i, j) in indeterminate:
        inside[i, j] = True

    def attempt(measure, cell, sign, *args):
        try:
            return measure(cell, sign, *args), None
        except ConfigurationError as exc:
            # Unsolvable probe: conservatively inside, but recorded.
            return np.nan, str(exc)

    # The scores sign by sign, each on the other sign's box, then the
    # visibilities on the background map: the maps that update one base
    # follow each other, and the base is released after them.
    scored = []
    for sign, own, other, neutralizer in (("lower", lower_cells, "upper", upper_cells),
                                          ("upper", upper_cells, "lower", lower_cells)):
        scored += [(cell, sign, *attempt(scanner.pixel_score, cell, sign, neutralizer))
                   for cell in sorted(own)]
        scanner.bases.pop(other, None)
    outcomes = []
    for cell, sign, score, error in scored:
        if error is None:
            vis, error = attempt(scanner.visibility, cell, sign, nd_bg)
        if error is not None:
            outcomes.append((cell, sign, np.nan, np.nan, True, error))
        elif vis < VISIBILITY_FLOOR:
            # unresolvable depth: keep inside
            outcomes.append((cell, sign, score, vis, True, None))
        else:
            outcomes.append((cell, sign, score, vis, score >= -tau_rel * vis, None))

    per_cell = {}
    cell_errors = []
    for (i, j), sign, score, vis, verdict, error in outcomes:
        if error is not None:
            cell_errors.append(((i, j), sign, error))
        rec = per_cell.setdefault((i, j), {})
        rec[sign] = (score, vis, verdict)
        if verdict:
            inside[i, j] = True

    for (i, j), rec in sorted(per_cell.items()):
        lo = rec.get("lower", (np.nan, np.nan, False))
        hi = rec.get("upper", (np.nan, np.nan, False))
        verdicts.append(MonotonicityVerdict(
            test_id=f"cell{i}_{j}",
            lambda_min_insulating=float(lo[0]),
            lambda_min_conducting=float(hi[0]),
            pass_insulating=bool(lo[2]),
            pass_conducting=bool(hi[2])))

    inside, n_filled = fill_enclosed(~inside)

    jac = None
    if truth_regions is not None:
        truth = rasterize_truth(truth_regions, family)
        jac = jaccard_index(inside, truth)

    return ReconstructionResult(
        grid_n=grid_n, inside=inside,
        indeterminate=indeterminate, verdicts=verdicts,
        box_lower=box_lower, box_upper=box_upper, jaccard=jac,
        filled_cells=n_filled, cell_errors=cell_errors,
        n_factor=len(scanner._nd_cache) - scanner.n_update,
        n_update=scanner.n_update, lu_nnz=scanner.template.lu_nnz,
        nd_background=nd_bg)


def rasterize(result, out_prefix):
    """Write the cell grid as CSV (1 = inside) and as a binary graymap.

    Returns the two paths; the raster is grid_n x grid_n with inside cells
    white, row iy = 0 first.
    """
    csv_path = f"{out_prefix}.csv"
    pgm_path = f"{out_prefix}.pgm"
    with open(csv_path, "w") as fh:
        fh.write(result.csv_text())
    n = result.grid_n
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode())
        img = np.where(result.inside.T, 255, 0).astype(np.uint8)
        fh.write(img.tobytes())
    return csv_path, pgm_path
