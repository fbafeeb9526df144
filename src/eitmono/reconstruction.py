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

Cells outside every admissible scan position stay inside; enclosed
pockets of outside cells are filled afterwards so the result keeps
outer-shape semantics.  `ReconstructionResult.cells` gives the reason of
every such cell.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import polygons as pg
from .fem import ConfigurationError
from .monotonicity import psd_test
from .ndmap import CutOffError, NDError, PaintTemplate

DEFAULT_TAU_ABS = 1e-5
DEFAULT_TAU_REL = 0.5
VISIBILITY_FLOOR = 1e-9


class CellRow(NamedTuple):
    """A row of `ReconstructionResult.cells`: a judged (cell, sign), or a
    cell with no sign that the scan marks inside unjudged.  ``margin`` is
    ``score + tau_rel * vis``; ``verdict`` True is inside.  ``reason`` is
    empty, ``below_floor``, ``error: <message>`` (score nan),
    ``family_fault`` or ``filled``."""

    cell: tuple
    sign: str = None
    score: float = np.nan
    vis: float = np.nan
    margin: float = np.nan
    verdict: bool = True
    reason: str = ""


_UNJUDGED = CellRow(None, verdict=False)


@dataclass
class ReconstructionResult:
    grid_n: int
    inside: np.ndarray            # (grid_n, grid_n) bool, indexed [ix, iy]
    cells: list                   # `CellRow`s: family faults, judged in scan order, filled
    box_lower: tuple = None
    box_upper: tuple = None
    jaccard: float = None
    n_factor: int = 0             # ND maps the scan factored
    n_update: int = 0             # ND maps updated on a retained base factorization
    n_implied: int = 0            # cover trials decided from a solved box, unsolved
    lu_nnz: int = 0               # L+U nonzeros summed over the factorizations
    nd_background: object = None  # the background map the scan solved

    @property
    def verdicts(self):
        """The judged cells, in cell order (`perfbench/spans.py` counts them)."""
        return sorted({row.cell for row in self.cells if row.sign})

    def count(self, reason):
        """Rows of `cells` whose reason is ``reason`` or ``reason: ...``."""
        return sum(row.reason.split(":")[0] == reason for row in self.cells)

    def inside_count(self):
        return int(np.sum(self.inside))

    def csv_text(self):
        return "".join(",".join(map(str, row)) + "\n" for row in self.inside.T.astype(int))

    def verdict_log(self):
        """One ``cell<i>_<j> score_lower score_upper verdict_lower
        verdict_upper`` line per judged cell; a sign not judged reads nan, 0."""
        rows = {(row.cell, row.sign): row for row in self.cells}
        lines = []
        for i, j in self.verdicts:
            lo, hi = (rows.get(((i, j), sign), _UNJUDGED) for sign in ("lower", "upper"))
            lines.append(f"cell{i}_{j} {lo.score:.6e} {hi.score:.6e} "
                         f"{int(lo.verdict)} {int(hi.verdict)}")
        return "\n".join(lines) + "\n"


def fill_enclosed(outside):
    """Outside cells not 4-connected through outside cells to the window
    border are enclosed pockets and flip to inside.  Returns the inside
    raster after the fill."""
    # Imported on first use: importing scipy.ndimage takes about 26 ms.
    from scipy.ndimage import binary_fill_holes

    return binary_fill_holes(~outside)


def rasterize_truth(regions, fam):
    """Outer-shape raster of the true regions: cell centers inside any
    labeled polygon, holes filled."""
    n = fam.grid_n
    cx, cy = fam.cell_centers()
    centers = np.array([[cx[i], cy[j]] for i in range(n) for j in range(n)])
    inside = np.zeros(len(centers), dtype=bool)
    for _, poly in regions.all_polys():
        inside |= pg.points_in_polygon(centers, poly)
    return fill_enclosed(~inside.reshape(n, n))


def jaccard_index(a, b):
    inter = np.sum(a & b)
    union = np.sum(a | b)
    return float(inter) / float(union) if union else 1.0


def _grid_distance(points, fam):
    """Distance from each point to the nearest grid segment
    (`PixelFamily.grid_segments`).  The vertical segments share the window's
    y-extent and the horizontal ones its x-extent, so each family's distance
    is the hypot of the nearest line offset and the offset outside that
    extent."""
    lo, hi = np.array(fam.roi[:2]), np.array(fam.roi[2:])
    outside = np.maximum(np.maximum(lo - points, points - hi), 0.0)
    best = np.inf
    for axis, lines in enumerate(fam.grid_lines()):
        offset = np.abs(points[:, axis, None] - lines).min(axis=1)
        best = np.minimum(best, np.hypot(offset, outside[:, 1 - axis]))
    return best


def grid_cells(mesh, fam):
    """Cell of the pixel family's grid (`PixelFamily.cell_of`) holding each
    triangle's centroid.  A vertex off the grid lines must lie in the cell
    of each of its triangles, so no union of cells is straddled; NDError
    otherwise."""
    cell = fam.cell_of(mesh.centroids())
    off_grid = _grid_distance(mesh.vertices, fam) > 1e-9
    tris = mesh.triangles
    if np.any(off_grid[tris] & (fam.cell_of(mesh.vertices)[tris] != cell[:, None])):
        raise NDError("mesh does not conform to the scan grid")
    return cell


def grid_template(mesh, fam, gamma0, basis):
    """`PaintTemplate` whose parts are the grid cells of `grid_cells`, on
    the constant background ``gamma0``: its paintings are the scan maps."""
    return PaintTemplate(mesh, grid_cells(mesh, fam), fam.grid_n ** 2 + 1,
                         gamma0 * mesh.triangle_areas(), basis)


def _box_cells(box):
    if box is None:
        return set()
    x0, x1, y0, y1 = box
    return {(i, j) for i in range(x0, x1 + 1) for j in range(y0, y1 + 1)}


def _contains(outer, inner):
    """Whether the box ``outer`` (x0, x1, y0, y1) contains ``inner``."""
    return outer[0] <= inner[0] and inner[1] <= outer[1] and \
        outer[2] <= inner[2] and inner[3] <= outer[3]


class _CoverRecord:
    """Verdicts of the cover boxes solved in one `min_box` call, and the
    verdicts they imply.  For the lower sign, insulating paint on more
    cells gives a larger map (the discrete Dirichlet principle); for the
    upper sign, conducting paint on more cells gives a smaller one.  So a
    box containing a solved passing box passes, a box inside a solved
    failing box fails, and only a box with neither is solved, by
    ``solve(box)``; ``solved`` maps each solved box to its verdict."""

    def __init__(self, solve):
        self.solve = solve
        self.solved = {}

    def passes(self, box):
        for other, ok in self.solved.items():
            if _contains(box, other) if ok else _contains(other, box):
                return ok
        self.solved[box] = self.solve(box)
        return self.solved[box]

    def probe(self, box, sides):
        """Binary search for the largest k such that ``box`` with every
        side in ``sides`` moved in by k passes; it only adds solved boxes."""
        inward = [(1 if s in (0, 2) else -1) if s in sides else 0 for s in range(4)]
        # the least failing k lies in [lo, hi]; hi is the first empty box
        lo = 1
        hi = 1 + min(span // moving for span, moving in
                     ((box[1] - box[0], inward[0] - inward[1]),
                      (box[3] - box[2], inward[2] - inward[3])) if moving)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.passes(tuple(v + mid * d for v, d in zip(box, inward))):
                lo = mid + 1
            else:
                hi = mid


class _Scanner:
    """Shared state for one reconstruction run.

    ``bases`` holds the factored maps that pixel-phase maps update by one
    cell: the background map and each sign's final cover box.  A base
    keeps its system, measurement-arc DOFs and potentials but not its
    factorization, which its first update rebuilds; a map updated on it
    is checked as every painting is, but numbers no DOFs of its own.  A
    held SuperLU factor is resident at about 10 bytes per L+U nonzero:
    VmRSS rose by 0.53 MB per factor over 40 factors held of the 1.7k-DOF
    `scan_mixed` background system (55.6k nonzeros), as the work memory
    SuperLU reserves beyond them is never touched.  One held through `min_box` or beside another base would
    add that much to the peak memory of a scan.  ``last`` is the map the
    latest request factored, without its factorization, and None when
    that map was cached or updated."""

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
        self.n_implied = 0

    def nd_painted(self, zero_cells, inf_cells, update=True):
        """ND map with the cells painted insulating, then conducting
        (conducting wins where the sets overlap), updated on a base when
        ``update`` and `PaintTemplate.solve` allow it."""
        key = (frozenset(zero_cells), frozenset(inf_cells))
        self.last = None
        if key not in self._nd_cache:
            painted = self.template.solve(self.fam.flat(zero_cells),
                                          self.fam.flat(inf_cells), self.rtol,
                                          list(self.bases.values()) if update else ())
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

    def paint(self, sign, own, other, update=True):
        """ND map with ``own`` painted with the sign's extreme label
        (insulating for lower, conducting for upper) and ``other`` with the
        opposite one, updated on a base when ``update`` allows it."""
        if sign == "lower":
            return self.nd_painted(own, other, update)
        return self.nd_painted(other, own, update)

    def below(self, sign, a, b):
        """lambda_min of a - b for the lower sign and of b - a for the upper
        one, normalized by the data map's Gram norm."""
        if sign != "lower":
            a, b = b, a
        return psd_test(a, b) / self.scale

    def cover_margin(self, cells, sign):
        """Normalized lambda_min of the sign-targeted cover test.  A cover
        painting is factored, never updated on a base: the update would
        leave the base factored through `min_box`."""
        return self.below(sign, self.paint(sign, cells, set(), update=False),
                          self.nd)

    def min_box(self, sign, tau_abs):
        """Minimal passing bounding box for one sign (None when the empty
        cover already passes, meaning no visible support of that sign).

        The box shrinks greedily by one cell off one side at a time, sides
        in the order x0, x1, y0, y1, pass after pass.  A side whose trial
        fails is dropped: the box only shrinks, so the side's next trial
        would paint a subset of the failed one, whose margin Loewner
        monotonicity bounds from above.

        The same monotonicity decides most trials without a solve: a box
        containing a solved passing box passes, and a box inside a solved
        failing box fails (`_CoverRecord`).  At the start of each pass a
        binary search over k probes the box with every remaining side moved
        in by k, for the largest k that passes.  The probes only add solved
        boxes, so the boxes are the greedy ones.  The final box is the last
        solved passing box, kept as the sign's base: a trial that passes
        unsolved contains a solved passing box P, every later trial
        containing P passes too, so the box ends inside P, that is at P.
        Neither rule hides an error: every box asked about is a
        sub-rectangle of the full window, which is solved first, and a
        one-label sub-rectangle of a painting that solved touches the
        domain boundary only where that painting does, and leaves a larger
        complement to reach gamma.
        """
        if self.cover_margin(set(), sign) >= -tau_abs:
            return None

        def solve(box):
            ok = self.cover_margin(_box_cells(box), sign) >= -tau_abs
            if ok:
                self.retain(sign)
            return ok

        n = self.fam.grid_n
        box = [0, n - 1, 0, n - 1]
        record = _CoverRecord(solve)
        if record.passes(tuple(box)):
            sides = [0, 1, 2, 3]
        else:
            # Perturbation not coverable inside the window: keep the full
            # window; the pixel phase will still grade the cells.
            self.retain(sign)
            sides = []
        while sides:
            record.probe(box, sides)
            for side in list(sides):
                trial = box.copy()
                trial[side] += 1 if side in (0, 2) else -1
                if trial[0] > trial[1] or trial[2] > trial[3]:
                    sides.remove(side)
                    continue
                ok = record.passes(tuple(trial))
                self.n_implied += tuple(trial) not in record.solved
                if ok:
                    box = trial
                else:
                    sides.remove(side)
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
    scanner = _Scanner(nd_gamma, mesh, family, gamma0, basis, rtol)
    nd_bg = scanner.nd_painted(set(), set())
    scanner.retain("background")

    # Cells with no admissible pixel position (e.g. not compactly inside
    # the domain): the scan abstains, and they stay inside.
    cells = [CellRow(cell, reason="family_fault") for cell in family.cell_faults]

    box_lower = box_upper = None
    if side in ("both", "lower_only"):
        box_lower = scanner.min_box("lower", tau)
    if side in ("both", "upper_only"):
        box_upper = scanner.min_box("upper", tau)
    lower_cells = _box_cells(box_lower) - set(family.cell_faults)
    upper_cells = _box_cells(box_upper) - set(family.cell_faults)

    def attempt(measure, cell, sign, *args):
        try:
            return measure(cell, sign, *args), None
        except ConfigurationError as exc:
            # Unsolvable probe: conservatively inside, but recorded.
            return np.nan, f"error: {exc}"

    # The scores sign by sign, each on the other sign's box, then the
    # visibilities on the background map: the maps that update one base
    # follow each other, and the base is released after them.
    scored = []
    for sign, own, other, neutralizer in (("lower", lower_cells, "upper", upper_cells),
                                          ("upper", upper_cells, "lower", lower_cells)):
        scored += [(cell, sign, *attempt(scanner.pixel_score, cell, sign, neutralizer))
                   for cell in sorted(own)]
        scanner.bases.pop(other, None)
    for cell, sign, score, error in scored:
        if error is None:
            vis, error = attempt(scanner.visibility, cell, sign, nd_bg)
        if error is not None:
            cells.append(CellRow(cell, sign, reason=error))
            continue
        # below the visibility floor the depth is unresolvable: inside
        margin, floor = score + tau_rel * vis, vis < VISIBILITY_FLOOR
        cells.append(CellRow(cell, sign, score, vis, margin, bool(floor or margin >= 0),
                             "below_floor" if floor else ""))

    inside = np.zeros((family.grid_n,) * 2, dtype=bool)
    for row in cells:
        inside[row.cell] |= row.verdict
    filled = fill_enclosed(~inside)
    cells += [CellRow((int(i), int(j)), reason="filled")
              for i, j in np.argwhere(filled & ~inside)]
    inside = filled

    jac = None
    if truth_regions is not None:
        jac = jaccard_index(inside, rasterize_truth(truth_regions, family))

    return ReconstructionResult(
        grid_n=family.grid_n, inside=inside, cells=cells,
        box_lower=box_lower, box_upper=box_upper, jaccard=jac,
        n_factor=len(scanner._nd_cache) - scanner.n_update,
        n_update=scanner.n_update, n_implied=scanner.n_implied,
        lu_nnz=scanner.template.lu_nnz,
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
