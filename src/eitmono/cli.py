"""Configuration-driven entry point.

Commands: ``forward`` (write the measured ND matrix), ``reconstruct`` (scan
the pixel family and rasterize the recovered shape), ``chain`` (evaluate the
four-link bracketing report on a test window containing the phantom), and
``calibrate`` (sweep mesh size, basis size, and threshold, writing the table
used to pin defaults).

Configs are JSON with nested sections (domain / regions / coefficient /
mesh / solver / basis / scan); phantoms from the built-in catalog can be
named instead of spelling out regions.
"""

import argparse
import copy
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fem, phantoms
from .coefficient import CoefficientField, CoefficientError, WeightSpec
from .geometry import (GeometryError, MeshConformityError, RegionSet,
                       build_domain, mesh_region_faults, pixel_family,
                       triangulate, validate_regions)
from .monotonicity import ProvenanceError, bracketing_chain
from .ndmap import (NDError, NDMatrix, bracketed_maps, build_basis, nd_matrix,
                    perturb_symmetric)
from .oracle import disk_nd_eigenvalue
from .reconstruction import (grid_template, rasterize, rasterize_truth,
                             reconstruct)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def _get(cfg, path, default=None, required=False):
    """Config entry ``path`` (dotted keys), ``default`` when absent; a
    section on the path that is present but not an object raises."""
    node = cfg
    keys = path.split(".")
    for depth, key in enumerate(keys):
        if depth and not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(keys[:depth])}: expected an object")
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"missing config entry '{path}'")
            return default
        node = node[key]
    return node


def _value(cfg, path, convert, default=None):
    """Config entry ``path`` (``default`` when absent) through ``convert``;
    a malformed value raises ConfigError naming the entry."""
    value = _get(cfg, path, default)
    try:
        return convert(value)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _integer(value):
    """An integral config value as int; a fractional number raises instead
    of being truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _numbers(values):
    """A non-empty list of JSON numbers, as given."""
    if not (isinstance(values, list) and values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise TypeError(f"expected a non-empty list of numbers, got {values!r}")
    return values


def _weight_from_spec(spec):
    if isinstance(spec, dict) and spec.get("kind") == "product":
        parts = [_weight_from_spec(s) for s in spec["factors"]]
        return WeightSpec.product(*parts, clip=_clip_of(spec))
    kind = spec.get("kind")
    if kind == "constant":
        return WeightSpec.constant(spec["value"])
    if kind == "radial_power":
        return WeightSpec.radial_power(spec["center"], spec["exponent"],
                                       amplitude=spec.get("amplitude", 1.0),
                                       clip=_clip_of(spec))
    if kind == "surface_power":
        return WeightSpec.surface_power(spec["segment"], spec["exponent"],
                                        amplitude=spec.get("amplitude", 1.0),
                                        clip=_clip_of(spec))
    raise ConfigError(f"unknown weight kind {kind!r}")


def _clip_of(spec):
    clip = spec.get("clip")
    return tuple(clip) if clip is not None else None


class Problem:
    """Everything a command needs, built and validated from one config: the
    region clauses on polygons here, the others on the mesh `build_mesh` makes."""

    def __init__(self, cfg):
        self.cfg = cfg
        shape = _get(cfg, "domain.shape", required=True)
        arc = _value(cfg, "domain.gamma_arc", lambda a: (float(a[0]), float(a[1])),
                     default=[0.0, 1.0])
        segments = _value(cfg, "domain.disk_segments", _integer, default=256)
        try:
            self.domain = build_domain(shape, arc, disk_segments=segments)
        except GeometryError as exc:
            raise ConfigError(f"domain: {exc}") from exc

        phantom = _get(cfg, "phantom")
        if phantom is not None:
            try:
                self.regions, self.coeff_spec = phantoms.build_phantom(phantom)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            self.regions = self._regions_from_cfg(cfg)
            self.coeff_spec = self._coeff_from_cfg(cfg)

        violations = validate_regions(self.domain, self.regions)
        if violations:
            raise ConfigError("regions invalid: " + "; ".join(violations))

        self.target_h = _value(cfg, "mesh.target_h", float, default=0.06)
        self.min_angle = _value(cfg, "mesh.min_angle_deg", float, default=0.05)
        self.quad_depth = _value(cfg, "solver.quad_depth", _integer, default=12)
        self.rtol = _value(cfg, "solver.rtol", float, default=1e-10)
        self.m = _value(cfg, "basis.m", _integer, default=8)
        if self.m < 1:
            raise ConfigError("basis.m must be >= 1")
        self.grid_n = _value(cfg, "scan.grid_n", _integer, default=8)
        if self.grid_n < 2:
            raise ConfigError("scan.grid_n must be >= 2")
        self.family = _value(cfg, "scan.roi", lambda roi: pixel_family(
            self.domain, self.grid_n, roi=roi))
        self.tau = _value(cfg, "scan.tau", float, default=1e-5)
        self.tau_rel = _value(cfg, "scan.tau_rel", float, default=0.5)
        self.side = _get(cfg, "scan.side", default="both")
        if self.side not in ("both", "lower_only", "upper_only"):
            raise ConfigError("scan.side must be both|lower_only|upper_only")
        self.gamma0 = float(self.coeff_spec.get("background", 1.0))
        if self.gamma0 <= 0:
            raise ConfigError("coefficient.background must be positive")

    def _regions_from_cfg(self, cfg):
        polys = _value(cfg, "regions", lambda raw: {
            lab: [np.asarray(p, dtype=float) for p in plist]
            for lab, plist in raw.items()}, default={})
        spts = _value(cfg, "coefficient.singular_points",
                      lambda pts: [tuple(p) for p in pts], default=[])
        ssegs = _value(cfg, "coefficient.singular_segments",
                       lambda segs: [np.asarray(s, float) for s in segs], default=[])
        try:
            regions = RegionSet(polys=polys, singular_points=spts,
                                singular_segments=ssegs)
        except GeometryError as exc:
            raise ConfigError(f"regions: {exc}") from exc
        return regions

    def _coeff_from_cfg(self, cfg):
        spec = {"background": _value(cfg, "coefficient.background", float,
                                     default=1.0)}
        for lab, convert in (("DFminus", float), ("DFplus", float),
                             ("Ddeg", _weight_from_spec),
                             ("Dsing", _weight_from_spec)):
            if _get(cfg, f"coefficient.{lab}") is not None:
                spec[lab] = _value(cfg, f"coefficient.{lab}", convert)
        return spec

    def declare_weight_features(self):
        for lab in ("Ddeg", "Dsing"):
            w = self.coeff_spec.get(lab)
            if w is None:
                continue
            for p in w.singular_points():
                if not any(np.allclose(p, q) for q in self.regions.singular_points):
                    self.regions.singular_points.append(tuple(p))
            for s in w.singular_segments():
                self.regions.singular_segments.append(np.asarray(s))

    def build_mesh(self, with_grid=True):
        self.declare_weight_features()
        extra = self.family.grid_segments() if with_grid else []
        self.mesh = triangulate(self.domain, self.regions,
                                target_h=self.target_h,
                                extra_segments=extra,
                                min_angle_deg=self.min_angle)
        violations = mesh_region_faults(self.mesh, self.regions)
        if violations:
            raise ConfigError("regions invalid: " + "; ".join(violations))
        return self.mesh

    def build_field(self):
        finite = {k: v for k, v in self.coeff_spec.items()
                  if k in ("DFminus", "DFplus")}
        weights = {k: v for k, v in self.coeff_spec.items()
                   if k in ("Ddeg", "Dsing")}
        self.field = CoefficientField(mesh=self.mesh, gamma0=self.gamma0,
                                      finite_values=finite, weights=weights,
                                      quad_depth=self.quad_depth)
        self.field.validate()
        return self.field

    def build_basis(self):
        self.basis = build_basis(self.mesh, self.m)
        return self.basis


def _write_metrics(out_dir, metrics):
    with open(out_dir / "metrics.txt", "w") as fh:
        for key, val in metrics.items():
            fh.write(f"{key} {val}\n")


def _snapshot(cfg, out_dir):
    with open(out_dir / "config_snapshot.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _with_noise(nd, args):
    """``nd`` perturbed at the ``--noise-rel`` level (unchanged at 0)."""
    try:
        return perturb_symmetric(nd, args.noise_rel, args.seed)
    except ValueError as exc:
        raise ConfigError(f"--noise-rel: {exc}") from exc


def _measured_nd(problem, args):
    """L(gamma) on the problem mesh, optionally noise-perturbed."""
    return _with_noise(nd_matrix(problem.field, problem.basis, rtol=problem.rtol), args)


def _oracle_error(problem, eigs):
    """Largest relative error of the ND eigenvalue pairs ``eigs`` (sorted
    descending) of the background map against the homogeneous disk
    reference; nan off the full-arc disk and for m < 2 (no pair)."""
    dom = problem.domain
    if dom.shape != "disk" or dom.gamma_fraction != 1.0:
        return float("nan")
    errs = []
    for n in range(1, problem.m // 2 + 1):
        lam = disk_nd_eigenvalue(n, 0.0, problem.gamma0, problem.gamma0)
        pair = eigs[2 * n - 2:2 * n]
        errs.append(float(np.max(np.abs(pair - lam) / lam)))
    return max(errs, default=float("nan"))


def cmd_forward(problem, out_dir, args):
    t0 = time.perf_counter()
    # Mesh with the scan grid when one is configured, so measurement files
    # keep provenance compatible with a later reconstruction run.
    problem.build_mesh(with_grid=_get(problem.cfg, "scan") is not None)
    problem.build_field()
    problem.build_basis()
    nd = _measured_nd(problem, args)
    (out_dir / "nd_gamma.txt").write_text(nd.to_text())
    if _get(problem.cfg, "artifacts.mesh", default=False):
        (out_dir / "mesh.txt").write_text(problem.mesh.to_text())
    eigs = np.sort(nd.generalized_eigenvalues())[::-1]
    metrics = {
        "h": problem.mesh.h,
        "m": problem.m,
        "n_vertices": problem.mesh.num_vertices,
        "asymmetry": nd.asymmetry,
        "eig_max": eigs[0],
        "eig_min": eigs[-1],
        "wall_time": time.perf_counter() - t0,
    }
    oracle_err = _oracle_error(problem, eigs)
    if problem.regions.is_empty() and not np.isnan(oracle_err):
        metrics["oracle_max_rel_err"] = oracle_err
    _write_metrics(out_dir, metrics)
    return EXIT_OK


def cmd_reconstruct(problem, out_dir, args):
    t0 = time.perf_counter()
    problem.build_mesh(with_grid=True)
    problem.build_field()
    problem.build_basis()

    nd_file = _value(problem.cfg, "measurements_file",
                     lambda f: Path(f) if f else None)
    if nd_file:
        try:
            nd = NDMatrix.from_text(nd_file.read_text())
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"measurements_file: {exc}") from exc
        if nd.mesh_hash != problem.mesh.provenance():
            raise ConfigError("measurements_file provenance does not match "
                              "the mesh built from this config")
        if nd.basis_hash != problem.basis.provenance():
            raise ConfigError("measurements_file provenance does not match "
                              "the basis built from this config")
        nd = _with_noise(nd, args)
    else:
        nd = _measured_nd(problem, args)

    result = reconstruct(nd, problem.mesh, problem.family, problem.gamma0,
                         problem.basis, tau=problem.tau, side=problem.side,
                         truth_regions=problem.regions, rtol=problem.rtol,
                         tau_rel=problem.tau_rel)
    (out_dir / "nd_gamma.txt").write_text(nd.to_text())
    (out_dir / "verdicts.log").write_text(result.verdict_log())
    rasterize(result, str(out_dir / "result"))
    metrics = {
        "jaccard": result.jaccard if result.jaccard is not None else "nan",
        "tau": problem.tau,
        "tau_rel": problem.tau_rel,
        "box_lower": result.box_lower,
        "box_upper": result.box_upper,
        "grid_n": problem.grid_n,
        "m": problem.m,
        "h": problem.mesh.h,
        "side": problem.side,
        "inside_cells": result.inside_count(),
        "indeterminate_cells": len(result.indeterminate),
        "filled_cells": result.filled_cells,
        "n_cell_errors": len(result.cell_errors),
        "n_factor": result.n_factor,
        "n_update": result.n_update,
        "lu_nnz": result.lu_nnz,
        "wall_time": time.perf_counter() - t0,
    }
    _write_metrics(out_dir, metrics)
    return EXIT_OK


def cmd_chain(problem, out_dir, args):
    t0 = time.perf_counter()
    problem.build_mesh(with_grid=True)
    problem.build_field()
    problem.build_basis()
    # The brackets are noise-free maps, the field's own when none differs.
    maps, lu_nnz = bracketed_maps(problem.field, problem.basis, rtol=problem.rtol)
    nd = _with_noise(maps[0], args)
    nd_low, nd_up = maps[1:] or maps * 2

    # The whole window painted insulating, then conducting: every grid cell.
    template = grid_template(problem.mesh, problem.family, problem.gamma0,
                             problem.basis)
    window = range(problem.grid_n ** 2)
    nd0 = template.nd_map(window, [], problem.rtol)
    ndinf = template.nd_map([], window, problem.rtol)
    report = bracketing_chain(nd, nd_low, nd_up, nd0, ndinf, tau=problem.tau)

    (out_dir / "chain.txt").write_text("\n".join(report.log_lines()) + "\n")
    metrics = {
        "all_pass": int(report.all_pass),
        "tau": problem.tau,
        "scale": report.scale,
        "n_factor": len(maps) + 2,   # the window maps are factored too
        "lu_nnz": lu_nnz + template.lu_nnz,
        "wall_time": time.perf_counter() - t0,
    }
    for name, lam in zip(("link1", "link2", "link3", "link4"),
                         report.lambda_mins):
        metrics[name] = lam
    _write_metrics(out_dir, metrics)
    return EXIT_OK


def cmd_calibrate(problem, out_dir, args):
    """Sweep (h, m, tau) over the configured problem: record the background
    map's eigenvalue error against the disk reference and the pixel-score
    margins of the cells inside and outside the true regions; the table
    shows which tau separate them."""
    t0 = time.perf_counter()
    h_list = _value(problem.cfg, "calibrate.h", _numbers, default=[0.1, 0.08])
    m_list = _value(problem.cfg, "calibrate.m", _numbers, default=[8, 16])
    tau_list = _value(problem.cfg, "calibrate.tau", _numbers,
                      default=[1e-4, 1e-5, 1e-6])

    rows = ["h m tau oracle_err worst_in best_out tau_ok"]
    for h, m in itertools.product(h_list, m_list):
        cfg = copy.deepcopy(problem.cfg)
        cfg.setdefault("mesh", {})["target_h"] = h
        cfg.setdefault("basis", {})["m"] = m
        sub = Problem(cfg)
        sub.build_mesh(with_grid=True)
        sub.build_field()
        sub.build_basis()
        nd_g = nd_matrix(sub.field, sub.basis, rtol=sub.rtol)

        # Lower side only: the neutralizer is empty, so each verdict's
        # insulating lambda is the plain pixel score inside the minimal box.
        result = reconstruct(nd_g, sub.mesh, sub.family, sub.gamma0, sub.basis,
                             tau=min(tau_list), side="lower_only", rtol=sub.rtol)
        if result.cell_errors:
            raise fem.ConfigurationError(result.cell_errors[0][2])
        oracle_err = _oracle_error(
            sub, np.sort(result.nd_background.generalized_eigenvalues())[::-1])
        truth = rasterize_truth(sub.regions, sub.family)
        worst_in, best_out = 0.0, -np.inf
        for verdict in result.verdicts:
            i, j = map(int, verdict.test_id.removeprefix("cell").split("_"))
            score = verdict.lambda_min_insulating
            if truth[i, j]:
                worst_in = min(worst_in, score)
            else:
                best_out = max(best_out, score)
        for tau in tau_list:
            ok = worst_in >= -tau >= best_out if np.isfinite(best_out) \
                else worst_in >= -tau
            rows.append(f"{h} {m} {tau} {oracle_err:.3e} {worst_in:.3e} "
                        f"{best_out:.3e} {int(ok)}")
    (out_dir / "calibration.txt").write_text("\n".join(rows) + "\n")
    _write_metrics(out_dir, {"rows": len(rows) - 1,
                             "wall_time": time.perf_counter() - t0})
    return EXIT_OK


COMMANDS = {
    "forward": cmd_forward,
    "reconstruct": cmd_reconstruct,
    "chain": cmd_chain,
    "calibrate": cmd_calibrate,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="eitmono",
        description="Forward ND maps and monotonicity-scan reconstruction "
                    "for extreme and weighted conductivities.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-rel", type=float, default=0.0)
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        problem = Problem(cfg)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        # ConfigError, CoefficientError and GeometryError are ValueErrors;
        # the others come from malformed values in the config.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _snapshot(cfg, out_dir)
    try:
        return COMMANDS[args.command](problem, out_dir, args)
    except (ConfigError, CoefficientError, GeometryError,
            MeshConformityError, ProvenanceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fem.SolverError, fem.ConfigurationError, NDError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
