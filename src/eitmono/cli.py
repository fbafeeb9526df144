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
import difflib
import json
import math
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import fem, phantoms
from .coefficient import CoefficientField, CoefficientError, WeightSpec
from .geometry import (GeometryError, MeshConformityError, RegionSet,
                       build_domain, mesh_region_faults, pixel_family,
                       triangulate, validate_regions)
from .monotonicity import ProvenanceError, bracketing_chain
from .ndmap import (NDError, NDMatrix, bracketed_maps, build_basis, gamma_data,
                    nd_matrix, perturb_symmetric)
from .oracle import disk_nd_eigenvalue
from .reconstruction import (DEFAULT_TAU_ABS, DEFAULT_TAU_REL, grid_template,
                             rasterize, rasterize_truth, reconstruct)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def _text(value):
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _flag(value):
    """A JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _arc(value):
    """An interval (t0, t1) of the normalized boundary parameter."""
    t0, t1 = value
    return float(t0), float(t1)


def _integer(value):
    """An integral config value as int; a fractional number raises instead
    of being truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _positive(value):
    """A finite number > 0."""
    if not 0 < float(value) < math.inf:
        raise ValueError(f"expected a finite number > 0, got {value!r}")
    return float(value)


def _finite_points(values):
    """Points (x, y) of finite numbers, as tuples."""
    points = [np.asarray(value, dtype=float) for value in values]
    for value, p in zip(values, points):
        if p.shape != (2,) or not np.all(np.isfinite(p)):
            raise ValueError(f"expected a finite point (x, y), got {value!r}")
    return [tuple(p.tolist()) for p in points]


def _finite_polylines(values):
    """Finite (k, 2) arrays of polyline vertices, k >= 2."""
    lines = [np.asarray(value, dtype=float) for value in values]
    for value, p in zip(values, lines):
        if p.ndim != 2 or p.shape[1] != 2 or len(p) < 2 or not np.all(np.isfinite(p)):
            raise ValueError(f"expected a finite (k, 2) polyline with k >= 2, got {value!r}")
    return lines


def _nonnegative(value):
    """A finite number >= 0."""
    if not 0 <= float(value) < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {value!r}")
    return float(value)


def _numbers(values):
    """A non-empty list of JSON numbers, as given."""
    if not (isinstance(values, list) and values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise TypeError(f"expected a non-empty list of numbers, got {values!r}")
    return values


def _basis_size(value):
    """An integer >= 1."""
    m = _integer(value)
    if m < 1:
        raise ValueError(f"expected an integer >= 1, got {value!r}")
    return m


def _sweep(convert, values):
    """A non-empty list of JSON numbers, each converted by ``convert``."""
    return [convert(v) for v in _numbers(values)]


# The keys each weight-spec kind takes; any other key is rejected.
_WEIGHT_KEYS = {
    "constant": {"kind", "value"},
    "radial_power": {"kind", "center", "exponent", "amplitude"},
    "surface_power": {"kind", "segment", "exponent", "amplitude"},
    "product": {"kind", "factors"},
}


def _weight_from_spec(spec):
    kind = spec.get("kind")
    if kind not in _WEIGHT_KEYS:
        raise ConfigError(f"unknown weight kind {kind!r}")
    unknown = sorted(set(spec) - _WEIGHT_KEYS[kind])
    if unknown:
        raise ConfigError(f"a {kind} weight takes no key {', '.join(map(repr, unknown))}")
    if kind == "product":
        return WeightSpec.product(*[_weight_from_spec(s) for s in spec["factors"]])
    # each kind names the WeightSpec constructor whose arguments its keys are
    return getattr(WeightSpec, kind)(**{k: v for k, v in spec.items() if k != "kind"})


# The config contract: each settable key path, its converter and its default
# (None: none, and then null means absent).  `read_config` rejects other keys.
SCHEMA = {
    "domain.shape": (_text, None),
    "domain.gamma_arc": (_arc, [0.0, 1.0]),
    "domain.disk_segments": (_integer, 256),
    "phantom": (_text, None),
    "regions": (RegionSet, {}),
    "coefficient.background": (_positive, 1.0),
    "coefficient.DFminus": (float, None),
    "coefficient.DFplus": (float, None),
    "coefficient.Ddeg": (_weight_from_spec, None),
    "coefficient.Dsing": (_weight_from_spec, None),
    "coefficient.singular_points": (_finite_points, []),
    "coefficient.singular_segments": (_finite_polylines, []),
    "mesh.target_h": (_positive, 0.06),
    "mesh.min_angle_deg": (_nonnegative, 0.05),
    "solver.quad_depth": (_integer, 12),
    "solver.rtol": (_positive, 1e-10),
    "basis.m": (_integer, 8),
    "scan.grid_n": (_integer, 8),
    "scan.roi": (_numbers, None),
    "scan.tau": (_nonnegative, DEFAULT_TAU_ABS),
    "scan.tau_rel": (_nonnegative, DEFAULT_TAU_REL),
    "scan.side": (_text, "both"),
    "artifacts.mesh": (_flag, False),
    "measurements_file": (Path, None),
    # each sweep value as the entry it stands for: mesh.target_h, basis.m
    # (>= 1, as `Problem` requires) and scan.tau
    "calibrate.h": (partial(_sweep, _positive), [0.1, 0.08]),
    "calibrate.m": (partial(_sweep, _basis_size), [8, 16]),
    "calibrate.tau": (partial(_sweep, _nonnegative), [1e-4, 1e-5, 1e-6]),
}
_SECTIONS = {path.split(".")[0] for path in SCHEMA if "." in path}


def read_config(cfg):
    """Each `SCHEMA` path mapped to its converted value in ``cfg`` or its
    default.  An unknown key, a section that is not an object, a malformed
    value and a phantom beside regions or a coefficient raise ConfigError."""
    given, nodes = {}, [("", cfg)]
    for section, node in nodes:      # the sections found are appended
        if not isinstance(node, dict):
            raise ConfigError(f"{section or 'config'}: expected an object")
        for key, value in node.items():
            path = f"{section}.{key}" if section else key
            if path in SCHEMA and "." not in key:
                given[path] = value
            elif path in _SECTIONS:
                nodes.append((path, value))
            else:
                near = difflib.get_close_matches(path, [
                    known for known in (*SCHEMA, *_SECTIONS)
                    if known.rpartition(".")[0] == section], n=1, cutoff=0)
                raise ConfigError(f"unknown key {path} (did you mean {near[0]}?)")
    values = {}
    for path, (convert, default) in SCHEMA.items():
        value = given.get(path, default)
        try:
            values[path] = None if value is None and default is None else convert(value)
        except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    clash = [key for key in ("regions", "coefficient") if key in cfg]
    if values["phantom"] is not None and clash:
        raise ConfigError(f"phantom: given with {' and '.join(clash)}, which it sets itself")
    return values


class Problem:
    """Everything a command needs, built and validated from one config: the
    region clauses on polygons here, the others on the mesh `build_mesh` makes."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.config = config = read_config(cfg)
        try:
            self.domain = build_domain(config["domain.shape"], config["domain.gamma_arc"],
                                       disk_segments=config["domain.disk_segments"])
        except GeometryError as exc:
            raise ConfigError(f"domain: {exc}") from exc

        if config["phantom"] is not None:
            try:
                self.regions, self.coeff_spec = phantoms.build_phantom(config["phantom"])
            except KeyError as exc:
                # str() of a KeyError quotes its message; print it as is.
                raise ConfigError(exc.args[0]) from exc
        else:
            self.regions = config["regions"]
            self.regions.singular_points = config["coefficient.singular_points"]
            self.regions.singular_segments = config["coefficient.singular_segments"]
            self.coeff_spec = {lab: config[f"coefficient.{lab}"] for lab in (
                "background", "DFminus", "DFplus", "Ddeg", "Dsing")
                if config[f"coefficient.{lab}"] is not None}

        violations = validate_regions(self.domain, self.regions)
        if violations:
            raise ConfigError("regions invalid: " + "; ".join(violations))
        self.declare_weight_features()

        self.quad_depth = config["solver.quad_depth"]
        if not 1 <= self.quad_depth <= 64:
            raise ConfigError("solver.quad_depth must be in [1, 64]")
        self.rtol = config["solver.rtol"]
        self.m = config["basis.m"]
        if self.m < 1:
            raise ConfigError("basis.m must be >= 1")
        self.grid_n = config["scan.grid_n"]
        if self.grid_n < 2:
            raise ConfigError("scan.grid_n must be >= 2")
        try:
            self.family = pixel_family(self.domain, self.grid_n, roi=config["scan.roi"])
        except ValueError as exc:
            raise ConfigError(f"scan.roi: {exc}") from exc
        self.tau = config["scan.tau"]
        self.tau_rel = config["scan.tau_rel"]
        self.side = config["scan.side"]
        if self.side not in ("both", "lower_only", "upper_only"):
            raise ConfigError("scan.side must be both|lower_only|upper_only")
        self.gamma0 = self.coeff_spec["background"]

    def declare_weight_features(self):
        """Declare each weight's singular points and segments to the mesher
        as they are; the mesher's arrangement merges the copies that snap
        to one point."""
        for lab in ("Ddeg", "Dsing"):
            w = self.coeff_spec.get(lab)
            if w is not None:
                self.regions.singular_points.extend(w.singular_points())
                self.regions.singular_segments.extend(w.singular_segments())

    def build_mesh(self, with_grid=True):
        extra = self.family.grid_segments() if with_grid else []
        self.mesh = triangulate(self.domain, self.regions,
                                target_h=self.config["mesh.target_h"],
                                extra_segments=extra,
                                min_angle_deg=self.config["mesh.min_angle_deg"])
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
        """The current basis on the mesh's measurement arc.  ``m`` may not
        exceed the rank of the arc's quadrature (4 Gauss nodes per edge,
        less the mean), and the basis Gram matrix must have a Cholesky
        factor, as every generalized eigenvalue test needs."""
        rank = 4 * int(np.sum(self.mesh.boundary_on_gamma)) - 1
        if self.m > rank:
            raise ConfigError(f"basis.m = {self.m} exceeds {rank}, the rank of the "
                              f"measurement arc's quadrature on this mesh")
        self.basis = build_basis(self.mesh, self.m)
        try:
            np.linalg.cholesky(gamma_data(self.mesh, self.basis).gram)
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"basis.m = {self.m}: the basis Gram matrix on the "
                              f"measurement arc is not positive definite") from exc
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


# Relative bound on the difference between a measurements file's Gram
# block and the Gram of the config's basis on the scan mesh.
GRAM_RTOL = 1e-10


def _read_measurements(path, problem):
    """The ND matrix of a measurements file, checked against the problem:
    finite (m, m) matrix and Gram blocks, the mesh and basis provenance,
    and a Gram within `GRAM_RTOL` of the basis Gram."""
    try:
        nd = NDMatrix.from_text(path.read_text())
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"measurements_file: {exc}") from exc
    m = problem.m
    for name, block in (("matrix", nd.matrix), ("Gram", nd.gram)):
        if block.shape != (m, m) or not np.all(np.isfinite(block)):
            raise ConfigError(f"measurements_file: the {name} block is not a "
                              f"finite {m}x{m} matrix")
    if nd.mesh_hash != problem.mesh.provenance():
        raise ConfigError("measurements_file provenance does not match "
                          "the mesh built from this config")
    if nd.basis_hash != problem.basis.provenance():
        raise ConfigError("measurements_file provenance does not match "
                          "the basis built from this config")
    gram = gamma_data(problem.mesh, problem.basis).gram
    if np.max(np.abs(nd.gram - gram)) > GRAM_RTOL * np.max(np.abs(gram)):
        raise ConfigError(f"measurements_file: the Gram block differs from the "
                          f"basis Gram of this config by more than {GRAM_RTOL:.0e} "
                          f"relative")
    return nd


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
    problem.build_mesh(with_grid="scan" in problem.cfg)
    problem.build_field()
    problem.build_basis()
    nd = _measured_nd(problem, args)
    (out_dir / "nd_gamma.txt").write_text(nd.to_text())
    if problem.config["artifacts.mesh"]:
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

    nd_file = problem.config["measurements_file"]
    if nd_file:
        nd = _with_noise(_read_measurements(nd_file, problem), args)
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
        "indeterminate_cells": result.count("family_fault"),
        "filled_cells": result.count("filled"),
        "n_cell_errors": result.count("error"),
        "n_below_floor": result.count("below_floor"),
        "n_factor": result.n_factor,
        "n_update": result.n_update,
        "n_implied": result.n_implied,
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
    nd0 = template.solve(window, [], problem.rtol).nd
    ndinf = template.solve([], window, problem.rtol).nd
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
    h_list, m_list, tau_list = (problem.config[f"calibrate.{k}"] for k in ("h", "m", "tau"))

    rows = ["h m tau oracle_err worst_in best_out tau_ok"]
    for h in h_list:   # the mesh and the field depend on h alone
        cfg = copy.deepcopy(problem.cfg)
        cfg.setdefault("mesh", {})["target_h"] = h
        sub = Problem(cfg)
        sub.build_mesh(with_grid=True)
        sub.build_field()
        for m in m_list:
            sub.m = m
            sub.build_basis()
            nd_g = nd_matrix(sub.field, sub.basis, rtol=sub.rtol)

            # Lower side only: the neutralizer is empty, so each judged row's
            # score is the plain pixel score inside the minimal box.
            result = reconstruct(nd_g, sub.mesh, sub.family, sub.gamma0, sub.basis,
                                 tau=min(tau_list), side="lower_only", rtol=sub.rtol)
            errors = [row.reason for row in result.cells if row.reason.startswith("error: ")]
            if errors:
                raise fem.ConfigurationError(errors[0].removeprefix("error: "))
            oracle_err = _oracle_error(
                sub, np.sort(result.nd_background.generalized_eigenvalues())[::-1])
            truth = rasterize_truth(sub.regions, sub.family)
            scores = [(truth[row.cell], row.score) for row in result.cells if row.sign == "lower"]
            worst_in = min([0.0] + [score for in_truth, score in scores if in_truth])
            best_out = max([-np.inf] + [score for in_truth, score in scores if not in_truth])
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
    if args.seed < 0:
        print(f"config error: --seed: expected an integer >= 0, got {args.seed}",
              file=sys.stderr)
        return EXIT_CONFIG

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
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return COMMANDS[args.command](problem, out_dir, args)
    except (ConfigError, CoefficientError, GeometryError,
            MeshConformityError, ProvenanceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fem.SolverError, fem.ConfigurationError, NDError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """A warning a command raises, such as `ndmap.BasisResolutionWarning`,
    as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
