"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks on the operation's outputs.

Every workload runs on the unit disk with the full measurement arc,
``quad_depth`` 12 and ``rtol`` 1e-10.  The seed selects a quarter-turn
rotation of the phantom geometry (``seed % 4`` turns); quarter turns leave
the disk, the scan window and the scan grid unchanged.

An operation is one or more calls of the public ``eitmono.cli.main``, from
the config file to the written artifacts.
"""

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from eitmono import phantoms
from eitmono.oracle import disk_nd_eigenvalue

LABELS = ("D0", "Dinf", "Ddeg", "Dsing", "DFminus", "DFplus")

# Logged lambda values (scan verdicts and chain links) are printed with
# seven significant digits and are already divided by the data map's Gram
# norm; they match the reference when |x - ref| <= REL_TOL*|ref| + ABS_TOL.
REL_TOL = 1e-5
ABS_TOL = 1e-8
JACCARD_FLOOR = 1.0          # frozen floor of acceptance criterion 5
ORACLE_TOL = 3e-2            # acceptance criterion 2

BASE = {
    "domain": {"shape": "disk", "gamma_arc": [0.0, 1.0]},
    "solver": {"quad_depth": 12, "rtol": 1e-10},
    "basis": {"m": 16},
}


def rotate(points, turns):
    """Rotate 2-D points by ``turns`` quarter turns about the origin."""
    p = np.asarray(points, dtype=float)
    for _ in range(turns % 4):
        p = np.column_stack([-p[:, 1], p[:, 0]])
    return p


def regions_config(regions, turns):
    return {lab: [rotate(p, turns).tolist() for p in regions.label_polys(lab)]
            for lab in LABELS if regions.label_polys(lab)}


def close(x, ref):
    """None stands for a nan lambda (that side was not tested)."""
    if x is None or ref is None:
        return x is ref
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_TOL


def parse_verdicts(text):
    """cell -> [lambda_lower, lambda_upper, pass_lower, pass_upper] from a
    ``verdicts.log``; a nan lambda becomes None."""
    out = {}
    for line in text.split("\n"):
        if line.strip():
            cell, lo, hi, p_lo, p_hi = line.split()
            lams = [None if math.isnan(float(v)) else float(v) for v in (lo, hi)]
            out[cell] = lams + [int(p_lo), int(p_hi)]
    return out


class Workload:
    """One workload: ``calls`` builds the CLI argument lists of one
    operation, ``check`` returns the list of failed checks (empty when the
    outputs are correct) and the quality figures it computed."""

    name = ""

    def calls(self, seed, work):
        raise NotImplementedError

    def check(self, seed, work, refs):
        raise NotImplementedError

    @staticmethod
    def write_config(work, stem, cfg):
        path = work / f"{stem}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        return str(path)


class ScanMixed(Workload):
    name = "scan_mixed"

    def calls(self, seed, work):
        regions, _ = phantoms.build_phantom("two_blob_mixed")
        cfg = dict(BASE, regions=regions_config(regions, seed),
                   coefficient={"background": 1.0},
                   mesh={"target_h": 0.08}, scan={"grid_n": 8})
        path = self.write_config(work, "scan", cfg)
        return [["reconstruct", "--config", path, "--out", str(work / "out")]]

    def check(self, seed, work, refs):
        ref = refs[str(seed % 4)]
        out = work / "out"
        failures = []
        raster = (out / "result.csv").read_text().split()
        if raster != ref["raster"]:
            failures.append("raster differs from the reference")
        got = np.array([[c == "1" for c in row.split(",")] for row in raster])
        truth = np.array([[c == "1" for c in row.split(",")]
                          for row in ref["truth"]])
        union = np.sum(got | truth)
        jaccard = float(np.sum(got & truth)) / float(union) if union else 1.0
        if jaccard < JACCARD_FLOOR:
            failures.append(f"jaccard {jaccard} below {JACCARD_FLOOR}")
        verdicts = parse_verdicts((out / "verdicts.log").read_text())
        if sorted(verdicts) != sorted(ref["verdicts"]):
            failures.append("judged cells differ from the reference")
        else:
            for cell, (lo, hi, p_lo, p_hi) in verdicts.items():
                r_lo, r_hi, r_plo, r_phi = ref["verdicts"][cell]
                if (p_lo, p_hi) != (r_plo, r_phi):
                    failures.append(f"{cell}: verdict flags differ")
                elif not (close(lo, r_lo) and close(hi, r_hi)):
                    failures.append(f"{cell}: lambda ({lo}, {hi}) differs "
                                    f"from ({r_lo}, {r_hi})")
        return failures, {"jaccard": jaccard}

    def record(self, seed, work):
        """Reference entry from the outputs of the current commit."""
        from eitmono.geometry import RegionSet, build_domain, pixel_family
        from eitmono.reconstruction import rasterize_truth

        out = work / "out"
        cfg = json.loads(Path(self.calls(seed, work)[0][2]).read_text())
        regions = RegionSet(polys={lab: [np.asarray(p) for p in polys]
                                   for lab, polys in cfg["regions"].items()})
        fam = pixel_family(build_domain("disk"), 8)
        truth = rasterize_truth(regions, fam)
        truth_rows = [",".join(str(int(truth[ix, iy])) for ix in range(8))
                      for iy in range(8)]
        verdicts = parse_verdicts((out / "verdicts.log").read_text())
        return {"raster": (out / "result.csv").read_text().split(),
                "truth": truth_rows, "verdicts": verdicts}


class ForwardFine(Workload):
    name = "forward_fine"
    kinds = (("D0", 0.0), ("Dinf", math.inf))

    def calls(self, seed, work):
        argvs = []
        for kind, _ in self.kinds:
            regions, _ = phantoms.concentric_disk(0.5, kind, 128)
            cfg = dict(BASE, regions=regions_config(regions, seed),
                       coefficient={"background": 1.0},
                       mesh={"target_h": 0.02})
            path = self.write_config(work, f"forward_{kind}", cfg)
            argvs.append(["forward", "--config", path,
                          "--out", str(work / f"out_{kind}")])
        return argvs

    def check(self, seed, work, refs):
        worst = 0.0
        for kind, kappa in self.kinds:
            matrix, gram = read_nd(work / f"out_{kind}" / "nd_gamma.txt")
            eigs = np.sort(eigh(matrix, gram, eigvals_only=True))[::-1]
            for n in range(1, 5):
                lam = disk_nd_eigenvalue(n, 0.5, kappa)
                pair = eigs[2 * n - 2:2 * n]
                worst = max(worst, float(np.max(np.abs(pair - lam) / lam)))
        failures = []
        if not worst < ORACLE_TOL:
            failures.append(f"oracle_rel_err {worst} not below {ORACLE_TOL}")
        return failures, {"oracle_rel_err": worst}


class ChainWeighted(Workload):
    name = "chain_weighted"

    def calls(self, seed, work):
        regions, _ = phantoms.build_phantom("weighted_annulus")
        weight = {"kind": "radial_power", "center": [0.0, 0.0],
                  "exponent": 0.5, "amplitude": 1.0 / 0.28 ** 0.5}
        cfg = dict(BASE, regions=regions_config(regions, seed),
                   coefficient={"background": 1.0, "DFminus": 0.5,
                                "Ddeg": weight,
                                "singular_points": [[0.0, 0.0]]},
                   mesh={"target_h": 0.07}, scan={"grid_n": 8})
        path = self.write_config(work, "chain", cfg)
        return [["chain", "--config", path, "--out", str(work / "out")]]

    def links(self, work):
        out = []
        for line in (work / "out" / "chain.txt").read_text().split("\n"):
            if line.strip():
                name, lam, ok = line.split()
                out.append([name, float(lam), int(ok)])
        return out

    def check(self, seed, work, refs):
        ref = refs[str(seed % 4)]
        links = self.links(work)
        failures = []
        if [name for name, _, _ in links] != [name for name, _, _ in ref]:
            failures.append("chain links differ from the reference")
            return failures, {}
        for (name, lam, ok), (_, r_lam, _) in zip(links, ref):
            if ok != 1:
                failures.append(f"link {name} fails")
            if not close(lam, r_lam):
                failures.append(f"link {name}: lambda {lam} differs from {r_lam}")
        return failures, {}

    def record(self, seed, work):
        return self.links(work)


def read_nd(path):
    """ND matrix and Gram matrix from an ``nd_gamma.txt`` artifact."""
    lines = [ln for ln in Path(path).read_text().split("\n") if ln.strip()]
    m = int(lines[0])
    rows = [[float(v) for v in ln.split()] for ln in lines[1:1 + 2 * m]]
    return np.array(rows[:m]), np.array(rows[m:])


WORKLOADS = {w.name: w for w in (ScanMixed(), ForwardFine(), ChainWeighted())}
