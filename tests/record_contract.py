"""Record the behaviour-contract references that ``test_contract.py`` checks.

Run from the root of a checkout, only when the recorded behaviour is meant
to change:

    PYTHONPATH=src python3 tests/record_contract.py

For every phantom of ``phantoms.REGRESSION_PHANTOMS`` it runs the
``reconstruct`` and ``chain`` commands at h=0.1, m=8, grid 8 and writes the
raster, the parsed verdicts, the chain links, the scan's counts of
factored and updated maps and the chain's count of factored maps to
``tests/contract_refs.json``.  Under the key ``calibrate`` it adds the lines
of ``calibration.txt`` from a small ``calibrate`` sweep on insulating_disk.
The test itself never writes this file.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from eitmono import cli, phantoms

HERE = Path(__file__).resolve().parent
REFS = HERE / "contract_refs.json"


def contract_config(name):
    return {"domain": {"shape": "disk"}, "phantom": name,
            "mesh": {"target_h": 0.1}, "basis": {"m": 8},
            "scan": {"grid_n": 8}}


CALIBRATE_CONFIG = {
    "domain": {"shape": "disk", "gamma_arc": [0.0, 1.0]},
    "phantom": "insulating_disk",
    "mesh": {"target_h": 0.12},
    "basis": {"m": 6},
    "scan": {"grid_n": 8, "tau": 1e-5, "tau_rel": 0.5},
    "calibrate": {"h": [0.12], "m": [6], "tau": [1e-4, 1e-6]},
}


def _lam(text):
    """None stands for a nan lambda (that side was not tested)."""
    value = float(text)
    return None if math.isnan(value) else value


def run_phantom(name, work):
    """Contract outputs of one phantom: raster rows, verdicts as
    cell -> [lambda_lower, lambda_upper, pass_lower, pass_upper], the chain
    links as [name, lambda, pass], the scan's counts ``n_factor`` and
    ``n_update`` and the chain's ``n_factor`` (as ``chain_n_factor``) from
    their ``metrics.txt``."""
    work = Path(work)
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(contract_config(name)))
    outs = {}
    for command in ("reconstruct", "chain"):
        out = work / f"{name}-{command}"
        code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{name}: {command} exited {code}")
        outs[command] = out
    verdicts = {}
    for line in (outs["reconstruct"] / "verdicts.log").read_text().splitlines():
        cell, lo, hi, p_lo, p_hi = line.split()
        verdicts[cell] = [_lam(lo), _lam(hi), int(p_lo), int(p_hi)]
    chain = []
    for line in (outs["chain"] / "chain.txt").read_text().splitlines():
        link, lam, ok = line.split()
        chain.append([link, _lam(lam), int(ok)])
    metrics, chain_metrics = (
        dict(line.split(" ", 1) for line in (outs[c] / "metrics.txt").read_text().splitlines())
        for c in ("reconstruct", "chain"))
    return {"raster": (outs["reconstruct"] / "result.csv").read_text().split(),
            "verdicts": verdicts, "chain": chain,
            "n_factor": int(metrics["n_factor"]),
            "n_update": int(metrics["n_update"]),
            "chain_n_factor": int(chain_metrics["n_factor"])}


def run_calibrate(work, cfg=CALIBRATE_CONFIG):
    """The lines of ``calibration.txt`` written by ``calibrate`` on cfg."""
    work = Path(work)
    cfg_path = work / "calibrate.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "calibrate"
    code = cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"calibrate exited {code}")
    return (out / "calibration.txt").read_text().splitlines()


def main():
    refs = {}
    with tempfile.TemporaryDirectory() as work:
        for name in phantoms.REGRESSION_PHANTOMS:
            refs[name] = run_phantom(name, work)
            print(f"{name} recorded", flush=True)
        refs["calibrate"] = run_calibrate(work)
        print("calibrate recorded", flush=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS}")


if __name__ == "__main__":
    sys.exit(main())
