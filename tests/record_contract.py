"""Record the behaviour-contract references that ``test_contract.py`` checks.

Run from the root of a checkout, only when the recorded behaviour is meant
to change:

    PYTHONPATH=src python3 tests/record_contract.py

For every phantom of ``phantoms.REGRESSION_PHANTOMS`` it runs the
``reconstruct`` and ``chain`` commands at h=0.1, m=8, grid 8 and writes the
raster, the parsed verdicts and the chain links to
``tests/contract_refs.json``.  The test itself never writes this file.
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


def _lam(text):
    """None stands for a nan lambda (that side was not tested)."""
    value = float(text)
    return None if math.isnan(value) else value


def run_phantom(name, work):
    """Contract outputs of one phantom: raster rows, verdicts as
    cell -> [lambda_lower, lambda_upper, pass_lower, pass_upper], and the
    chain links as [name, lambda, pass]."""
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
    return {"raster": (outs["reconstruct"] / "result.csv").read_text().split(),
            "verdicts": verdicts, "chain": chain}


def main():
    refs = {}
    with tempfile.TemporaryDirectory() as work:
        for name in phantoms.REGRESSION_PHANTOMS:
            refs[name] = run_phantom(name, work)
            print(f"{name} recorded", flush=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS}")


if __name__ == "__main__":
    sys.exit(main())
