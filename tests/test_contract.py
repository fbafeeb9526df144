"""The behaviour contract: rasters, verdicts and chain links of every
regression phantom at h=0.1, m=8, grid 8, against references recorded by
``tests/record_contract.py``.

Rasters and pass flags must match exactly; lambdas within the benchmark's
tolerance, 1e-5 relative plus 1e-8.
"""

import json

import pytest

from eitmono import phantoms
from record_contract import REFS, run_phantom

REL_TOL = 1e-5
ABS_TOL = 1e-8
CONTRACT = json.loads(REFS.read_text())


def close(x, ref):
    if x is None or ref is None:
        return x is ref
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_TOL


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_contract(tmp_path, name):
    ref = CONTRACT[name]
    got = run_phantom(name, tmp_path)
    assert got["raster"] == ref["raster"]
    assert sorted(got["verdicts"]) == sorted(ref["verdicts"])
    for cell, (lo, hi, p_lo, p_hi) in got["verdicts"].items():
        r_lo, r_hi, r_plo, r_phi = ref["verdicts"][cell]
        assert (p_lo, p_hi) == (r_plo, r_phi), cell
        assert close(lo, r_lo) and close(hi, r_hi), (cell, lo, hi, r_lo, r_hi)
    assert [(n, ok) for n, _, ok in got["chain"]] == \
        [(n, ok) for n, _, ok in ref["chain"]]
    for (link, lam, _), (_, r_lam, _) in zip(got["chain"], ref["chain"]):
        assert close(lam, r_lam), (link, lam, r_lam)
