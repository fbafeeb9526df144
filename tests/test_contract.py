"""The behaviour contract: rasters, verdicts and chain links of every
regression phantom at h=0.1, m=8, grid 8, against references recorded by
``tests/record_contract.py``.

Rasters, pass flags, the scan's counts of factored and updated maps and
the chain's count of factored maps must match exactly; lambdas within the benchmark's tolerance, 1e-5
relative plus 1e-8.  The ``calibrate`` table of the insulating_disk sweep
must match line for line, as exact strings.
"""

import json

import pytest

from eitmono import phantoms
from record_contract import REFS, run_calibrate, run_phantom

REL_TOL = 1e-5
ABS_TOL = 1e-8
CONTRACT = json.loads(REFS.read_text())
# Maps per scan: each is factored or updated on a retained base.  A cover
# trial that monotonicity decides from a solved box is no map.
N_MAPS = {"conducting_disk": 24, "df_minus_square": 18, "df_plus_disk": 20,
          "insulating_disk": 24, "insulating_pair": 35, "off_center_mixed": 82,
          "plain_annulus": 24, "quarter_blobs": 43, "singular_core": 24,
          "two_blob_mixed": 37, "weighted_annulus": 24}


def close(x, ref):
    if x is None or ref is None:
        return x is ref
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_TOL


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_contract(tmp_path, name):
    ref = CONTRACT[name]
    got = run_phantom(name, tmp_path)
    assert got["raster"] == ref["raster"]
    assert (got["n_factor"], got["n_update"]) == (ref["n_factor"], ref["n_update"])
    assert got["n_factor"] + got["n_update"] == N_MAPS[name]
    # the data map, its two brackets when a region is weighted, the window maps
    weighted = {"Ddeg", "Dsing"} & set(phantoms.build_phantom(name)[1])
    assert got["chain_n_factor"] == ref["chain_n_factor"] == (5 if weighted else 3)
    assert sorted(got["verdicts"]) == sorted(ref["verdicts"])
    for cell, (lo, hi, p_lo, p_hi) in got["verdicts"].items():
        r_lo, r_hi, r_plo, r_phi = ref["verdicts"][cell]
        assert (p_lo, p_hi) == (r_plo, r_phi), cell
        assert close(lo, r_lo) and close(hi, r_hi), (cell, lo, hi, r_lo, r_hi)
    assert [(n, ok) for n, _, ok in got["chain"]] == \
        [(n, ok) for n, _, ok in ref["chain"]]
    for (link, lam, _), (_, r_lam, _) in zip(got["chain"], ref["chain"]):
        assert close(lam, r_lam), (link, lam, r_lam)


def test_calibrate_table(tmp_path):
    assert run_calibrate(tmp_path) == CONTRACT["calibrate"]


def test_artifact_digests_on_one_phantom(tmp_path):
    from artifact_digests import REJECTED, collect, differences, file_digest

    digests = collect(tmp_path / "a", names=["insulating_disk"], calibrate=False, seeds=())
    for path in ("forward/mesh.txt", "forward/nd_gamma.txt", "reconstruct/verdicts.log",
                 "reconstruct/result.csv", "chain/chain.txt", "chain/metrics.txt"):
        assert f"insulating_disk/{path}" in digests, path
    assert digests["insulating_disk/chain/exit"] == "0"
    # every rejected config exits 2 with its stderr digested
    assert {digests[f"rejected/{name}/exit"] for name in REJECTED} == {"2"}
    assert all(f"rejected/{name}/stderr" in digests for name in REJECTED)
    again = collect(tmp_path / "b", names=["insulating_disk"], calibrate=False, seeds=())
    assert differences(digests, again) == []
    assert differences(digests, {**again, "x": "y"}) == ["x"]
    # only the wall_time line of metrics.txt is left out
    metrics = tmp_path / "metrics.txt"
    digest = []
    for text in ("n 1\nwall_time 0.5\n", "n 1\nwall_time 0.7\n", "n 2\nwall_time 0.5\n"):
        metrics.write_text(text)
        digest.append(file_digest(metrics))
    assert digest[0] == digest[1] != digest[2]
