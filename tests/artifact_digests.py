"""Digest every artifact the commands write, so that a change meant to keep
the outputs byte-identical can be checked against its parent commit.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/artifact_digests.py --out new.json
    PYTHONPATH=src python3 tests/artifact_digests.py --out new.json --compare old.json

It runs ``forward`` (with the ``mesh.txt`` export), ``reconstruct`` and
``chain`` on every phantom of ``phantoms.CATALOG`` at h=0.1, m=8, grid 8,
``forward`` and ``reconstruct`` on the ``ARC_PHANTOMS`` among them with each
half arc of ``ARCS`` (whose end points the mesher pins to vertices),
``forward`` on each config of ``REJECTED``, which exits 2 with a config
error, then the ``calibrate`` sweep of ``record_contract.py``, then the operations
of the benchmark workloads (``perfbench/workloads.py``) at seeds 0-3.  It
writes a JSON object from each artifact's path below the run directory to
the SHA-256 of its bytes, with the ``wall_time`` line of ``metrics.txt``
left out; each run's exit code and stderr are digested beside its files.
``--compare`` prints the paths whose digests differ from, or are missing in
either of, the two files and exits 1 when there is one.  About a minute on
one core.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from eitmono import cli, phantoms
from record_contract import CALIBRATE_CONFIG, contract_config
from test_cli import NEAR_SINGULAR_POINTS, OVERLAPS, PINCHED_DDEG

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3)
ARC_PHANTOMS = ("two_blob_mixed", "weighted_annulus")
ARCS = ((0.0, 0.5), (0.25, 0.999))
# One region set per config-error clause, in place of the phantom: the
# overlap and crossing sets of the CLI tests, a weighted square pinched by
# the background, a polygon outside the domain and a weight's singular
# point beside a declared one.
REJECTED = {**{name: overrides for name, (overrides, _) in OVERLAPS.items()},
            "pinched_ddeg": PINCHED_DDEG,
            "outside_domain": {"regions": {"D0": [[[0.8, 0.8], [1.2, 0.8],
                                                   [1.2, 1.2], [0.8, 1.2]]]}},
            "near_singular_points": NEAR_SINGULAR_POINTS}


def file_digest(path):
    """SHA-256 of a file's bytes; ``metrics.txt`` without its wall_time."""
    data = path.read_bytes()
    if path.name == "metrics.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"wall_time "))
    return hashlib.sha256(data).hexdigest()


def run(argv, run_dir, digests, base):
    """Run ``cli.main(argv)`` writing to ``run_dir`` and digest what it left
    there, its exit code and its stderr, keyed by paths below ``base``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(run_dir)])
    key = run_dir.relative_to(base).as_posix()
    digests[f"{key}/exit"] = str(code)
    digests[f"{key}/stderr"] = hashlib.sha256(err.getvalue().encode()).hexdigest()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(base).as_posix()] = file_digest(path)


def collect(work, names=tuple(phantoms.CATALOG), rejected=True, calibrate=True,
            seeds=SEEDS):
    """Digests of the phantom runs of ``names`` (with their half-arc runs),
    the ``REJECTED`` runs when ``rejected``, the calibrate sweep when
    ``calibrate`` and the workload operations at ``seeds``, run in
    ``work``."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in names:
        cfg = dict(contract_config(name), artifacts={"mesh": True})
        cfg_path = work / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("forward", "reconstruct", "chain"):
            run([command, "--config", str(cfg_path)], work / name / command,
                digests, work)
    for name in (n for n in ARC_PHANTOMS if n in names):
        for t0, t1 in ARCS:
            cfg = dict(contract_config(name), artifacts={"mesh": True})
            cfg["domain"]["gamma_arc"] = [t0, t1]
            key = f"{name}-arc{t0}-{t1}"
            cfg_path = work / f"{key}.json"
            cfg_path.write_text(json.dumps(cfg))
            for command in ("forward", "reconstruct"):
                run([command, "--config", str(cfg_path)], work / key / command,
                    digests, work)
    for name, overrides in REJECTED.items() if rejected else ():
        cfg = {k: v for k, v in contract_config(name).items() if k != "phantom"}
        cfg_path = work / f"rejected-{name}.json"
        cfg_path.write_text(json.dumps({**cfg, **overrides}))
        run(["forward", "--config", str(cfg_path)], work / "rejected" / name,
            digests, work)
    if calibrate:
        cfg_path = work / "calibrate.json"
        cfg_path.write_text(json.dumps(CALIBRATE_CONFIG))
        run(["calibrate", "--config", str(cfg_path)], work / "calibrate",
            digests, work)
    if seeds:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import WORKLOADS

        for wname, workload in WORKLOADS.items():
            for seed in seeds:
                wdir = work / f"{wname}-{seed}"
                wdir.mkdir()
                for argv in workload.calls(seed, wdir):
                    out = Path(argv[argv.index("--out") + 1])
                    run(argv[:argv.index("--out")], out, digests, work)
    return digests


def differences(new, old):
    """Paths whose digests differ or that only one of the two has."""
    return sorted(k for k in set(new) | set(old) if new.get(k) != old.get(k))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file of digests to write")
    parser.add_argument("--compare", help="digests of another checkout to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        digests = collect(work)
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {args.out}")
    if args.compare:
        diff = differences(digests, json.loads(Path(args.compare).read_text()))
        for key in diff:
            print(f"differs: {key}")
        print(f"{len(diff)} of {len(digests)} differ")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
