"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, only when the recorded behaviour is meant
to change:

    PYTHONPATH=src python3 perfbench/record_refs.py [workload ...]

For each workload that has references (``scan_mixed``, ``chain_weighted``)
it runs one operation per rotation, seeds 0-3, and writes
``perfbench/refs/<workload>.json`` keyed by ``seed % 4``.
"""

import json
import shutil
import sys
from pathlib import Path

import eitmono.cli

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(names):
    for name in names or ("scan_mixed", "chain_weighted"):
        wl = WORKLOADS[name]
        refs = {}
        for seed in range(4):
            work = Path.cwd() / ".bench_out" / f"record-{name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for argv in wl.calls(seed, work):
                if eitmono.cli.main(argv) != 0:
                    raise SystemExit(f"{name} seed {seed}: {argv[0]} failed")
            refs[str(seed)] = wl.record(seed, work)
            shutil.rmtree(work)
            print(f"{name} seed {seed} recorded", flush=True)
        (HERE / "refs").mkdir(exist_ok=True)
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
