"""Record the expected output digests of the workloads for a range of seeds.

Usage: python3 bench/record_digests.py --seeds FIRST-LAST [--workload NAME]

Generates each workload's inputs once per seed, runs the untraced chain
once, and merges the SHA-256 of the five digested outputs into
``bench/expected_digests.json``.  ``run.py`` compares every repetition
against this table; for a seed missing from it, the first repetition is
the reference.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import EXPECTED_DIGESTS, WORK, ChildError, child, failures
from workloads import WORKLOADS, use_checkout_src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    use_checkout_src()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    names = [args.workload] if args.workload else list(WORKLOADS)

    table = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8")) if EXPECTED_DIGESTS.is_file() else {}
    work = WORK / "record"
    try:
        for name in names:
            for seed in seeds:
                shutil.rmtree(work, ignore_errors=True)
                child("gen.py", "--workload", name, "--seed", seed, "--out", work / "inputs")
                rep = child("chain.py", "--workload", name, "--inputs", work / "inputs", "--out", work / "out")
                if failures(rep, rep["digests"]):
                    raise ChildError(f"{name} seed {seed}: {rep['stages']} {rep['invariants']}")
                table.setdefault(name, {})[str(seed)] = rep["digests"]
                print(f"{name} seed {seed}: recorded", file=sys.stderr)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    ordered = {name: dict(sorted(table[name].items(), key=lambda kv: int(kv[0]))) for name in sorted(table)}
    EXPECTED_DIGESTS.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
