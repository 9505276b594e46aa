"""Record the digests of the ``qcsym verify-paper --json`` reports that the
replay gate compares against, one per report seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose report bytes are the behaviour contract; the
replay workload then fails any later commit whose report differs.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORT_SEEDS = 64


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from qcsym import cli
    from workloads import REFERENCE, report_bytes

    digests = []
    for seed in range(REPORT_SEEDS):
        report, ok = cli.verify_paper(seed)
        if not ok:
            sys.stderr.write(f"error: verify-paper fails at seed {seed}\n")
            return 1
        digests.append(hashlib.sha256(report_bytes(report)).hexdigest())
    REFERENCE.write_text(json.dumps({"sha256": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
