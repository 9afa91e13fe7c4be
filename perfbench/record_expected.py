"""Record the D1-all of every classic_files library pair.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected_d1.json``, which the classic_files workload
checks every item against.  Re-record only when the classical matching
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import envinfo

os.environ.update(envinfo.BLAS_ENV)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mscv.cli  # noqa: E402

from workloads import EXPECTED_D1, ClassicFiles, write_library_pair  # noqa: E402


def main() -> int:
    d1 = []
    with tempfile.TemporaryDirectory(dir=EXPECTED_D1.parent.parent) as tmp:
        for lib in range(ClassicFiles.LIBRARY):
            (left, right, gt), _ = write_library_pair(lib, Path(tmp))
            pred = mscv.cli.traditional_match(mscv.read_image(left), mscv.read_image(right))
            pred_path = Path(tmp) / "pred.pfm"
            mscv.write_pfm(pred, pred_path)
            report = mscv.evaluate(mscv.read_pfm(pred_path), mscv.read_pfm(gt))
            d1.append(report.d1_all)
            print(f"pair {lib}: d1_all={report.d1_all!r}", flush=True)
    EXPECTED_D1.write_text(json.dumps({"d1_all": d1}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
