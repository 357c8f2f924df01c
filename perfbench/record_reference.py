"""Record the reference values the train and score checks compare against.

Run from the repository root at a commit whose numerics are trusted:

    python3 perfbench/record_reference.py

It overwrites perfbench/reference.json.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def main() -> None:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        recorded = {"train_loss": workloads.reference_loss(workdir),
                    "probabilities": workloads.reference_probabilities(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
