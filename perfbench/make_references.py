#!/usr/bin/env python3
"""Write the stored reference reports of the theorem-a and bar-deep workloads.

    python3 perfbench/make_references.py

The corpus workload uses the goldens under src/burchlab/corpus/golden/.
Rerun this only for a change that is meant to alter report contents; a
performance change must leave perfbench/reference/ as it is.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REFERENCE_DIR, build_calls, import_package  # noqa: E402

SEED = 1


def main():
    mods = import_package()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in ("theorem-a", "bar-deep"):
        calls = build_calls(workload, SEED, mods, references={})
        refs = {c.name: mods["report"].strip_timing(c.run()) for c in sorted(calls, key=lambda c: c.name)}
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
