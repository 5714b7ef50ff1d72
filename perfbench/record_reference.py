#!/usr/bin/env python3
"""Record the census reference of census_f2 and census_f3 into reference/.

    python3 perfbench/record_reference.py

Run it only at a commit whose census answers are trusted: the benchmark
checks every later commit against what this writes.  The data of the
recorded files came from the commit named in them and agree with the
theory checks in tests/test_reference.py.
"""

import json
import sys

from run import SRC, git_commit

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from foursub.canon import format_tag  # noqa: E402
from foursub.census import census  # noqa: E402
from foursub.fields import GF  # noqa: E402


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("census_f2", "census_f3"):
        workload = workloads.make(name)
        field = GF(workload.q)
        cells = {}
        for category, dims in workload.cells:
            report = census(category, field, dims, workers=1)
            cells[workloads.cell_key(category, dims)] = workloads.census_summary(report, format_tag)
        record = {"commit": git_commit(), "field": field.name, "cells": cells}
        workload.reference_path().write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(cells)} cells")


if __name__ == "__main__":
    main()
