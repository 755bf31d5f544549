#!/usr/bin/env python3
"""Write digests.json: digests of the `table` and `report --machine` outputs.

The oracle compares every table and report the benchmark runs against these
digests.  They were made from the seed code; regenerate them only in a change
whose purpose is to alter those outputs, and say so in its description:

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import DIGESTS_PATH, digest  # noqa: E402
from workloads import TABLE_LIMIT, table_cells  # noqa: E402


def cli_stdout(argv: list[str]) -> str:
    from neighborly.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        if main(argv) != 0:
            raise SystemExit(f"neighborly {' '.join(argv)} failed")
    return out.getvalue()


def main() -> int:
    digests = {}
    for limit in sorted(set(TABLE_LIMIT.values())):
        digests[f"table {limit} {limit}"] = digest(cli_stdout(["table", str(limit), str(limit)]))
    for k, d in table_cells(max(TABLE_LIMIT.values())):
        digests[f"report {k} {d}"] = digest(cli_stdout(["report", str(k), str(d), "--machine"]))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
