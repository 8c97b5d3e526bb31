"""Shared helpers for the per-figure benchmark harness.

Every ``bench_figNN_*.py`` regenerates one table/figure from the paper's
evaluation: it computes the same series the figure plots, prints them as a
table (with the paper's quoted numbers alongside where the text gives any),
and times the computation under pytest-benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

# Direct `python benchmarks/bench_*.py` runs resolve figutils via the script
# directory (sys.path[0]); give them the package the same way.  Under pytest
# this is a no-op because pytest.ini already sets pythonpath = src.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

GiB = 1024**3

__all__ = ["GiB", "print_table", "fmt_gb", "fmt_pct", "standalone_main"]


def standalone_main(description: str, body, ok_msg: str, fail_msg: str) -> int:
    """Shared scaffolding for direct ``python bench_*.py`` runs.

    Parses the command line (``--help`` only), runs *body* — which prints its
    table and asserts the same claims the pytest suite does — and maps an
    AssertionError to exit code 1 with *fail_msg*.
    """
    import argparse

    argparse.ArgumentParser(description=description).parse_args()
    try:
        body()
    except AssertionError as exc:
        print(f"FAIL: {fail_msg} ({exc})")
        return 1
    print(f"OK: {ok_msg}")
    return 0


def fmt_gb(nbytes: float) -> str:
    return f"{nbytes / GiB:.1f}"


def fmt_pct(frac: float) -> str:
    if frac != frac:  # nan
        return "n/a"
    if frac == float("inf"):
        return "OOM→fits"
    return f"{frac:+.0%}"


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence], note: str = "") -> None:
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        print(f"note: {note}")
