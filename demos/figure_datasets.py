"""Regenerate every figure dataset as reproducible CSV.

Writes one file per figure id into ./figures (or a directory given as
the first argument). Output is byte-stable: rerunning produces
identical files. Each line printed names a file, its rows and columns, and
the wall time of its sweep and of its emission.

Run with: python3 demos/figure_datasets.py [outdir]
"""

import sys
import time
from pathlib import Path

from catpurify import sweeps


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)
    for figure_id in sweeps.FIGURE_IDS:
        start = time.perf_counter()
        table = sweeps.run_sweep(sweeps.default_spec(figure_id))
        swept = time.perf_counter()
        path = outdir / sweeps.csv_name(figure_id)
        sweeps.emit_csv(table, path, reproducible=True)
        emitted = time.perf_counter()
        print(
            f"{path}  ({len(table.rows)} rows x {len(table.columns)} cols; "
            f"sweep {1e3 * (swept - start):.1f} ms, emit {1e3 * (emitted - swept):.1f} ms)"
        )


if __name__ == "__main__":
    main()
