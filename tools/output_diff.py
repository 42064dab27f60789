"""Compare two directories written by `tools/output_matrix.py`, cell by cell.

    python tools/output_diff.py OLD_DIR NEW_DIR

For each file that differs, print how many rows (CSV) or lines (text) moved
and the largest relative move in each numeric column, |new - old| /
max(|old|, |new|). A CSV column is named by its header; a text line
`key: value` by its key. Every other change is listed cell by cell: a cell
that is not a finite float on both sides (an integer such as `flags`, a
name, `ValueError`), a changed header, a changed row count, and a file that
exists on one side only. The exit status is 1 if any such change exists and
0 otherwise, so moves in the last bits of floats alone pass.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path


def _rows(path: Path) -> tuple[list[str] | None, list[list[tuple[str, str]]]]:
    """(header, rows) of a file, each row a list of (column, cell); text
    files have no header and one row per line."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = list(csv.reader(io.StringIO(text)))
        header = lines[0] if lines else []
        return header, [list(zip(header, line)) for line in lines[1:]]
    rows = []
    for i, line in enumerate(text.splitlines(), start=1):
        key, sep, value = line.partition(": ")
        rows.append([(key, value) if sep else (f"line {i}", line)])
    return None, rows


def _float_move(old: str, new: str) -> float | None:
    """Relative move between two float cells, or None if the change is not
    a float move: a cell that does not parse, is not finite, or is an
    integer on both sides."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    if all(s.strip().lstrip("+-").isdigit() for s in (old, new)):
        return None
    return abs(b - a) / max(abs(a), abs(b))


def compare_file(old: Path, new: Path) -> tuple[list[str], list[str]]:
    """(report lines, non-float changes) for one pair of files."""
    old_header, old_rows = _rows(old)
    new_header, new_rows = _rows(new)
    changes = []
    if old_header != new_header:
        changes.append(f"header {old_header} -> {new_header}")
    if len(old_rows) != len(new_rows):
        changes.append(f"{len(old_rows)} -> {len(new_rows)} rows")
    moved = 0
    worst: dict[str, float] = {}
    for i, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        if a == b:
            continue
        moved += 1
        if len(a) != len(b):
            changes.append(f"row {i}: {len(a)} -> {len(b)} cells")
        for (col, x), (col_new, y) in zip(a, b):
            if x == y and col == col_new:
                continue
            rel = _float_move(x, y) if col == col_new else None
            if rel is None:
                changes.append(f"row {i} {col}: {x!r} -> {y!r}")
            else:
                worst[col] = max(worst.get(col, 0.0), rel)
    unit = "rows" if old_header is not None else "lines"
    report = [f"{old.name}: {moved} of {len(old_rows)} {unit} moved"]
    report += [f"  {col}: max relative move {rel:.2e}" for col, rel in worst.items()]
    report += [f"  changed: {c}" for c in changes]
    return report, changes


def compare_dirs(old: Path, new: Path) -> bool:
    """Print the comparison of two output directories; True if every change
    is a float move."""
    old_files = {p.name for p in old.iterdir() if p.is_file()}
    new_files = {p.name for p in new.iterdir() if p.is_file()}
    clean = True
    identical = 0
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            print(f"{name}: only in {old if name in old_files else new}")
            clean = False
        elif (old / name).read_bytes() == (new / name).read_bytes():
            identical += 1
        else:
            report, changes = compare_file(old / name, new / name)
            print("\n".join(report))
            clean &= not changes
    print(f"{identical} of {len(old_files | new_files)} files identical")
    return clean


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if compare_dirs(Path(argv[0]), Path(argv[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
