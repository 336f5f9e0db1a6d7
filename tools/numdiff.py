"""Compare two output trees of ``tools/identity.py`` number by number.

    python3 tools/numdiff.py OLD NEW

Every file present in either tree is compared.  Files whose bytes are equal
are skipped.  For every other file one line is printed: ``numeric`` when the
two files split into the same text between their numeric tokens and differ
only in those tokens, with the count of differing tokens and the largest
absolute difference between them; ``other`` when anything else differs (text
around the numbers, the number of tokens, bytes that are not UTF-8, or a
file missing on one side).  A last line gives the largest numeric difference
over all files.  The exit code is 0 when every difference is numeric and 1
otherwise, so a change that should only move trailing digits can be gated on
it, with the printed maxima read against the change's stated bounds.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def files(root: Path) -> set[Path]:
    return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}


def compare(old: bytes, new: bytes) -> tuple[int, float] | None:
    """(differing tokens, largest absolute difference) when ``old`` and
    ``new`` differ only in numeric tokens, else None."""
    try:
        a, b = NUMBER.split(old.decode()), NUMBER.split(new.decode())
    except UnicodeDecodeError:
        return None
    # Even pieces are the text between numbers, odd pieces the numbers.
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    pairs = [(x, y) for x, y in zip(a[1::2], b[1::2]) if x != y]
    return len(pairs), max((abs(float(x) - float(y)) for x, y in pairs), default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/numdiff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (Path(arg) for arg in argv)
    worst, clean = 0.0, True
    for name in sorted(files(old) | files(new)):
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"other    {name}: only in {old if a.is_file() else new}")
            clean = False
            continue
        before, after = a.read_bytes(), b.read_bytes()
        if before == after:
            continue
        found = compare(before, after)
        if found is None:
            print(f"other    {name}")
            clean = False
        else:
            count, largest = found
            worst = max(worst, largest)
            print(f"numeric  {name}: {count} tokens, max |difference| {largest:.3g}")
    print(f"largest numeric difference: {worst:.3g}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
