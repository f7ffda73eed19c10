"""Check a profile CSV written by fhn-gamma.

    python .github/scripts/check_profile_csv.py PROFILE.csv ROWS

The file must have the header ``x,value``, then exactly ROWS rows of two
floats each written as ``repr`` writes them, and the profile w must have unit
weighted L2 norm, the trapezoid sum of e^x w^2, within 1e-8.  Prints the row
count and the norm; exits non-zero on the first failed check.
"""

import sys

import numpy as np


def main(path: str, rows: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,value", lines[0]
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 2 and [repr(float(f)) for f in fields] == fields, line
    assert len(lines) - 1 == rows, len(lines) - 1
    x, w = np.array([[float(f) for f in line.split(",")] for line in lines[1:]]).T
    f = np.exp(x) * w**2
    norm = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))
    assert abs(norm - 1.0) <= 1e-8, norm
    print(rows, repr(norm))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
