import sys
from pathlib import Path

# test helpers, and scripts/fuzz_oracles.py for its structure mutations
sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parents[1] / "scripts")]

from eqbundles.laurent import LaurentMatrix, parse_laurent


def L(text, conductor=1):
    """Shorthand: parse a Laurent polynomial from its canonical text."""
    return parse_laurent(text, conductor)


def const_grid(matrix):
    """The CycNum grid of a matrix whose entries are all constants."""
    assert all(set(p.coeffs) <= {0} for row in matrix.entries for p in row)
    return [[p.coeff(0) for p in row] for row in matrix.entries]


def M(rows, conductor=1):
    """Shorthand: matrix from a grid of canonical text entries."""
    return LaurentMatrix(conductor,
                         [[parse_laurent(s, conductor) for s in row]
                          for row in rows])
