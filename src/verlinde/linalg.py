"""Dense exact linear algebra over the integers.

``ExactMatrix`` holds ints only (a rational problem is made integral where
its matrix is built); ``scalar`` is the forms' coefficient normal form, an
``int`` when integral, else a ``Fraction``.  ``ExactMatrix.left_kernel``
gives an integer left kernel basis certified from one elimination modulo
a word-size prime, with fraction-free (Bareiss) elimination of [M | I] as
the exact fallback; ``ExactMatrix.rank`` is the number of rows less the
size of that basis, with Bareiss on M alone as its fallback.  One Bareiss
loop serves both fallbacks and the suites' independent rank oracle.

The modular elimination packs each working row into one int, a 96-bit
slot per column, and updates it by one multiply-add of the pivot row
folded under 2**31 (``_fold``): a slot would carry only after 2**35.  It
resumes: rows stacked below eliminated rows are reduced by their pivot
records, then among themselves, so a block shared by a sequence of
matrices (a pencil's B^T) is eliminated once.  The caller picks the
exact check of each lifted kernel vector (``_certified_kernel``).
"""

from __future__ import annotations

import functools
import math
import re
import struct
from fractions import Fraction
from operator import mul

try:
    from gmpy2 import mpz
except ImportError:  # pure-int fallback: same results, slower on large minors
    mpz = int

# The modular engine's prime: the largest prime below 2**30, so a residue
# is one 30-bit CPython digit and a product of two residues fits in two.
_PRIME = 1073741789
# Rational reconstruction recovers n/d from its residue when |n|, d <= this.
_RECON_BOUND = math.isqrt((_PRIME - 1) // 2)
_FOLD = 2**30 - _PRIME  # 2**30 mod p: the packed rows' fold constant

__all__ = ["ExactMatrix", "scalar", "random_unimodular"]


def scalar(x):
    """The normal form of an exact value: an int when it is integral, else a
    Fraction.  Accepts whatever ``Fraction`` does (ints, Fractions, "3/2")."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_JSON_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def int_from_json(x):
    """A JSON integer as an int; ValueError for anything else (a float such
    as 2.5 or 2.0, a bool, a string)."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def scalar_from_json(x):
    """An exact scalar from its JSON form: an integer, or a string "p" or
    "p/q" with q nonzero.  ValueError for anything else; a float is refused
    rather than read as its binary fraction."""
    if type(x) is int:
        return x
    if isinstance(x, str) and _JSON_SCALAR_RE.fullmatch(x):
        try:
            return scalar(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"expected an integer or a \"p/q\" string, got {x!r}")


class ExactMatrix:
    """Immutable dense matrix of ints.  ValueError for an entry of any
    other type (a Fraction, even an integral one, a float, a bool)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        data = []
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
            if not set(map(type, row)) <= {int}:
                bad = next(x for x in row if type(x) is not int)
                raise ValueError(f"matrix entries must be ints, got {bad!r}")
            data.append(list(row))
        self.rows = rows
        self.cols = cols
        self.entries = data

    @classmethod
    def _of_grid(cls, rows, cols, entries):
        """A fresh grid of ints its caller has checked, taken as it is."""
        m = object.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, entries, cols=None):
        rows = len(entries)
        if cols is None:
            if rows == 0:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(entries[0])
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def transpose(self):
        # zip yields no columns when there are no rows
        return ExactMatrix(self.cols, self.rows, list(zip(*self.entries)) or [()] * self.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return ExactMatrix(self.rows, self.cols + other.cols,
                           [self.entries[i] + other.entries[i] for i in range(self.rows)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return ExactMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def scale(self, c):
        return ExactMatrix(self.rows, self.cols,
                           [[c * x for x in row] for row in self.entries])

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return ExactMatrix(self.rows, self.cols,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = other.transpose().entries
        out = [[sum(a * b for a, b in zip(row, col)) for col in ot]
               for row in self.entries]
        return ExactMatrix(self.rows, other.cols, out)

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def apply_to_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.entries]

    def rank(self):
        """Exact rank: the number of rows less the size of a certified
        left kernel basis, with the matrix oriented so the short side is
        the rows.

        The basis comes from one elimination modulo a word-size prime (see
        ``left_kernel``).  When a kernel vector does not lift, fraction-free
        Bareiss elimination gives the rank instead; the rank needs no kernel,
        so it eliminates the rows alone, not [M | I].
        """
        rows = (self.transpose() if self.rows > self.cols else self).entries
        if not rows:
            return 0
        kernel = _modular_left_kernel(rows)
        if kernel is None:
            return _bareiss_rank(rows)
        return len(rows) - len(kernel)

    def left_kernel(self):
        """Integer basis of the left kernel {z : z M = 0}, as row vectors.

        The rows are eliminated modulo ``_PRIME``, giving r <= rank.  Each
        of the rows - r rows that reduce to zero gives a vector that is 1
        there and 0 at the other zero rows mod p; it is lifted by rational
        reconstruction and checked to annihilate the matrix exactly over Z.
        So the vectors are exact and independent, and there are rows - r >=
        rows - rank of them: a basis.  If a vector does not lift (a bad
        prime, or an entry past the reconstruction bound), fraction-free
        elimination of [M | I] over the columns of M gives the basis
        instead: the identity part of the rows left under the rank.
        """
        rows = self.entries
        if not rows:
            return []
        kernel = _modular_left_kernel(rows)
        if kernel is None:
            kernel = _bareiss_left_kernel(rows)
        return kernel

    def to_json(self):
        return [[str(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, rows, cols, grid):
        """Read ``to_json``'s grid; entries as in ``scalar_from_json``, and
        the constructor refuses a non-integral one."""
        if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
            raise ValueError("matrix grid must be a list of lists")
        return cls(rows, cols, [[scalar_from_json(x) for x in row] for row in grid])


@functools.cache
def _packing(width):
    """The Struct that packs ``width`` residues into 96-bit slots, and the
    masks of every slot's low 30 bits and of its high 66 bits."""
    return (struct.Struct(">" + "8xI" * width),
            int.from_bytes((bytes(8) + b"\x3f\xff\xff\xff") * width, "big"),
            int.from_bytes((b"\xff" * 8 + b"\xc0\0\0\0") * width, "big"))


def _fold(x, lo, hi):
    """Fold each 96-bit slot of x below 2**31, keeping it mod ``_PRIME``:
    2**30 = ``_FOLD`` (mod p), so a slot lo + 2**30 hi becomes lo + 35 hi,
    and three folds take 96 bits to 72, 48, then under 2**31."""
    for _ in range(3):
        x = (x & lo) + _FOLD * ((x & hi) >> 30)
    return x


def _pack_mod_p(rows):
    """Each integer row's residues mod ``_PRIME`` packed into one int."""
    packer = _packing(len(rows[0]))[0]
    return [int.from_bytes(packer.pack(*[x % _PRIME for x in row]), "big") for row in rows]


def _echelon_mod_p(rest, width, base=None):
    """Gaussian elimination modulo ``_PRIME`` of packed rows (``_pack_mod_p``),
    which it consumes.

    Returns the pivot rows in pivot order, each row's multipliers by pivot
    number, the rows that reduced to zero, and the pivots' records (slot
    shift, folded tail, inverse).  Each working row is one int with a
    96-bit slot per column, column 0 the highest; an update adds (p - f)
    times the pivot row's slots below the pivot column, folded under
    2**31, and drops the eliminated slots.  Slots stay nonnegative and grow
    by under 2**61 per update, so a carry takes 2**35 updates; a row takes
    at most min(rows, cols).  A base, the result for rows stacked above
    these, is resumed and left as it was: these rows, numbered after its
    own, are reduced by its records in order, clearing only the pivot slot
    (an earlier column may be nonzero here with no pivot there), and then
    eliminated among themselves.
    """
    p = _PRIME
    _, lo, hi = _packing(width)
    slot = (1 << 96) - 1
    pivots, mults, zero_rows, records = base or ([], [], [], [])
    first = len(mults)
    pivots, mults, records = pivots[:], mults + [[] for _ in rest], records[:]
    for shift, tail, inv in records:
        for i, row in enumerate(rest):
            e = row >> shift & slot
            f = e * inv % p
            mults[first + i].append(f)
            if f:
                rest[i] = row - (e << shift) + (p - f) * tail
    rest_idx = list(range(first, first + len(rest)))
    for c in range(width):
        shift = 96 * (width - 1 - c)
        column = [row >> shift & slot for row in rest]
        for at, e in enumerate(column):
            if e % p:
                break
        else:
            continue
        pivots.append(rest_idx.pop(at))
        del column[at]
        below = (1 << shift) - 1
        tail = _fold(rest.pop(at) & below, lo, hi)
        inv = pow(e, -1, p)
        records.append((shift, tail, inv))
        if not rest:
            break
        for i, e in enumerate(column):
            f = e * inv % p
            mults[rest_idx[i]].append(f)
            if f:
                rest[i] = (rest[i] & below) + (p - f) * tail
    return pivots, mults, zero_rows + rest_idx, records


def _left_kernel_mod_p(i, pivots, mults):
    """The vector z mod p with z[i] = 1, zero at the other zero rows, and
    z . rows = 0, as its support rows and their residues.

    Row i reduced to zero, so it is the sum of its multipliers times the
    reduced pivot rows; pivot row k is its own reduced row plus its
    multipliers times earlier reduced rows.  Solving that unit lower
    triangular system backwards writes row i over the original pivot rows.
    (A zero row of a resumed base has no multipliers for later pivots.)
    """
    p = _PRIME
    acc = mults[i] + [0] * (len(pivots) - len(mults[i]))
    support, residues = [i], [1]
    for k in range(len(pivots) - 1, -1, -1):
        y = acc[k]
        if y:
            support.append(pivots[k])
            residues.append(p - y)
            for j, f in enumerate(mults[pivots[k]]):
                if f:
                    acc[j] = (acc[j] - y * f) % p
    return support, residues


def _lift(residues):
    """Integer multiple of the vector of rationals n/d, |n|, d <=
    ``_RECON_BOUND``, with these residues; None if an entry has none."""
    nums, dens = [], []
    for a in residues:
        r0, r1, t0, t1 = _PRIME, a, 0, 1
        while r1 > _RECON_BOUND:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if abs(t1) > _RECON_BOUND or math.gcd(r1, t1) != 1:
            return None
        nums.append(r1 if t1 > 0 else -r1)
        dens.append(abs(t1))
    l = math.lcm(*dens)
    return [n * (l // d) for n, d in zip(nums, dens)]


def _packed_combinations(coeffs, packed, width):
    """The packed residues of sum c_j row_j for each coefficient row c,
    given the rows packed: fold(sum (c_j mod p) packed_j)."""
    _, lo, hi = _packing(width)
    return [_fold(sum([c % _PRIME * r for c, r in zip(row, packed) if c]), lo, hi)
            for row in coeffs]


def _annihilates(rows, vec):
    """Whether vec . rows is zero over Z: one dot product per column, over
    the rows where vec is nonzero."""
    coeffs, support = zip(*[(c, row) for c, row in zip(vec, rows) if c])
    return not any(sum(map(mul, coeffs, col)) for col in zip(*support))


def _certified_kernel(rest, width, exact, base=None):
    """A left kernel basis from one elimination mod p of packed rows,
    resuming base if given: one vector per zero row, lifted, and kept if
    exact(vec) holds over Z; None if a vector does not lift or fails."""
    size = len(rest) + (len(base[1]) if base else 0)
    pivots, mults, zero_rows, _ = _echelon_mod_p(rest, width, base)
    basis = []
    for i in zero_rows:
        support, residues = _left_kernel_mod_p(i, pivots, mults)
        coeffs = _lift(residues)
        if coeffs is None:
            return None
        vec = [0] * size
        for j, c in zip(support, coeffs):
            vec[j] = c
        if not exact(vec):
            return None
        basis.append(vec)
    return basis


def _modular_left_kernel(rows):
    """The left kernel basis of ``ExactMatrix.left_kernel`` from one
    elimination of the integer rows mod p, or None if a vector does not lift."""
    return _certified_kernel(_pack_mod_p(rows), len(rows[0]), functools.partial(_annihilates, rows))


def _bareiss(rows, n):
    """Single-step fraction-free elimination of integer rows over their
    first n columns, in place; returns the rank r of those columns.

    Afterwards rows r.. are zero in the first n columns, and each row is
    still an integer combination of the input rows.  Pivot rows are chosen
    by minimal bit length to slow coefficient growth; every division is
    exact, since every entry stays a minor of the input.
    """
    m = len(rows)
    width = len(rows[0]) if rows else 0
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = -1
        best = -1
        for i in range(r, m):
            e = rows[i][c]
            if e:
                bl = e.bit_length() if e > 0 else (-e).bit_length()
                if piv < 0 or bl < best:
                    piv, best = i, bl
                    if bl == 1:
                        break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, m):
            row = rows[i]
            e = row[c]
            if e:
                for j in range(c + 1, width):
                    row[j] = (p * row[j] - e * prow[j]) // prev
            elif p != prev:
                for j in range(c + 1, width):
                    row[j] = (p * row[j]) // prev
            row[c] = 0
        prev = p
        r += 1
    return r


def _bareiss_rank(rows):
    """Rank of an integer matrix by Bareiss elimination alone: the exact
    fallback of ``ExactMatrix.rank`` and the suites' independent oracle."""
    if not rows:
        return 0
    return _bareiss([[mpz(x) for x in row] for row in rows], len(rows[0]))


def _bareiss_left_kernel(rows):
    """Left kernel basis of integer rows M by Bareiss elimination of
    [M | I] over the columns of M.  A row left under the rank is t . [M | I]
    with t M = 0; those t are independent, since [M | I] has full row rank
    and elimination keeps it.  Each is divided by its content."""
    m, n = len(rows), len(rows[0])
    aug = [[mpz(x) for x in row] + [mpz(int(i == j)) for j in range(m)]
           for i, row in enumerate(rows)]
    r = _bareiss(aug, n)
    basis = []
    for row in aug[r:]:
        g = math.gcd(*row[n:])
        basis.append([int(x // g) for x in row[n:]])
    return basis


def random_unimodular(n, rng, shears=None):
    """Random integer matrix with determinant +-1 (small entries).

    Built from seeded row shears and a permutation, so conjugating by it
    preserves rank and splitting data while scrambling any visible block
    structure.
    """
    if n == 0:
        return ExactMatrix.zero(0, 0)
    if shears is None:
        shears = 2 * n + 2
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return ExactMatrix(n, n, rows)
