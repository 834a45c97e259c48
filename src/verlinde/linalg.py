"""Dense exact linear algebra over the integers.

``ExactMatrix`` holds ints only: a rational problem is made integral where
its matrix is built, and the forms' rational coefficients and their wire
format belong to ``polynomials``.  ``ExactMatrix.left_kernel`` is an
integer left kernel basis certified over Z from eliminations modulo primes
below 2**30 (``KernelStack.kernel``), and ``ExactMatrix.rank`` the number
of rows less its size.  Bareiss elimination is only the suites'
independent rank oracle.

Certification.  Eliminating the rows of M modulo p leaves zero rows Z; each
i in Z gives z with z M = 0 mod p, 1 at i and 0 on the rest of Z (z is
normalized).  Rank mod p is at most rank over Q, so |Z| >= dim ker M.  Each
z is lifted to Q by rational reconstruction and kept if it annihilates M
over Z; |Z| such vectors are independent, so they are a basis.  Otherwise
more primes follow, combined by CRT while they have the same Z: a prime
with more zero rows is skipped, one with fewer or others starts afresh.
``KernelStack.kernel`` runs this for the matrices [B ; L A] of a stack, B
eliminated once per prime per stack; a plain matrix is B alone.

Termination.  Let r = rank M and H >= |every minor of M| (Hadamard).  The
k-th pivot of elimination over Q in this order is D_k / D_(k-1), D_k a
nonzero k x k minor.  A prime dividing no D_k meets the same pivots and
zeros, so it has the Z of Q and the residues of its normalized vectors,
whose entries are n/d with |n|, d <= H (Cramer).  So at most
B = r ceil(log2 H / 29) primes above 2**29 are bad, and once G good primes
agree, with G 29 >= log2 H**2 + 2, their product passes 2 H**2 and every
vector lifts and passes its check.  A bad prime that starts afresh ends at
most one run of fewer than G good primes, so ArithmeticError is raised
after (B + 1) G primes, two at least.

Packing.  A matrix comes as its nonzero terms (``_dense``'s), and one
packer reads its rows (``_join``): each term's x is encoded once as the
bytes of a slot, and a row is one join of its slots and a shared zero
slot, so a mostly zero matrix costs its nonzeros.  A rank alone
(``_rank_mod_p``) and a ``KernelStack`` join x mod p0, p0 = 2**30 - c0 the
first prime, once: rows R.  While every |x| < 2**28, a slot of R is
p0 + x >= 2**29 exactly where x < 0, marked by N, so the exact rows are
E = R - p0 N and the residues mod p = 2**30 - c are R - (c - c0) N; else
each prime joins x mod p.  A lifted vector is checked over Z by one packed
sum (``_annihilates``) of the exact rows, joined again in wider slots when
it needs them: x + 2**(s-1) in s bits, less that offset (``_exact``).

The elimination takes each working row as one int of residues, updated
by one multiply-add of the pivot row's tail, folded under 2**31 (``_fold``)
if that row was updated.  A slot starts below 2**31 (a residue or a folded
sum) and an update adds (p - f) tail < 2**61, at most one per pivot; a
packed combination of u <= w rows sums u products below 2**60.  So no
slot carries if 2**31 + w 2**61 < 2**b, and b is the fewest whole bytes
with that (``_packing``): 64 bits up to w = 7, 72 up to 2047, 80 beyond,
one size for a resumed elimination and its base.  A row dead in its top
two slots is reduced exactly (``_residues``) and cleared above its highest
nonzero residue at once.  It keeps nonzero multipliers only, and resumes:
rows stacked below eliminated ones are reduced by the pivot records at or
below their tops, then among themselves: a ``KernelStack``'s new rows.
"""

from __future__ import annotations

import functools
import math
from operator import mul

try:
    from gmpy2 import mpz
except ImportError:  # pure-int fallback: same results, slower on large minors
    mpz = int

# The engine's first primes p = 2**30 - c, by c = 2**30 mod p, the packed
# rows' fold constant: the six within 2**7 of 2**30.  A residue is one
# 30-bit CPython digit, and a product of two fits in two.
_FOLDS = (35, 41, 83, 101, 105, 107)

__all__ = ["ExactMatrix", "KernelStack", "random_unimodular"]


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
        self.rows, self.cols, self.entries = rows, cols, data

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

    def rank(self):
        """Exact rank: rows less the size of the certified left kernel, with
        the matrix oriented so the short side is the rows."""
        m = self.transpose() if self.rows > self.cols else self
        return m.rows - len(m.left_kernel())

    def left_kernel(self):
        """Integer basis of the left kernel {z : z M = 0}, as row vectors:
        the normalized vectors of ``KernelStack.kernel``, scaled to Z."""
        if not self.entries:
            return []
        n, terms = min(self.rows, self.cols), [(x, i, j, (0,)) for i, row in enumerate(self.entries)
                                               for j, x in enumerate(row) if x]
        return list(KernelStack(0, self.rows, self.cols, terms).kernel([], 1, 1, n, n)[0].values())


@functools.cache
def _packing(width):
    """For ``width`` columns: the slot size b in bits, the fewest whole bytes
    with 2**31 + width 2**61 < 2**b (module docstring), and the masks of
    every slot's low 30 bits, of its higher bits and of its lowest bit."""
    size = ((2**31 + width * 2**61).bit_length() + 7) // 8
    return (8 * size, int.from_bytes((bytes(size - 4) + b"\x3f\xff\xff\xff") * width, "big"),
            int.from_bytes((b"\xff" * (size - 4) + b"\xc0\0\0\0") * width, "big"),
            int.from_bytes((bytes(size - 1) + b"\1") * width, "big"))


def _primes():
    """The fold constants c of the primes 2**30 - c in order: ``_FOLDS``,
    then every further prime above 2**29."""
    yield from _FOLDS
    for c in range(_FOLDS[-1] + 2, 2**29, 2):
        if _is_prime_fold(c):
            yield c


@functools.cache
def _is_prime_fold(c):
    """Whether 2**30 - c is prime, by trial division; tested once per c."""
    p = 2**30 - c
    return all(p % q for q in range(3, math.isqrt(p) + 1, 2))


@functools.cache
def _fold_rounds(c, bits):
    """Folds taking any slot of ``bits`` bits under 2**31, each taking one
    below b under 2**30 + c (b >> 30): for ``_FOLDS``, two at 64 and 72
    bits (72 -> 49, 31 bits), three at 80."""
    bound, rounds = 1 << bits, 0
    while bound > 1 << 31:
        bound, rounds = (1 << 30) + c * (bound >> 30), rounds + 1
    return rounds


def _fold(x, lo, hi, c, bits):
    """Fold each ``bits``-bit slot of x below 2**31, keeping it mod p = 2**30 - c
    (2**30 = c mod p: a slot lo + 2**30 hi becomes lo + c hi); the elimination
    folds only the tails of updated rows."""
    for _ in range(_fold_rounds(c, bits)):
        x = (x & lo) + c * ((x & hi) >> 30)
    return x


def _residues(x, width, c):
    """Every slot s of a packed row x reduced mod p = 2**30 - c: folded under
    2**31, then less p where s + c >= 2**30, in (2**31 - 1) // p passes."""
    (bits, lo, hi, ones), p = _packing(width), 2**30 - c
    x = _fold(x, lo, hi, c, bits)
    for _ in range((2**31 - 1) // p):
        s = (x + c * ones) >> 30
        x -= p * ((s | s >> 1) & ones)
    return x


def _echelon_mod_p(rest, width, c, base=None, keep=None):
    """Gaussian elimination modulo p = 2**30 - c of rows of packed residues,
    which it consumes.

    Returns the pivot rows in pivot order, each row's nonzero multipliers
    as (pivot number, f) pairs, the rows that reduced to zero, and the
    pivots' records (slot shift, tail, inverse).  Column 0 is a row's
    highest slot.  An update adds (p - f) times the pivot row's tail, its
    slots below the pivot column, folded under 2**31 only if that row was
    updated (else they are under it), and drops the eliminated slot; slots
    stay below 2**31 + width 2**61, so none carries (module docstring).
    The next pivot column is the highest top slot nonzero mod p, read off
    bit lengths; a top that is a multiple of p is cleared, and if the next
    is too, every slot above the row's highest nonzero residue (``_residues``)
    by one AND: the slots one clear a turn would reach, so the output is the
    same.  A base, the result for rows stacked above these, is resumed and
    left as it was: these rows, numbered after its own, are reduced by its
    records in order, skipping those above a row's top (no update raises
    it), freed of its pivot slots by one AND with keep, the mask of every
    other slot (shifts decrease, so none is read again; an earlier column
    may be nonzero here), then eliminated among themselves.
    """
    p = 2**30 - c
    bits, lo, hi, _ = _packing(width)
    slot = (1 << bits) - 1
    pivots, mults, zero_rows, records = base or ([], [], [], [])
    first = len(mults)
    pivots, mults, records = pivots[:], mults + [[] for _ in rest], records[:]
    grew = [False] * len(rest)
    if records:
        for i, row in enumerate(rest):
            top, pairs = row.bit_length(), mults[first + i]
            for k, (shift, tail, inv) in enumerate(records):
                if shift < top:
                    f = (row >> shift & slot) * inv % p
                    if f:
                        pairs.append((k, f))
                        row += (p - f) * tail
            rest[i], grew[i] = row & keep, bool(pairs)
    rest_idx = list(range(first, first + len(rest)))
    tops = [(row.bit_length() + bits - 1) // bits for row in rest]  # top slot, from 1 at the right
    while rest:
        t = max(tops)
        if not t:
            break
        at = tops.index(t)
        shift = bits * t - bits
        below = (1 << shift) - 1
        if not (rest[at] >> shift) % p:  # a top slot that is a multiple of p
            row = rest[at] & below
            n = (row.bit_length() + bits - 1) // bits
            if n and not (row >> bits * n - bits) % p:  # and the next: clear all dead slots
                n = (_residues(row, width, c).bit_length() + bits - 1) // bits
                row &= (1 << bits * n) - 1
            rest[at], tops[at] = row, n
            continue
        pivots.append(rest_idx.pop(at))
        del tops[at]
        row = rest.pop(at)
        tail = _fold(row & below, lo, hi, c, bits) if grew.pop(at) else row & below
        inv = pow(row >> shift, -1, p)
        records.append((shift, tail, inv))
        for i, n in enumerate(tops):
            if n == t:
                row = rest[i]
                f = (row >> shift) * inv % p
                if f:
                    mults[rest_idx[i]].append((len(pivots) - 1, f))
                rest[i] = row = (row & below) + (p - f) * tail if f else row & below
                tops[i], grew[i] = (row.bit_length() + bits - 1) // bits, grew[i] or f
    return pivots, mults, zero_rows + rest_idx, records


def _dense(count, width, terms, zero=0):
    """``count`` rows of ``width`` cells from nonzero terms (x, row, column,
    slots): x at (row + j, column + slots[j]) for each j, no cell twice,
    and zero elsewhere."""
    rows = [[zero] * width for _ in range(count)]
    for x, row, column, slots in terms:
        for i, j in enumerate(slots, row):
            rows[i][column + j] = x
    return rows


def _join(count, width, terms, code, m=1):
    """The rows of ``_dense``'s terms, each one int read from one join of its
    cells' slots of b m bits (b ``_packing``'s): code(x), encoded once for a
    term however many cells it fills, and code(0) in every other cell."""
    size = _packing(width)[0] // 8 * m
    grid = _dense(count, width, [(code(x).to_bytes(size, "big"), row, column, slots)
                                 for x, row, column, slots in terms], code(0).to_bytes(size, "big"))
    return [int.from_bytes(b"".join(r), "big") for r in grid]


def _exact(count, width, terms, m):
    """The rows of ``_dense``'s terms exactly in slots of s = b m bits, sum
    x_j 2**(s (w-1-j)) for |x| < 2**(s - 1): one join of the slots
    x + 2**(s - 1), less that offset in every slot."""
    size = _packing(width)[0] // 8 * m
    half = 1 << 8 * size - 1
    offset = half * int.from_bytes((bytes(size - 1) + b"\1") * width, "big")
    return [r - offset for r in _join(count, width, terms, half.__add__, m)]


def _rank_mod_p(count, width, terms):
    """Rank modulo the first prime p, at most that over Q, of the int rows
    of ``_dense``'s terms, read from one join of their slots x mod p."""
    c = _FOLDS[0]
    p = 2**30 - c
    return len(_echelon_mod_p(_join(count, width, terms, lambda x: x % p), width, c)[0])


def _left_kernel_mod_p(i, pivots, mults, p):
    """The normalized vector z mod p of zero row i (z . rows = 0), dense,
    one residue per row.

    Row i reduced to zero, so it is the sum of its multipliers times the
    reduced pivot rows; pivot row k is its own reduced row plus its
    multipliers times earlier reduced rows.  Solving that unit lower
    triangular system backwards, over the stored (pivot number, f) pairs,
    writes row i over the original pivot rows.  (A zero row of a resumed
    base has no multipliers for later pivots.)
    """
    acc = [0] * len(pivots)
    for k, f in mults[i]:
        acc[k] = f
    z = [0] * len(mults)
    z[i] = 1
    for k in range(len(pivots) - 1, -1, -1):
        y = acc[k]
        if y:
            z[pivots[k]] = p - y
            for j, f in mults[pivots[k]]:
                acc[j] = (acc[j] - y * f) % p
    return z


def _lift(residues, m):
    """Integer multiple of the vector of rationals n/d, |n|, d <= B =
    isqrt((m - 1) // 2), with these residues mod m (unique, as 2 B**2 < m);
    None if an entry has none.  Under a running common denominator D <= B,
    an entry with a D = x (mod m), |x| <= B, is x/D: one multiply-mod.
    Euclid's algorithm takes the others, and D grows to a multiple of
    their denominator."""
    bound = math.isqrt((m - 1) // 2)
    den, parts = 1, []
    for a in residues:
        x = a * den % m
        if x > m >> 1:
            x -= m
        if -bound <= x <= bound and den <= bound:
            parts.append((x, den))
            continue
        r0, r1, t0, t1 = m, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if abs(t1) > bound or math.gcd(r1, t1) != 1:
            return None
        parts.append((r1 if t1 > 0 else -r1, abs(t1)))
        den = math.lcm(den, t1)
    return [x * (den // d) for x, d in parts]


def _annihilates(stack, vec):
    """Whether vec . rows = 0 over Z for the rows of a ``KernelStack``, of
    entries at most top in size and b-bit slots.  In slots of b m bits,
    sum vec_i E_i = sum s_j 2**(b m (w-1-j)), s_j the column sums, |s_j| <=
    t = top sum |vec_i| (top, if vec = 0).  For the least m with t <
    2**(b m - 1), it is 0 only when every s_j is: at its lowest slot k with
    s_j != 0 it is s_j 2**(b m k) mod 2**(b m (k+1)), and 0 < |s_j| < 2**(b m)."""
    m = (stack.top * (sum(map(abs, vec)) or 1)).bit_length() // _packing(stack.width)[0] + 1
    return not sum(map(mul, vec, stack._exact_rows(m)))


def _hadamard_bits(n, top):
    """An int at least log2 of (top sqrt(n))**n: the Hadamard bound on the
    minors of an n-row or n-column matrix of entries at most top in size."""
    return n * (top.bit_length() + (n.bit_length() + 1) // 2)


class KernelStack:
    """The matrices M = [B ; L A], L = T / den, of fixed integer rows A and
    B of one width, and their left kernels certified over Z (module
    docstring).  [A ; B] is given as ``_dense``'s nonzero terms, its first
    ``split`` rows A, and packed once; per prime the stack keeps A's
    residues, B's echelon and its pivots' mask, so B is eliminated
    once per prime per stack: a kernel reduces only its new rows, L A mod p
    combined from A's residues, by B's pivot records and then among
    themselves."""

    __slots__ = ("split", "count", "width", "terms", "top", "first", "marks", "exact", "fields")

    def __init__(self, split, count, width, terms):
        self.split, self.count, self.width, self.terms = split, count, width, terms
        self.top = max([abs(t[0]) for t in terms], default=0)  # the largest |entry|
        self.first = _join(count, width, terms, lambda x: x % (2**30 - _FOLDS[0]))
        self.marks = None if self.top >= 2**28 else [r >> 29 & _packing(width)[3] for r in self.first]
        self.exact = {}  # by slot multiple m: the rows in slots of b m bits
        self.fields = {}  # by fold constant: A's residues, B's echelon and its mask

    def _rows_mod_p(self, c):
        """The rows' residues mod p = 2**30 - c, one int each: the first
        prime's R, or R - (c - c0) N, or with an entry of 2**28 or more in
        size one join of the slots x mod p (module docstring)."""
        if c == _FOLDS[0]:
            return self.first
        if self.marks is None:
            return _join(self.count, self.width, self.terms, lambda x: x % (2**30 - c))
        return [r - (c - _FOLDS[0]) * n for r, n in zip(self.first, self.marks)]

    def _exact_rows(self, m):
        """The rows exactly in slots of b m bits, made once per m: R - p0 N
        at m = 1 when N is known, else joined from the terms (``_exact``)."""
        if m not in self.exact:
            self.exact[m] = ([r - (2**30 - _FOLDS[0]) * n for r, n in zip(self.first, self.marks)]
                             if m == 1 and self.marks is not None else
                             _exact(self.count, self.width, self.terms, m))
        return self.exact[m]

    def kernel(self, T, den, k, minors, size):
        """A basis of the left kernel of M = [B ; (T / den) A] (T rows of
        one int per row of A, None for L = I; den >= 1) certified over Z, as
        {zero row: vector}, and the fold constants of the primes lifted from.

        Each z = (y, c), y on B's rows, is a multiple of the normalized
        vector.  Primes come in the order of ``_primes``, those dividing den
        passed over; lifting starts once k agree, and a prime with no zero
        row returns the empty basis (rank mod p <= rank over Q).  Each
        unresolved zero row i keeps crt[i], its vector's residues modulo m,
        the agreeing primes' product, and each agreeing prime is folded in
        once by CRT; a prime with other zero rows starts afresh.  A lifted z is checked by one
        packed sum, den z M = (c T, den y) [A ; B] = 0.  Every bad prime
        divides one of ``minors`` nonzero minors, each below the Hadamard
        bound of ``size`` rows of A's and B's largest entry, read off the
        terms: ArithmeticError is raised past the module docstring's number
        of primes, with G >= k, two at least."""
        split, width, y_len = self.split, self.width, self.count - self.split
        bits, lo, hi, _ = _packing(width)
        cols = None if T is None else list(zip(*T)) or [()] * split
        used, cap = [], 2
        for tried, c in enumerate(_primes()):
            if tried == 2:
                top = _hadamard_bits(size, self.top)
                cap = (minors * -(-top // 29) + 1) * max(k, (2 * top + 30) // 29)
            if tried >= cap:
                break
            p = 2**30 - c
            if not den % p:
                continue
            if c not in self.fields:
                residues = self._rows_mod_p(c)
                base = _echelon_mod_p(residues[split:], width, c)
                keep = (1 << bits * width) - 1 - sum(((1 << bits) - 1) << s for s, _, _ in base[3])
                self.fields[c] = (residues[:split], base, keep)  # keep: all but B's pivot slots
            pa, base, keep = self.fields[c]
            if T is None:
                new = pa[:]
            else:
                inv = pow(den, -1, p)
                new = [_fold(sum(map(mul, [x * inv % p for x in row], pa)), lo, hi, c, bits)
                       for row in T]
            pivots, mults, zero_rows, _ = _echelon_mod_p(new, width, c, base, keep) if new else base
            if used and len(zero_rows) > len(zeros):
                continue
            if not used or zero_rows != zeros:
                used, basis, crt, m, zeros = [], {}, {}, 1, zero_rows
            f = pow(m, -1, p)
            for i in zero_rows[len(basis):]:  # basis holds a prefix of zero_rows
                z = _left_kernel_mod_p(i, pivots, mults, p)
                crt[i] = [a + m * ((b - a) * f % p) for a, b in zip(crt[i], z)] if used else z
            used.append(c)
            m *= p
            if len(used) < k and zero_rows:  # no zero row: rank = rows over Q
                continue
            for i in zero_rows[len(basis):]:
                vec = _lift(crt[i], m)
                if vec is None:
                    break
                y, v = vec[:y_len], vec[y_len:]
                if cols is not None:
                    v = [sum(map(mul, v, col)) for col in cols]
                if not _annihilates(self, v + [den * x for x in y]):
                    break
                basis[i] = vec
            else:
                return basis, used
        raise ArithmeticError("no kernel certified within the proven number of primes")


def _bareiss(rows, n):
    """Single-step fraction-free elimination of integer rows over their
    first n columns, in place; returns the rank r of those columns.

    Afterwards rows r.. are zero in the first n columns, and each row is
    still an integer combination of the input rows.  Pivot rows are chosen
    by minimal bit length to slow coefficient growth; every division is
    exact, since every entry stays a minor of the input.
    """
    m, width, prev, r = len(rows), len(rows[0]) if rows else 0, 1, 0
    for c in range(n):
        if r == m:
            break
        piv = best = -1
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
    """Rank of an integer matrix by Bareiss elimination alone: the suites'
    independent oracle."""
    if not rows:
        return 0
    return _bareiss([[mpz(x) for x in row] for row in rows], len(rows[0]))


def random_unimodular(n, rng):
    """Random integer matrix with determinant +-1 (small entries).

    Built from 2n + 2 seeded row shears and a permutation, so conjugating
    by it preserves rank and splitting data while scrambling any visible
    block structure.
    """
    if n == 0:
        return ExactMatrix.zero(0, 0)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return ExactMatrix(n, n, rows)
