"""Homogeneous polynomials over Q with a fixed global monomial order.

Coefficients are exact scalars in the normal form of ``scalar`` (int when
integral, Fraction otherwise); it and the forms' JSON wire format live here
alone.  The per-line kernels clear denominators and run on ints: a line
restriction is one packed big-int evaluation, and the gcd oracle a
primitive remainder sequence over Z.

The monomial order is graded lexicographic with x0 > x1 > ... > xn,
descending, and every matrix in the package indexes its rows and columns
by this order, so all computations are reproducible bit for bit.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd, lcm, prod
from operator import mul

from .linalg import ExactMatrix

__all__ = [
    "HomogeneousPolynomial",
    "DegenerateSubstitutionError",
    "monomial_basis",
    "basis_index",
    "mult_matrix",
    "restrict_to_line",
    "gcd_degree",
    "random_form",
    "parse_form",
    "scalar",
]

COEFF_BOUND = 50  # range of random integer coefficients and of gcd_degree's substitutions
_GCD_RETRIES = 16  # substitutions a gcd trial draws before giving up on a degenerate one
_FORM_RETRIES = 64  # draws random_form makes before giving up on a zero form


class DegenerateSubstitutionError(RuntimeError):
    """Every sampled line substitution killed both forms."""


def scalar(x):
    """The normal form of an exact value: an int when it is integral, else a
    Fraction.  Reads what ``Fraction`` does (ints, Fractions, "3/2") but
    refuses a float (ValueError) rather than read its binary fraction."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise ValueError(f"inexact scalar {x!r}")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_JSON_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def int_from_json(x):
    """A JSON integer as an int; ValueError for anything else (2.5, 2.0, a bool, a string)."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def scalar_from_json(x):
    """An exact scalar from its JSON form: an integer, or a string "p" or
    "p/q" with q nonzero; ValueError for anything else, a float included."""
    if type(x) is int:
        return x
    if isinstance(x, str) and _JSON_SCALAR_RE.fullmatch(x):
        try:
            return scalar(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"expected an integer or a \"p/q\" string, got {x!r}")


@lru_cache(maxsize=None)
def _compositions(nvars, total):
    if nvars == 1:
        return ((total,),)
    return tuple((e,) + rest
                 for e in range(total, -1, -1)
                 for rest in _compositions(nvars - 1, total - e))


def monomial_basis(n, m):
    """All degree-m monomials in x0..xn as exponent tuples, graded-lex order.

    Returns the empty tuple for m < 0 (the zero graded piece); the length
    for m >= 0 is C(m+n, n).
    """
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if m < 0:
        return ()
    return _compositions(n + 1, m)


@lru_cache(maxsize=None)
def basis_index(n, m):
    """Monomial -> position map for monomial_basis(n, m)."""
    return {mono: i for i, mono in enumerate(monomial_basis(n, m))}


class HomogeneousPolynomial:
    """Homogeneous form over Q, stored as a sparse map from monomials to
    nonzero coefficients in normal form (int when integral, else Fraction).
    Outside input is checked, by ``__init__`` (int exponents, no bools;
    coefficients as ``scalar`` reads them, no floats) or term by term in
    ``from_json``; the package's own builders hand ``_of_terms`` their terms.
    ``+`` and ``*`` take two forms, ``scale`` a scalar: f - g is ``f + g.scale(-1)``."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars, degree, terms=None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = _exponents(mono, num_vars, degree)
            clean[mono] = clean.get(mono, 0) + scalar(coeff)
        self.num_vars = num_vars
        self.degree = degree
        self.terms = {m: scalar(c) for m, c in clean.items() if c}

    @classmethod
    def _of_terms(cls, num_vars, degree, terms):
        """A fresh dict of terms its caller built in normal form (int
        exponent tuples of length num_vars summing to degree, each
        coefficient a nonzero int or a non-integral Fraction), taken as it is."""
        f = object.__new__(cls)
        f.num_vars, f.degree, f.terms = num_vars, degree, terms
        return f

    @property
    def is_zero(self):
        return not self.terms

    @property
    def n(self):
        """Dimension of the ambient projective space (num_vars - 1)."""
        return self.num_vars - 1

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        if self.num_vars != other.num_vars or self.terms != other.terms:
            return False
        return self.is_zero or self.degree == other.degree

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def _check_compatible(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("mismatched number of variables")

    def __add__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return HomogeneousPolynomial._of_terms(self.num_vars, self.degree, _normal(terms))

    def scale(self, c):
        c = scalar(c)
        if c == 1:
            return self
        terms = _normal({m: c * v for m, v in self.terms.items()}) if c else {}
        return HomogeneousPolynomial._of_terms(self.num_vars, self.degree, terms)

    def __mul__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        self._check_compatible(other)
        n, d1, d2 = self.n, self.degree, other.degree
        targets = _mult_targets(n, d1, d2)
        right = [(j, c) for j, m in enumerate(_compositions(n + 1, d2)) if (c := other.terms.get(m))]
        terms = {}
        for m, c1 in self.terms.items():
            row = targets[m]
            for j, c2 in right:
                terms[row[j]] = terms.get(row[j], 0) + c1 * c2
        monomial = _compositions(n + 1, d1 + d2)
        return HomogeneousPolynomial._of_terms(self.num_vars, d1 + d2,
                                               {monomial[i]: c for i, c in _normal(terms).items()})

    def coeff_vector(self):
        """Dense coefficient list in monomial_basis order."""
        idx = basis_index(self.n, self.degree)
        vec = [0] * len(idx)
        for m, c in self.terms.items():
            vec[idx[m]] = c
        return vec

    def sorted_terms(self):
        idx = basis_index(self.n, self.degree)
        return sorted(self.terms.items(), key=lambda mc: idx[mc[0]])

    def to_json(self):
        return {
            "n": self.n,
            "degree": self.degree,
            "terms": [{"c": str(c), "e": list(m)} for m, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj):
        """Parse the polynomial wire format, rejecting malformed terms.

        ``n``, ``degree`` and the exponents must be JSON integers and each
        coefficient an integer or a "p/q" string; anything else, a float
        included, raises ValueError.
        """
        try:
            n = int_from_json(obj["n"])
            degree = int_from_json(obj["degree"])
            raw_terms = obj["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial object: {exc}") from exc
        if not isinstance(raw_terms, list):
            raise ValueError(f"malformed polynomial object: terms must be a list, "
                             f"got {type(raw_terms).__name__}")
        if n < 1 or degree < 0:
            raise ValueError(f"invalid dimensions n={n}, degree={degree}")
        terms = {}
        for pos, term in enumerate(raw_terms):
            try:
                coeff = scalar_from_json(term["c"])
                if not isinstance(term["e"], list):
                    raise ValueError("exponents must be a list")
                exps = _exponents(term["e"], n + 1, degree)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"term {pos}: {exc}") from exc
            terms[exps] = terms.get(exps, 0) + coeff
        return cls._of_terms(n + 1, degree, _normal(terms))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [f"x{i}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(m) if e]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"HomogeneousPolynomial({self})"


def _exponents(mono, num_vars, degree):
    """mono as a tuple of num_vars int exponents (no bools), none negative,
    summing to degree; ValueError naming the first of these it breaks."""
    mono = tuple(mono)
    if any(type(e) is not int for e in mono):
        raise ValueError(f"exponents {list(mono)} must be ints")
    if len(mono) != num_vars:
        raise ValueError(f"expected {num_vars} exponents, got {len(mono)}")
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in {list(mono)}")
    if sum(mono) != degree:
        raise ValueError(f"exponents {list(mono)} sum to {sum(mono)}, expected degree {degree}")
    return mono


def _normal(terms):
    """Freshly summed or multiplied terms in normal form: zeros dropped and
    integral Fractions made ints (all-int terms skip that step)."""
    if set(map(type, terms.values())) <= {int}:
        return {m: c for m, c in terms.items() if c}
    return {m: scalar(c) for m, c in terms.items() if c}


@lru_cache(maxsize=None)
def _mult_targets(n, deg, src_deg):
    """Degree-deg monomial m -> [position of m*theta in monomial_basis(n, src_deg + deg),
    for theta in monomial_basis(n, src_deg)]; n = 0 too, for forms in one variable."""
    dst_index = {m: i for i, m in enumerate(_compositions(n + 1, src_deg + deg))}
    return {m: [dst_index[tuple([a + b for a, b in zip(m, theta)])]
                for theta in _compositions(n + 1, src_deg)] for m in _compositions(n + 1, deg)}


def mult_matrix(f, src_deg):
    """Matrix of multiplication by f from degree src_deg to src_deg + deg f.

    Rows and columns are indexed by monomial_basis; the map sends a basis
    monomial t to f*t.  Shape is C(src+deg f+n, n) x C(src+n, n).
    f must have integer coefficients, since ExactMatrix holds only ints:
    scale a rational form by the lcm of its denominators first, as
    ``family.verlinde_pencil`` does; otherwise ValueError.
    """
    if src_deg < 0:
        raise ValueError("source degree must be nonnegative")
    if not set(map(type, f.terms.values())) <= {int}:
        raise ValueError(f"mult_matrix needs integer coefficients, got {f}")
    targets = _mult_targets(f.n, f.degree, src_deg)
    rows, cols = comb(src_deg + f.degree + f.n, f.n), comb(src_deg + f.n, f.n)
    grid = [[0] * cols for _ in range(rows)]
    for m, c in f.terms.items():  # distinct monomials of f hit distinct rows of a column
        for j, i in enumerate(targets[m]):
            grid[i][j] = c
    return ExactMatrix(rows, cols, grid)


def _cleared(values):
    """(c, c*values as ints), c the lcm of the values' denominators.

    When every value is an int that is (1, values), the caller's own list,
    so the caller must not mutate the one while it uses the other."""
    if set(map(type, values)) <= {int}:
        return 1, values
    c = lcm(*[v.denominator for v in values])
    return c, [v.numerator * (c // v.denominator) for v in values]


def _integral(f):
    """c*f, c the lcm of the denominators of f's coefficients (f itself when integral)."""
    return f.scale(_cleared(list(f.terms.values()))[0])


def _restricted_slots(forms, ab):
    """[g_0, ..., g_d] for each form f of forms, integral and of one degree
    d: sum_j g_j*tau^j = f(A + B*tau) along integer pairs ab = [(A_i, B_i)].
    One table of powers at tau = 2**S serves every form; each f(A + B*2**S)
    holds g in d+1 S-bit slots, offset by 2**(S-1) into [0, 2**S), as
    |g_j| <= sum|c|*max(|A_i|+|B_i|)^d < 2**(S-2)."""
    d = forms[0].degree
    top = max(sum(map(abs, f.terms.values())) for f in forms)
    S = (top * max(abs(a) + abs(b) for a, b in ab) ** d).bit_length() + 2
    # powers[i][e] = x_i^e at tau = 2**S
    powers = [list(accumulate(repeat(a + (b << S), d), mul, initial=1)) for a, b in ab]
    half, mask = 1 << S - 1, (1 << S) - 1
    offset = half * sum(1 << S * j for j in range(d + 1))
    values = [offset + sum([c * prod(map(list.__getitem__, powers, m)) for m, c in f.terms.items()])
              for f in forms]
    return [[(v >> S * j & mask) - half for j in range(d + 1)] for v in values]


def restrict_to_line(f, subst):
    """Restrict f along x_i = a_i*s + b_i*t, given subst as the (a_i, b_i)
    pairs: by homogeneity, sum_j g_j*s^(d-j)*t^j/(c_f*c_s^d), g the
    ``_restricted_slots`` of c_f*f along c_s*(a, b), c_f and c_s the lcms
    of the denominators of f and of the pairs.  Of degree deg f or zero."""
    pairs = [(scalar(a), scalar(b)) for a, b in subst]
    if len(pairs) != f.num_vars:
        raise ValueError(f"substitution must give all {f.num_vars} variables")
    d = f.degree
    c_f = _cleared(list(f.terms.values()))[0]
    c_s, ab = _cleared([v for pair in pairs for v in pair])
    den = c_f * c_s**d
    slots = _restricted_slots([f.scale(c_f)], list(zip(ab[::2], ab[1::2])))[0]
    terms = {(d - j, j): g if den == 1 else scalar(Fraction(g, den))
             for j, g in enumerate(slots) if g}
    return HomogeneousPolynomial._of_terms(2, d, terms)


def _univariate_gcd_degree(a, b):
    """deg gcd of integer polynomials (dense, descending, leading term
    nonzero) by the primitive pseudo-remainder sequence.  The pseudo-
    remainder lc(b)^(deg a - deg b + 1)*a mod b is that power of lc(b)
    times Euclid's remainder over Q (division with remainder is unique),
    and dividing out its content keeps it a nonzero rational multiple; as
    rem(x*a, y*b) = x*rem(a, b), every step's remainder is a nonzero
    multiple of Euclid's, so the degree sequence is Euclid's (Gauss's
    lemma: up to content, the gcd over Z is the gcd over Q)."""
    while b:
        lead, size = b[0], len(b)
        while len(a) >= size:
            q = a[0]
            a = [lead * x - q * y for x, y in zip(a[1:], b[1:])] + [lead * x for x in a[size:]]
        while a and not a[0]:
            a.pop(0)
        content = gcd(*a)
        a, b = b, [x // content for x in a]
    return len(a) - 1


def _binary_gcd_degree(c1, c2):
    """deg gcd of two binary forms given as dense (s,t)-coefficient lists.

    Powers of s and t dividing each form are tracked separately before
    running the remainder sequence on the dehomogenized cores, cleared to
    integers, so no degree is lost at s = 0 or at infinity.
    """
    if not any(c1) or not any(c2):  # gcd(0, g) = g; gcd_degree skips two zeros
        return len(c1) - 1

    def split(c):
        nz = [j for j, v in enumerate(c) if v]
        # s-power, t-power, and the core: univariate in s/t, descending, ends nonzero
        return len(c) - 1 - nz[-1], nz[0], _cleared(c[nz[0]:nz[-1] + 1])[1]

    s1, t1, core1 = split(c1)
    s2, t2, core2 = split(c2)
    return min(s1, s2) + min(t1, t2) + _univariate_gcd_degree(core1, core2)


def gcd_degree(f1, f2, trials=3, seed=0):
    """Monte Carlo degree of gcd(f1, f2) via random line restrictions.

    Each trial restricts both forms to a random rational line and takes the
    exact gcd degree of the two binary restrictions; the reported value is
    the minimum over trials.  It is always >= the true gcd degree, with
    equality off a proper closed locus of substitutions, so the error
    probability vanishes with independent trials.

    The floor: if the gcd's restriction vanishes, so do both forms', a
    substitution the retries skip; otherwise it is a binary form of the
    gcd's degree dividing both restrictions.  So every trial reads at
    least the true degree, and a trial that reads 0 has proved the answer.
    The trials stop there: ``trials`` is the most that run.  Each trial
    seeds its own generator from (seed, trial, attempt), so the trials
    that do run draw what they would draw in a full run, and the value is
    the full run's minimum.  The one difference: DegenerateSubstitutionError
    (``_GCD_RETRIES`` substitutions in a row on which both forms vanish) comes
    only from a trial that runs, so a later trial that would have raised
    it no longer does.
    """
    if f1.is_zero or f2.is_zero:
        raise ValueError("gcd_degree needs nonzero forms")
    if f1.num_vars != f2.num_vars:
        raise ValueError("mismatched number of variables")
    if f1.degree != f2.degree:
        raise ValueError("forms must have equal degree")
    if f1.n < 2:
        raise ValueError("ambient dimension must be >= 2")
    if trials < 1:
        raise ValueError(f"gcd oracle needs trials >= 1, got {trials}")
    best = f1.degree
    # made integral once: r_i is den times restrict_to_line's (s, t) coefficients, same gcd degree
    forms = [_integral(f1), _integral(f2)]
    for trial in range(trials):
        for attempt in range(_GCD_RETRIES):
            rng = random.Random(f"{seed}:gcd:{trial}:{attempt}")
            pairs = [(_draw(rng, COEFF_BOUND), _draw(rng, COEFF_BOUND))
                     for _ in range(f1.num_vars)]
            r1, r2 = _restricted_slots(forms, pairs)
            if any(r1) or any(r2):
                break
        else:
            raise DegenerateSubstitutionError("degenerate substitution")
        best = min(best, _binary_gcd_degree(r1, r2))
        if best == 0:
            break
    return best


_COEFF_RE = re.compile(r"^\d+(?:/\d*[1-9]\d*)?$")  # no zero denominator
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_form(text, n, degree=None):
    """Parse the inline grammar 'c*x0^a*x1^b + ...' with rational c.

    Terms are '+'/'-' separated products of an optional fraction and
    variable powers.  Every term must have the same total degree (and
    match `degree` when supplied); variables beyond x`n` are rejected.
    Round-trips losslessly with str() and the JSON wire format.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    terms = {}
    for chunk in re.split(r"(?=[+-])", s):
        if not chunk:
            continue
        body = chunk
        sign = 1
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign, body = -1, body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * (n + 1)
        for factor in body.split("*"):
            if _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"unreadable factor {factor!r} in term {chunk!r}")
            idx = int(m.group(1))
            if idx > n:
                raise ValueError(f"variable x{idx} out of range in term {chunk!r} (n = {n})")
            exps[idx] += int(m.group(2) or 1)
        if degree is None:
            degree = sum(exps)  # the first term's; the constructor refuses the rest
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return HomogeneousPolynomial(n + 1, degree, terms)


def _draw(rng, bound):
    """rng.randint(-bound, bound) by the getrandbits calls it makes on
    CPython 3.11, without its randrange and _randbelow frames."""
    size = 2 * bound + 1
    r = rng.getrandbits(size.bit_length())
    while r >= size:
        r = rng.getrandbits(size.bit_length())
    return r - bound


def random_form(n, degree, rng, bound=COEFF_BOUND):
    """Random nonzero degree-`degree` form with integer coefficients in [-bound, bound]."""
    basis = monomial_basis(n, degree)
    for _ in range(_FORM_RETRIES):
        terms = {m: c for m in basis if (c := _draw(rng, bound))}
        if terms:
            return HomogeneousPolynomial._of_terms(n + 1, degree, terms)
    raise RuntimeError("failed to sample a nonzero form")
