"""Homogeneous polynomials over Q with a fixed global monomial order.

Coefficients are exact scalars in the normal form of ``linalg.scalar``
(int when integral, Fraction otherwise).

The monomial order is graded lexicographic with x0 > x1 > ... > xn,
descending, and every matrix in the package indexes its rows and columns
by this order, so all computations are reproducible bit for bit.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache

from .linalg import ExactMatrix, int_from_json, scalar, scalar_from_json

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
]

COEFF_BOUND = 50  # default range for random integer coefficients


class DegenerateSubstitutionError(RuntimeError):
    """Every sampled line substitution killed both forms."""


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
    nonzero coefficients in normal form (int when integral, else Fraction)."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars, degree, terms=None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for mono, coeff in (terms or {}).items():
            # from a list, not a generator: a tuple built from a generator is
            # allocated at a guessed length and resized, and the freed blocks
            # pile up on CPython's per-length tuple free lists
            mono = tuple([int(e) for e in mono])
            if len(mono) != num_vars:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {num_vars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} has degree {sum(mono)}, expected {degree}")
            clean[mono] = clean.get(mono, 0) + scalar(coeff)
        self.num_vars = num_vars
        self.degree = degree
        self.terms = {m: scalar(c) for m, c in clean.items() if c}

    @classmethod
    def zero(cls, num_vars, degree=0):
        return cls(num_vars, degree, {})

    @classmethod
    def monomial(cls, num_vars, exponents, coeff=1):
        return cls(num_vars, sum(exponents), {tuple(exponents): coeff})

    @classmethod
    def variable(cls, num_vars, i):
        exps = [0] * num_vars
        exps[i] = 1
        return cls.monomial(num_vars, exps)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def n(self):
        """Dimension of the ambient projective space (num_vars - 1)."""
        return self.num_vars - 1

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0)

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
        return HomogeneousPolynomial(self.num_vars, self.degree, terms)

    def __neg__(self):
        return HomogeneousPolynomial(self.num_vars, self.degree,
                                     {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = scalar(c)
        if not c:
            return HomogeneousPolynomial.zero(self.num_vars, self.degree)
        return HomogeneousPolynomial(self.num_vars, self.degree,
                                     {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        self._check_compatible(other)
        deg = self.degree + other.degree
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple([a + b for a, b in zip(m1, m2)])
                terms[m] = terms.get(m, 0) + c1 * c2
        return HomogeneousPolynomial(self.num_vars, deg, terms)

    __rmul__ = __mul__

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
                raw_exps = term["e"]
                if not isinstance(raw_exps, list):
                    raise ValueError("exponents must be a list")
                exps = tuple([int_from_json(e) for e in raw_exps])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"term {pos}: unreadable ({exc})") from exc
            if len(exps) != n + 1:
                raise ValueError(f"term {pos}: expected {n + 1} exponents, got {len(exps)}")
            if any(e < 0 for e in exps):
                raise ValueError(f"term {pos}: negative exponent in {list(exps)}")
            if sum(exps) != degree:
                raise ValueError(
                    f"term {pos}: exponents {list(exps)} sum to {sum(exps)}, expected degree {degree}")
            terms[exps] = terms.get(exps, 0) + coeff
        return cls(n + 1, degree, terms)

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
    n = f.n
    src = monomial_basis(n, src_deg)
    dst_index = basis_index(n, src_deg + f.degree)
    grid = [[0] * len(src) for _ in range(len(dst_index))]
    for j, theta in enumerate(src):
        for m, c in f.terms.items():
            target = tuple([a + b for a, b in zip(m, theta)])
            grid[dst_index[target]][j] += c
    return ExactMatrix(len(dst_index), len(src), grid)


def _binary_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def restrict_to_line(f, subst):
    """Restrict f along x_i = a_i*s + b_i*t, given subst as the sequence of
    (a_i, b_i) pairs; returns a binary form in (s, t), homogeneous of
    degree deg f or zero."""
    pairs = [(scalar(a), scalar(b)) for a, b in subst]
    if len(pairs) != f.num_vars:
        raise ValueError(f"substitution must give all {f.num_vars} variables")
    d = f.degree
    # coeffs[j] = coefficient of s^(d-j) t^j
    coeffs = [0] * (d + 1)
    for m, c in f.terms.items():
        prod = [c]
        for (a, b), e in zip(pairs, m):
            for _ in range(e):
                prod = _binary_mul(prod, [a, b])
        for j, v in enumerate(prod):
            coeffs[j] += v
    terms = {(d - j, j): v for j, v in enumerate(coeffs) if v}
    return HomogeneousPolynomial(2, d, terms)


def binary_coeffs(f):
    """Dense (s, t) coefficient list of a binary form, s-power descending."""
    if f.num_vars != 2:
        raise ValueError("not a binary form")
    d = f.degree
    out = [0] * (d + 1)
    for (_, j), c in f.terms.items():
        out[j] = c
    return out


def _univariate_mod(a, b):
    """Remainder of dense coefficient lists (descending powers, lead nonzero)."""
    a = a[:]
    while len(a) >= len(b) and any(a):
        while a and not a[0]:
            a.pop(0)
        if len(a) < len(b):
            break
        q = Fraction(a[0], b[0])  # not a[0] / b[0]: that is a float on ints
        for i in range(len(b)):
            a[i] -= q * b[i]
        a.pop(0)
    while a and not a[0]:
        a.pop(0)
    return a


def _univariate_gcd_degree(a, b):
    while b:
        a, b = b, _univariate_mod(a, b)
    return len(a) - 1


def _binary_gcd_degree(c1, c2):
    """deg gcd of two binary forms given as dense (s,t)-coefficient lists.

    Powers of s and t dividing each form are tracked separately before
    running Euclid on the dehomogenized cores, so no degree is lost at
    s = 0 or at infinity.
    """
    z1 = not any(c1)
    z2 = not any(c2)
    if z1 and z2:
        raise ValueError("gcd of two zero forms")
    if z1:
        return len(c2) - 1
    if z2:
        return len(c1) - 1

    def split(c):
        nz = [j for j, v in enumerate(c) if v]
        first, last = nz[0], nz[-1]
        s_power = len(c) - 1 - last
        t_power = first
        core = c[first:last + 1]  # univariate in s/t, descending, ends nonzero
        return s_power, t_power, core

    s1, t1, core1 = split(c1)
    s2, t2, core2 = split(c2)
    return min(s1, s2) + min(t1, t2) + _univariate_gcd_degree(core1, core2)


def gcd_degree(f1, f2, trials=3, seed=0, bound=COEFF_BOUND, _retries=16):
    """Monte Carlo degree of gcd(f1, f2) via random line restrictions.

    Each trial restricts both forms to a random rational line and takes the
    exact gcd degree of the two binary restrictions; the reported value is
    the minimum over trials.  It is always >= the true gcd degree, with
    equality off a proper closed locus of substitutions, so the error
    probability vanishes with independent trials.
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
    best = None
    for trial in range(trials):
        value = None
        for attempt in range(_retries):
            rng = random.Random(f"{seed}:gcd:{trial}:{attempt}")
            pairs = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                     for _ in range(f1.num_vars)]
            r1 = binary_coeffs(restrict_to_line(f1, pairs))
            r2 = binary_coeffs(restrict_to_line(f2, pairs))
            if not any(r1) and not any(r2):
                continue
            value = _binary_gcd_degree(r1, r2)
            break
        if value is None:
            raise DegenerateSubstitutionError("degenerate substitution")
        best = value if best is None else min(best, value)
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
    seen_degrees = set()
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
        term_degree = sum(exps)
        if degree is not None and term_degree != degree:
            raise ValueError(
                f"term {chunk!r} has degree {term_degree}, expected {degree}")
        seen_degrees.add(term_degree)
        if len(seen_degrees) > 1:
            raise ValueError(f"term {chunk!r} breaks homogeneity: degrees {sorted(seen_degrees)}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    final_degree = degree if degree is not None else seen_degrees.pop()
    return HomogeneousPolynomial(n + 1, final_degree, terms)


def random_form(n, degree, rng, bound=COEFF_BOUND, _retries=64):
    """Random nonzero degree-`degree` form with integer coefficients in [-bound, bound]."""
    basis = monomial_basis(n, degree)
    for _ in range(_retries):
        terms = {}
        for m in basis:
            c = rng.randint(-bound, bound)
            if c:
                terms[m] = c
        if terms:
            return HomogeneousPolynomial(n + 1, degree, terms)
    raise RuntimeError("failed to sample a nonzero form")
