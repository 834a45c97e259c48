import functools
import importlib
import math
import struct
import sys
from fractions import Fraction
from operator import mul

import pytest

from verlinde import linalg


def naive_rank(matrix):
    """Plain Gaussian elimination over Fraction; independent of the
    package's rank engine (certified eliminations modulo word-size primes)."""
    rows = [[Fraction(x) for x in row] for row in matrix.entries]
    rank = 0
    cols = matrix.cols
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def bareiss_left_kernel(rows):
    """The kernel reference: a left kernel basis of integer rows M by
    Bareiss elimination of [M | I] over the columns of M.  A row left under
    the rank is t . [M | I] with t M = 0; those t are independent, since
    [M | I] has full row rank and elimination keeps it.  Each is divided by
    its content."""
    m, n = len(rows), len(rows[0])
    aug = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    r = linalg._bareiss(aug, n)
    return [[x // math.gcd(*row[n:]) for x in row[n:]] for row in aug[r:]]


def per_entry_pack_mod_p(rows, c):
    """The per-entry reference of ``linalg.KernelStack``'s residues: each
    entry reduced by x % p, p = 2**30 - c, into its own slot of
    ``linalg._packing``'s size, one int per row."""
    p = 2**30 - c
    pad = linalg._packing(len(rows[0]))[0] // 8 - 4
    packer = struct.Struct(">" + f"{pad}xI" * len(rows[0]))
    return [int.from_bytes(packer.pack(*[x % p for x in row]), "big") for row in rows]


def entry_terms(rows):
    """``linalg._dense``'s terms of int rows: one per nonzero entry."""
    return [(x, i, j, (0,)) for i, row in enumerate(rows) for j, x in enumerate(row) if x]


def stack_of(rows, split=0):
    """The ``linalg.KernelStack`` of nonempty int rows, its first split rows A."""
    return linalg.KernelStack(split, len(rows), len(rows[0]), entry_terms(rows))


def dense_annihilates(rows, vec):
    """The check ``linalg._annihilates`` replaced: whether vec . rows is
    zero over Z, one dot product per column."""
    return not any(sum(map(mul, vec, col)) for col in zip(*rows))


def binary_coeffs(f):
    """A binary form's dense (s, t) coefficient list, s-power descending."""
    return [f.terms.get((f.degree - j, j), 0) for j in range(f.degree + 1)]


def primes_used(echelons):
    """How many primes the recorded ``_echelon_mod_p`` calls eliminated by."""
    return len({args[2] for args in echelons})


@pytest.fixture
def spy(monkeypatch):
    """spy("module.name") wraps ``verlinde.<module>.<name>``, a function or a
    method ("module.Class.method"), wherever a ``verlinde`` module holds
    it, and returns the list of the positional arguments of each call, as
    passed (a method's first is its instance)."""
    def watch(path):
        head, *attrs = path.split(".")
        owner = importlib.import_module(f"verlinde.{head}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        name, calls = attrs[-1], []
        original = getattr(owner, name)

        @functools.wraps(original)
        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "verlinde"]:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
        return calls
    return watch
