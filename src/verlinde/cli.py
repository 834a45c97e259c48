"""Command-line surface: split, jumping-class, verify.

All machine output is UTF-8 JSON on stdout; progress and timing go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error (any ValueError: ``main`` prints it to stderr).  Identical
command plus seed reproduces identical stdout bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .family import (
    GenericTypeUndefinedError,
    LineInSystem,
    _planted_degree,
    context,
    generic_type,
    is_generic_type,
    sample_line,
    verlinde_pencil,
)
from .jumping import reconcile
from .pencils import dominance, splitting_type
from .polynomials import HomogeneousPolynomial, gcd_degree, parse_form
from .suites import SUITES

# Largest `split`: 2*w*u pencil cells, or 2*C(n+d, n) form coefficients
# ((3,4,9): 24640 cells).  One random line (seed 0, 2-vCPU Xeon, Python
# 3.11) takes about 0.04 s at (3,4,10) (48048 cells), 0.33 s at (3,4,12)
# (150150), 1.4 s at (3,4,14) (388960), a `jumping:3` one there 6 s.
SPLIT_MAX_CELLS = 100_000


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_poly(spec, n, degree, flag):
    """Read a polynomial from inline grammar, a JSON string, or @file."""
    try:
        if spec.startswith("@"):
            with open(spec[1:], encoding="utf-8") as fh:
                poly = HomogeneousPolynomial.from_json(json.load(fh))
        elif spec.lstrip().startswith("{"):
            poly = HomogeneousPolynomial.from_json(json.loads(spec))
        else:
            poly = parse_form(spec, n, degree)
    except (OSError, RecursionError, ValueError) as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    if poly.n != n or poly.degree != degree:
        raise ValueError(
            f"{flag}: polynomial has n={poly.n}, degree={poly.degree}; "
            f"expected n={n}, degree={degree}")
    return poly


def _comb_past(a, b, cap):
    """C(a, b) (0 unless 0 <= b <= a), or cap + 1 once a partial product
    C(a - b + i, i), increasing in i, passes cap: a few steps at most."""
    c, b = int(0 <= b <= a), min(b, a - b)
    for i in range(1, b + 1):
        c = c * (a - b + i) // i
        if c > cap:
            return cap + 1
    return c


def _check_split_size(n, d, k, sample=None):
    """Refuse a split whose forms, pencil or planted product table (a `jumping:D` sample's h*g)
    passes SPLIT_MAX_CELLS, before any form is read or any binomial taken exactly."""
    cap = SPLIT_MAX_CELLS
    if 2 * _comb_past(n + d, n, cap) > cap:
        raise ValueError(f"forms too large: 2*C(n+d, n) > {cap} coefficients")
    if 2 * _comb_past(k + n, n, cap) * _comb_past(k - d + n, n, cap) > cap:
        raise ValueError(f"pencil too large: 2*w*u > {cap} cells")
    D = None if sample is None else _planted_degree(sample, d)
    if D is not None and _comb_past(D + n, n, cap) * _comb_past(d - D + n, n, cap) > cap:
        raise ValueError(f"planted product too large: C(D+n, n)*C(d-D+n, n) > {cap} positions")


def _cmd_split(args):
    if args.trials < 1:
        raise ValueError(f"gcd oracle needs --trials >= 1, got {args.trials}")
    given = args.f1 is not None or args.f2 is not None
    if given and args.sample is not None:
        raise ValueError("give --f1/--f2 or --sample, not both")
    _check_split_size(args.n, args.d, args.k, None if given else args.sample)
    ctx = context(args.n, args.d, args.k)
    if given:
        if args.f1 is None or args.f2 is None:
            raise ValueError("both --f1 and --f2 are required")
        line = LineInSystem(_load_poly(args.f1, args.n, args.d, "--f1"),
                            _load_poly(args.f2, args.n, args.d, "--f2"))
    elif args.sample is not None:
        line = sample_line(ctx, args.sample, seed=args.seed)
    else:
        raise ValueError("provide --f1/--f2 or --sample")
    st = splitting_type(verlinde_pencil(ctx, line))
    try:
        generic = is_generic_type(ctx, line)
        dom = dominance(st, generic_type(ctx))
    except GenericTypeUndefinedError:
        generic = None
        dom = None
    _emit({
        "n": ctx.n,
        "d": ctx.d,
        "k": ctx.k,
        "f1": line.f1.to_json(),
        "f2": line.f2.to_json(),
        "type": list(st.entries),
        "p": st.zeros(),
        "generic": generic,
        "gcd_degree": gcd_degree(line.f1, line.f2, trials=args.trials, seed=args.seed),
        "dominance": dom,
    })
    return 0


def _cmd_jumping_class(args):
    _emit(reconcile(args.n, args.d, trials=args.trials, seed=args.seed).to_json())
    return 0


def _cmd_verify(args):
    results = []
    for name in SUITES if args.suite == "all" else [args.suite]:
        t0 = time.perf_counter()
        res = SUITES[name](args.seed)
        status = "ok" if res.passed else f"{len(res.failures)} FAILURES"
        print(f"[{res.suite}] cases={res.cases} {status} ({time.perf_counter() - t0:.1f}s)",
              file=sys.stderr)
        results.append(res)
    _emit({
        "seed": args.seed,
        "suites": [res.to_json() for res in results],
        "passed": all(res.passed for res in results),
    })
    return 0 if all(res.passed for res in results) else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="verlinde",
        description="Splitting types on lines of hypersurface systems and "
                    "the class of the jumping-line locus.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("split", help="splitting type of one line")
    sp.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    sp.add_argument("--d", type=int, required=True, help="hypersurface degree")
    sp.add_argument("--k", type=int, required=True, help="bundle twist")
    sp.add_argument("--f1", help="first spanning form (inline, JSON, or @file)")
    sp.add_argument("--f2", help="second spanning form")
    sp.add_argument("--sample", help="draw the line: random | jumping:D")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=3,
                    help="gcd oracle trials, at most TRIALS; stops once a trial proves the value")
    sp.set_defaults(func=_cmd_split)

    jc = sub.add_parser("jumping-class", help="reconciliation report for [Z]")
    jc.add_argument("--n", type=int, required=True)
    jc.add_argument("--d", type=int, required=True)
    jc.add_argument("--trials", type=int, default=3,
                    help="Jacobian oracle trials, at most TRIALS; stops once a trial proves "
                         "the value")
    jc.add_argument("--seed", type=int, default=0)
    jc.set_defaults(func=_cmd_jumping_class)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    vf.add_argument("--seed", type=int, default=0)
    vf.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
