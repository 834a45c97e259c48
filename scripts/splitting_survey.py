#!/usr/bin/env python3
"""Survey splitting types across twists for one (n, d): which types occur,
how often random lines jump, and where the generic type stops existing.

Usage: python scripts/splitting_survey.py [--n 2] [--d 2] [--lines 20] [--seed S]
"""

import argparse
from collections import Counter

from verlinde.family import context, sample_line, verlinde_pencil
from verlinde.pencils import splitting_type


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--lines", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    n, d = args.n, args.d
    print(f"genericity table for n={n}, d={d}:")
    for k in range(1, 2 * d + 3):
        ctx = context(n, d, k)
        marker = "ok " if ctx.degree <= ctx.rank else "no "
        print(f"  k={k:2d}  degree={ctx.degree:4d}  rank={ctx.rank:4d}  "
              f"degree<=rank: {marker} k<=2d: {k <= 2 * d}")

    for k in range(d, 2 * d + 2):
        ctx = context(n, d, k)
        if ctx.w > 400:
            break
        counts = Counter()
        for i in range(args.lines):
            mode = "random" if i % 2 == 0 else f"jumping:{(i // 2) % d}"
            line = sample_line(ctx, mode, seed=f"{args.seed}:{k}:{i}")
            st = splitting_type(verlinde_pencil(ctx, line))
            nonzero = tuple(b for b in st if b)
            counts[nonzero] += 1
        print(f"k={k} (w={ctx.w}, u={ctx.u}): nonzero parts of sampled types:")
        for typ, cnt in counts.most_common():
            print(f"    {cnt:3d} x {typ}")


if __name__ == "__main__":
    main()
