from fractions import Fraction


def naive_rank(matrix):
    """Plain Gaussian elimination over Fraction; independent of the
    package's rank engine (elimination modulo a word-size prime, with a
    fraction-free Bareiss fallback)."""
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
