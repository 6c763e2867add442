"""Dense complex linear algebra for the commitment numerics, in pure Python.

Matrices are sequences of rows of complex numbers. Every result is
computed by binary64 `+ - * /`, `math.sqrt` and `math.fsum` on the real
and imaginary parts, in a fixed order; each of these is correctly rounded,
so a result has the same bits on every CPython build. Complex products are
spelled out on the parts rather than left to the interpreter's complex
multiply, whose C code a compiler may fuse into multiply-adds.

The eigenvalues come from the cyclic Jacobi method on the Hermitian
matrix, the singular value decomposition from the one-sided (Hestenes)
Jacobi method; both sweep the pairs (p, q), p < q, in row order until a
sweep rotates nothing. Each sweep costs about n^3 operations; random
full-rank matrices from 2x2 to 64x64 took 2 to 11 sweeps, the last one
rotating nothing.
"""

from __future__ import annotations

from math import fsum, sqrt

EPS = 2.0 ** -52
MAX_SWEEPS = 60  # convergence is quadratic; a finite matrix needs far fewer


def dot(x, y) -> complex:
    """sum_k x[k] * y[k], each part one correctly rounded `fsum`."""
    return complex(fsum(a.real * b.real - a.imag * b.imag for a, b in zip(x, y)),
                   fsum(a.real * b.imag + a.imag * b.real for a, b in zip(x, y)))


def conj(x) -> list[complex]:
    return [z.conjugate() for z in x]


def gram(xs, ys) -> list[list[complex]]:
    """X Y^H for the matrices X, Y with rows `xs`, `ys`: entry (i, j) is
    sum_k xs[i][k] * conj(ys[j][k])."""
    bras = list(map(conj, ys))
    return [[dot(x, y) for y in bras] for x in xs]


def norm(x) -> float:
    """Euclidean norm of a complex vector."""
    return sqrt(fsum(z.real * z.real + z.imag * z.imag for z in x))


def _rotation(app: float, aqq: float, mod: float):
    """(t, c, s) of the real Jacobi rotation that diagonalizes
    [[app, mod], [mod, aqq]]; the diagonal becomes (app - t mod, aqq + t mod)."""
    tau = (aqq - app) / (2.0 * mod)
    if tau >= 0.0:
        t = 1.0 / (tau + sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
    c = 1.0 / sqrt(1.0 + t * t)
    return t, c, t * c


def eigvalsh(matrix) -> list[float]:
    """Eigenvalues, ascending, of the Hermitian matrix given by the lower
    triangle of `matrix` (the diagonal's imaginary parts are ignored).

    An off-diagonal entry b = |b| e is rotated away by U = diag(1, conj e)
    followed by a real rotation on its (p, q) plane; entries of modulus at
    most EPS times the Frobenius norm are left in place, which moves no
    eigenvalue by more than n EPS times that norm.
    """
    n = len(matrix)
    full = [[matrix[i][j] if j < i else matrix[j][i].conjugate() for j in range(n)]
            for i in range(n)]
    re = [[z.real for z in row] for row in full]
    im = [[z.imag for z in row] for row in full]
    for i in range(n):
        im[i][i] = 0.0
    tol = EPS * sqrt(fsum(x * x for row in re for x in row)
                     + fsum(y * y for row in im for y in row))
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                br, bi = re[p][q], im[p][q]
                mod = sqrt(br * br + bi * bi)
                if mod <= tol:
                    continue
                rotated = True
                app, aqq = re[p][p], re[q][q]
                t, c, s = _rotation(app, aqq, mod)
                er, ei = br / mod, bi / mod
                rp, ip, rq, iq = re[p], im[p], re[q], im[q]
                # rows p, q of U^H A U: (c A_p - s e A_q, s A_p + c e A_q)
                yr = [er * x - ei * y for x, y in zip(rq, iq)]
                yi = [er * y + ei * x for x, y in zip(rq, iq)]
                rp, rq = ([c * x - s * y for x, y in zip(rp, yr)],
                          [s * x + c * y for x, y in zip(rp, yr)])
                ip, iq = ([c * x - s * y for x, y in zip(ip, yi)],
                          [s * x + c * y for x, y in zip(ip, yi)])
                re[p], im[p], re[q], im[q] = rp, ip, rq, iq
                for row_r, row_i, a, b, x, y in zip(re, im, rp, ip, rq, iq):
                    row_r[p], row_i[p], row_r[q], row_i[q] = a, -b, x, -y
                rp[p], rq[q] = app - t * mod, aqq + t * mod
                rp[q] = rq[p] = ip[p] = ip[q] = iq[p] = iq[q] = 0.0
        if not rotated:
            break
    return sorted(re[i][i] for i in range(n))


def svd(matrix):
    """(s, u, v) with matrix = u diag(s) v^H for a square `matrix`; u and v
    unitary, given as rows.

    One-sided Jacobi: v accumulates the rotations that make the columns of
    `matrix` pairwise orthogonal, s holds the final column norms, and
    column k of u is column k of `matrix v` divided by s[k]. A column with
    s[k] <= n EPS max(s) is treated as zero; the columns of u it leaves
    open are filled by Gram-Schmidt over the standard basis e_0, e_1, ...
    in index order, in the order of the open columns.
    """
    n = len(matrix)
    cr = [[row[j].real for row in matrix] for j in range(n)]
    ci = [[row[j].imag for row in matrix] for j in range(n)]
    vr = [[float(i == j) for i in range(n)] for j in range(n)]
    vi = [[0.0] * n for _ in range(n)]
    # two columns at rounding level, |column| <= EPS |matrix|_F, are left as they are
    square = [fsum(x * x + y * y for x, y in zip(xr, xi)) for xr, xi in zip(cr, ci)]
    floor = EPS * EPS * fsum(square)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                ar, ai, br, bi = cr[p], ci[p], cr[q], ci[q]
                alpha, beta = square[p], square[q]
                gr = fsum(a * x + b * y for a, b, x, y in zip(ar, ai, br, bi))
                gi = fsum(a * y - b * x for a, b, x, y in zip(ar, ai, br, bi))
                mod = sqrt(gr * gr + gi * gi)
                if mod <= EPS * sqrt(alpha * beta) or mod <= floor:
                    continue
                rotated = True
                _, c, s = _rotation(alpha, beta, mod)
                er, ei = gr / mod, gi / mod
                for xr, xi in ((cr, ci), (vr, vi)):
                    # columns p, q times U = diag(1, conj e) J
                    ar, ai, br, bi = xr[p], xi[p], xr[q], xi[q]
                    yr = [er * x + ei * y for x, y in zip(br, bi)]
                    yi = [er * y - ei * x for x, y in zip(br, bi)]
                    xr[p], xr[q] = ([c * x - s * y for x, y in zip(ar, yr)],
                                    [s * x + c * y for x, y in zip(ar, yr)])
                    xi[p], xi[q] = ([c * x - s * y for x, y in zip(ai, yi)],
                                    [s * x + c * y for x, y in zip(ai, yi)])
                for k in (p, q):
                    square[k] = fsum(x * x + y * y for x, y in zip(cr[k], ci[k]))
        if not rotated:
            break
    s = list(map(sqrt, square))
    least = n * EPS * max(s)
    u = [([x / sk for x in xr], [y / sk for y in xi]) if sk > least else None
         for xr, xi, sk in zip(cr, ci, s)]
    _complete(u)
    return (s, _rows(u), _rows(list(zip(vr, vi))))


def _complete(columns: list) -> None:
    """Fill the None entries of `columns` (orthonormal (re, im) pairs) in
    order with e_0, e_1, ... made orthogonal to every column, by
    Gram-Schmidt applied twice. A remainder of squared norm at most
    1/(4n) is skipped; the n squared remainders sum to the number of open
    columns, so enough of them exceed that bound."""
    n = len(columns)
    basis = [col for col in columns if col is not None]
    open_slots = [k for k, col in enumerate(columns) if col is None]
    for k in range(n):
        if not open_slots:
            return
        xr, xi = [float(i == k) for i in range(n)], [0.0] * n
        for _ in range(2):
            for ur, ui in basis:
                gr = fsum(a * x + b * y for a, b, x, y in zip(ur, ui, xr, xi))
                gi = fsum(a * y - b * x for a, b, x, y in zip(ur, ui, xr, xi))
                xr = [x - (a * gr - b * gi) for x, a, b in zip(xr, ur, ui)]
                xi = [y - (a * gi + b * gr) for y, a, b in zip(xi, ur, ui)]
        size = sqrt(fsum(x * x + y * y for x, y in zip(xr, xi)))
        if size * size > 0.25 / n:
            col = ([x / size for x in xr], [y / size for y in xi])
            basis.append(col)
            columns[open_slots.pop(0)] = col


def _rows(columns) -> tuple[tuple[complex, ...], ...]:
    """The matrix whose columns are the given (re, im) pairs, as rows."""
    return tuple(tuple(complex(col[0][i], col[1][i]) for col in columns)
                 for i in range(len(columns[0][0])))
