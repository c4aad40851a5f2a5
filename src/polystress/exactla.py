"""Exact rational linear algebra and a small exact LP solver.

Every exact loop here but one runs on one fraction-free pivot step
over the integers, `_pivot_step`: row <- (row*p - row[col]*pivot_row) / prev,
with p the pivot and prev the pivot before it.  The division is exact
by Sylvester's identity (Bareiss 1968; Edmonds 1967), so entries stay
at minor size instead of letting rational numerators and denominators
feed on each other.  Entries are ints or `Rat`s; `_integerize` is
the one way in, clearing each row of denominators once, up front.

- Forward elimination applies the step to the rows below each pivot;
  `rank` is the number of pivots.
- `_kernel` is the one kernel core: it picks the route and reads the
  basis, one vector per free column.  On a matrix of at least
  `_MODULAR_CELLS` cells it tries `_modular_kernel` first: one logged
  sparse elimination mod p = 2^61 - 1 (`_rref_mod`), where entries
  cannot grow and each rigidity block is reduced within itself before
  the rows meet, then rational reconstruction of each basis vector and
  an exact check of A x = 0.  A vector that fails is lifted p-adically
  by replaying the same log (Dixon 1982); a residual that p does not
  divide marks an unlucky prime, and the route gives up.  A checked
  basis, and with it the rank, is the one Bareiss gives; Bareiss and
  the one integer readout `_back_substitute` stay the route for small
  matrices and whenever the modular route yields no checked basis.
  `kernel_basis`, `solve_linear` (the kernel vector of [A | -b] whose
  last coordinate is 1) and `rref` (each row read off the kernel
  vectors) sit on it; `modular_rank` reads only the elimination's
  rank, a lower bound on the exact one.
- The LP is a dense two-phase primal simplex with Bland's rule, so it
  terminates and every run of it is deterministic.  Its tableau holds
  integer rows over one shared denominator; a pivot is the same step
  with prev = that denominator.  `strict_feasible` finds the witness
  stresses that certificates carry, and `pattern_feasible` answers the
  sweep's yes-or-no sign queries over a span held in RREF; the general
  `simplex` also backs the convex-position queries elsewhere in the
  package.
- Farkas rays let `pattern_feasible` skip LPs it can prove infeasible
  (Motzkin's transposition theorem; Schrijver 1986, ch. 7).  Write L
  for the span of the rows.  An infeasible query's LP ends with
  optimal duals, which its final objective row holds on the slack
  columns up to a positive factor.  Take w_j = the dual on each strict
  non-pivot row and minus it on each weak one, and give each pivot
  coordinate P_k the value that makes w orthogonal to row k.  Dual
  feasibility on column y_k then says w_{P_k} >= mu_k >= 0, mu_k the
  dual of a_k y_k >= t, when P_k is strict, and w_{P_k} <= 0 when it
  is weak; on the t column, with the dual of t <= 1 equal to the
  optimum 0, it says the strict duals sum to at least 1, so pos(w) is
  nonempty.  So w is orthogonal to L, positive only on strict and
  negative only on weak coordinates.  Take a later query over L whose
  strict set contains pos(w) and misses neg(w).  An x in L that met it
  would give w.x > 0, against w.x = 0, so the query is infeasible.
  These properties are checked exactly on the integer rows before the
  ray (pos(w), neg(w)) is kept, and a feasible verdict is checked on
  the x it rebuilds, so no verdict rests on the tableau.  Rays decide
  only which LPs run, never a verdict.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress, count

from .errors import InternalArithmeticError, InvalidArgument
from .rat import R0, R1, Rat, rat


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix with optional row/column labels."""

    entries: tuple
    row_labels: tuple | None = None
    col_labels: tuple | None = None

    @staticmethod
    def from_rows(rows, row_labels=None, col_labels=None) -> "RatMatrix":
        ent = tuple(tuple(rat(x) for x in row) for row in rows)
        _check_width(ent, len(ent[0]) if ent else 0)
        return RatMatrix(entries=ent, row_labels=row_labels, col_labels=col_labels)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _check_width(rows, n) -> None:
    if any(len(row) != n for row in rows):
        raise InvalidArgument("ragged rows")


def _integerize(row) -> list[int]:
    """Scale a row of ints and `Rat`s to integers by the positive lcm of
    its denominators.  Bools, floats and anything else are rejected."""
    if {*map(type, row)} <= {int}:
        return list(row)
    den = 1
    for x in row:
        if type(x) is not int:
            if type(x) is not Rat:
                raise InvalidArgument(f"{x!r} is a {type(x).__name__}; use ints or rationals")
            d = x.denominator
            if d != 1:
                den = math.lcm(den, d)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _int_rows(A) -> list[list[int]]:
    """The rows of a RatMatrix or of a list of rows, integerized."""
    rows = [_integerize(row) for row in (A.entries if isinstance(A, RatMatrix) else A)]
    _check_width(rows, len(rows[0]) if rows else 0)
    return rows


def _pivot_step(rows, prow, col, prev, start=0):
    """row <- (row*p - row[col]*prow) / prev in place for each row, p = prow[col].

    This is the one integer row update behind every loop in the module.

    Exact whenever prev is the pivot of the step before (the matrix's
    entries are then minors of the input); the remainder check guards
    that claim.  Columns before `start` are left alone: the caller
    knows them to be zero in every row and in prow.
    """
    p = prow[col]
    for row in rows:
        f = row[col]
        for c in range(start, len(row)):
            q, rem = divmod(row[c] * p - f * prow[c], prev)
            if rem:
                raise InternalArithmeticError("inexact division in fraction-free elimination")
            row[c] = q


def _bareiss_echelon(rows: list[list[int]]):
    """Forward fraction-free elimination of integer rows, in place.

    Returns (rows, pivots) where pivots is a list of (row, col) in
    elimination order.
    """
    m = len(rows)
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for col in range(len(rows[0]) if m else 0):
        for pr in range(r, m):
            if rows[pr][col]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        _pivot_step(rows[r + 1:], prow, col, prev, col)  # zero left of col below the pivot
        pivots.append((r, col))
        prev = prow[col]
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(A) -> int:
    _, pivots = _bareiss_echelon(_int_rows(A))
    return len(pivots)


def _back_substitute(ech, pivots, n, f) -> list:
    """The kernel vector of the echelon rows with x_f = 1 and every
    other free coordinate 0.

    Runs on ints: x_f starts as the pivot s of the last pivot row left
    of f, the leading minor of the pivot rows up to it, so by Cramer's
    rule every coordinate is an integer; the vector is divided by s
    once at the end.  Pivot coordinates right of f stay 0.
    """
    left = [(ech[r], c) for r, c in pivots if c < f]
    scale = left[-1][0][left[-1][1]] if left else 1
    x = [0] * n
    x[f] = scale
    for row, pc in reversed(left):
        acc = 0
        for c in range(pc + 1, f + 1):
            if x[c]:
                acc += row[c] * x[c]
        q, rem = divmod(-acc, row[pc])
        if rem:
            raise InternalArithmeticError("inexact division in back substitution")
        x[pc] = q
    return [rat(v, scale) for v in x]


# The one prime of the modular kernel route, 2^61 - 1
_PRIME = (1 << 61) - 1
# Below this many cells a matrix stays on Bareiss: entry growth is still
# small there, and the modular route's set-up, reconstruction and exact
# check cost more than they save.  Timed on every kernel of one seed-0
# certify pass (best of 5, outputs identical), the modular route, lifting
# included, takes 1.61x Bareiss's time on the 15x9 kernels (135 cells),
# 0.84x on 24x15 (360), 0.50x on 28x19 (532) and 0.44x on 32x23 (736).
# Certify passes alternating in one process between this cutoff and 737
# were faster here in 16 of 20 pairs on seed 0 and 13 of 20 on seed 1.
# The stress and load workloads make no kernel call between 100 and 7000
# cells.
_MODULAR_CELLS = 360


def _rref_mod(rows, p, log=None) -> tuple[list[dict[int, int]], list[int], list[int]]:
    """Reduced row echelon form of sparse integer rows mod the prime p.

    Rows are {column: entry} dicts without zeros: integers in, residues
    in 1..p-1 out.  Returns (pivot rows, pivot columns, origins) in
    column order; a pivot row has 1 on its pivot column and no entry on
    any other, and its origin is the input row that ends up holding it.

    First the rows with one support are reduced among themselves: a
    rigidity block's d rows share their support and have rank at most
    d - k + 2, so its redundant rows vanish before meeting any other
    (Duff, Erisman & Reid 1986), and row operations keep the row space,
    so the RREF.  Then each column in order is pivoted on the unpivoted
    row with the fewest nonzeros there, the last on a tie, which keeps
    the fill-in small (Markowitz 1957); a map from each column to the
    rows that may hold it, grown on fill-in, finds the rows to update.
    The RREF is unique, so no choice of pivot row changes the output.

    With a list `log`, each pivot step appends (pivot row, inverse of
    its pivot, rows, factors): the pivot row was scaled by the inverse,
    then each factor times it subtracted from its row (factors in a
    64-bit array, so p < 2^63).  The steps make an invertible T with
    T A = the pivot rows at their origins, 0 elsewhere, mod p.
    """
    live = {}  # every nonzero row by input index, pivoted or not
    for i, row in enumerate(rows):
        if r := {j: a % p for j, a in row.items() if a % p}:
            live[i] = r
    where = {}  # column -> the rows that may hold it, some more than once
    groups = {}  # support -> its rows
    for i, row in live.items():
        for j in row:
            where.setdefault(j, []).append(i)
        groups.setdefault(tuple(sorted(row)), []).append(i)

    def pivot(i, col, hits):
        # scale row i to 1 at col and clear col from each row in hits
        inv = pow(live[i][col], -1, p)
        scaled = [(j, b * inv % p) for j, b in live[i].items()]
        targets, factors = [], array("q")
        for t in hits:
            row = live[t]
            f = row[col]
            for j, b in scaled:
                a = row.get(j)
                if a is None:  # fill-in
                    row[j] = -f * b % p
                    where[j].append(t)
                elif v := (a - f * b) % p:
                    row[j] = v
                else:
                    del row[j]
            targets.append(t)
            factors.append(f)
            if not row:
                del live[t]
        if log is not None:
            log.append((i, inv, targets, factors))
        live[i] = dict(scaled)

    def reduce(holders):
        # Gauss-Jordan over the columns of holders, {column: rows}
        pivoted = {}  # row -> its pivot column
        for col in sorted(holders):
            hits = [t for t in set(holders[col]) if col in live.get(t, ())]
            if rest := [t for t in hits if t not in pivoted]:
                i = min(rest, key=lambda t: (len(live[t]), -t))
                hits.remove(i)
                pivot(i, col, hits)
                pivoted[i] = col
        return pivoted

    for group in groups.values():
        if len(group) > 1:
            reduce(dict.fromkeys(live[group[0]], group))
    pivoted = reduce(where)
    return [live[i] for i in pivoted], list(pivoted.values()), list(pivoted)


def _replay(log, v, p) -> None:
    """Apply the row steps `_rref_mod` logged to the vector v, in place."""
    for i, inv, targets, factors in log:
        a = v[i] * inv % p
        v[i] = a
        if a:
            for t, f in zip(targets, factors):
                v[t] = (v[t] - f * a) % p


def _reconstruct(xs, m) -> tuple[list[int], int] | None:
    """Rational reconstruction of a vector mod m (Wang, Guy & Davenport 1982).

    Reads each residue as a small numerator over the denominator found
    so far, or else by extended Euclid as the fraction with numerator
    and denominator at most sqrt(m/2) that it encodes.  Returns (v, den)
    with den > 0 the lcm of the denominators and v the numerators over
    den; None if some residue encodes no such fraction.  Only the exact
    check that follows makes the result trustworthy.
    """
    bound = math.isqrt(m >> 1)
    den = 1
    out = []
    for a in xs:
        c = a * den % m
        if c > bound and m - c <= bound:
            c -= m
        elif c > bound:  # a new denominator: extended Euclid on (m, a)
            r0, r1, t0, t1 = m, a, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if not 0 < abs(t1) <= bound:
                return None
            if t1 < 0:
                r1, t1 = -r1, -t1
            g = t1 // math.gcd(den, t1)
            out = [v * g for v in out]
            den *= g
            c = r1 * (den // t1)
        out.append(c)
    return out, den


def _checked(columns, nrows, f, left, xs, m) -> list | None:
    """The kernel vector with x_f = 1 whose coordinates on the pivot
    columns `left` are the residues xs mod m, every other one 0: None
    unless it reconstructs and A x = 0 holds exactly, summed over the
    `columns` of A in x's support."""
    got = _reconstruct(xs, m)
    if got is None:
        return None
    vals, den = got
    x = {f: den}
    x.update((c, v) for c, v in zip(left, vals) if v)
    acc = [0] * nrows
    for c, v in x.items():
        for i, a in zip(*columns[c]):
            acc[i] += a * v
    if any(acc):
        return None
    out = [R0] * len(columns)
    for c, v in x.items():
        out[c] = rat(v, den)
    return out


def _lift(columns, nrows, elim, f, digits, p):
    """Dixon's p-adic lifting (Dixon 1982) of the x with A_P x = -A_f,
    P the pivot columns: yields (x mod p^k, p^k) for k = 2, 3, ... from
    the residues `digits` of x mod p, one per pivot.

    `elim` is (P, origins, log) of `_rref_mod` on A.  Each step divides
    the residual over all rows, r <- (r - A_P d) / p, replays the log
    on r mod p and reads the next digit d at the origins.  A remainder
    means r is not in A_P's column space mod p: the prime is unlucky
    for f, and the lifting stops.
    """
    cols, origin, log = elim
    res = [0] * nrows
    for i, a in zip(*columns[f]):
        res[i] = -a
    x, m = digits, p
    while True:
        for c, d in zip(cols, digits):
            if d:
                for i, a in zip(*columns[c]):
                    res[i] -= a * d
        if any(r % p for r in res):
            return
        res = [r // p for r in res]
        v = [r % p for r in res]
        _replay(log, v, p)
        digits = [v[i] for i in origin]
        x = [a + d * m for a, d in zip(x, digits)]
        m *= p
        yield x, m


def _sparse(rows) -> list[dict[int, int]]:
    """Integer rows as {column: entry} dicts without zeros."""
    return [dict(zip(compress(count(), row), filter(None, row))) for row in rows]


def _columns(rows, n) -> list[tuple[list[int], list[int]]]:
    """Sparse rows column by column: (row indices, entries) per column."""
    out = [([], []) for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            col = out[j]
            col[0].append(i)
            col[1].append(a)
    return out


def _modular_kernel(rows, n) -> tuple[list[int], list[list]] | None:
    """`_kernel` of integer rows with n columns by one elimination mod
    p = 2^61 - 1, or None if that does not yield a verified basis.

    For each free column f of the logged RREF mod p, read off the
    vector with x_f = 1, every other free coordinate 0, and
    x_c = -(row of pivot c)[f] on the pivot columns c left of f;
    reconstruct it and check A x = 0 exactly.  A vector that fails is
    lifted (`_lift`) from the same log and checked at each step.  By
    Cramer's rule its coordinates and common denominator are minors of
    A, at most H = the product of the rank_p largest row norms
    (Hadamard), so once sqrt(p^k/2) >= H reconstruction finds them if
    rank_p = rank_Q; a vector unchecked there, or a lift that stops,
    makes the route give up.

    Why the result equals Bareiss's.  Every minor of A reduces mod p,
    so rank_p <= rank_Q.  A verified x writes column f as a rational
    combination of columns left of f, so f is free over Q as well: the
    n - rank_p free columns mod p are all free over Q, hence
    rank_Q <= rank_p.  The ranks are equal, so the free columns are
    the same set, and each x is the unique rational kernel vector with
    that shape, which is what `_back_substitute` returns.  An unlucky
    prime fails the check.
    """
    p = _PRIME
    sparse = _sparse(rows)
    log = []
    red, cols, origin = _rref_mod(sparse, p, log)
    columns, at = _columns(sparse, n), _columns(red, n)
    pivots = set(cols)
    hadamard2 = None  # H^2, made on the first failed vector
    basis = []
    left = 0  # the number of pivot columns left of f
    for f in range(n):
        if f in pivots:
            left += 1
            continue
        # rows of pivots right of f are 0 at f
        ks, residues = at[f]
        x = _checked(columns, len(sparse), f, [cols[k] for k in ks], [p - a for a in residues], p)
        if x is None:
            if hadamard2 is None:
                norms = sorted((sum(a * a for a in row.values()) for row in sparse), reverse=True)
                hadamard2 = math.prod(norms[: len(cols)])
            digits = [0] * len(cols)
            for k, a in zip(ks, residues):
                digits[k] = p - a
            lifts = _lift(columns, len(sparse), (cols, origin, log), f, digits, p)
            m = p
            while math.isqrt(m >> 1) ** 2 < hadamard2:
                if (got := next(lifts, None)) is None:
                    return None
                xs, m = got
                if (x := _checked(columns, len(sparse), f, cols[:left], xs[:left], m)) is not None:
                    break
            else:
                return None
        basis.append(x)
    return cols, basis


def _kernel(rows, n) -> tuple[list[int], list[list]]:
    """Pivot columns and kernel basis of integer rows with n columns.

    One basis vector per free column, ordered by free column index;
    the free coordinate is set to 1, every other free coordinate to 0,
    and the pivot coordinates solve the system (those right of the
    free column are 0).  Matrices of at least `_MODULAR_CELLS` cells
    try `_modular_kernel` first, which returns the same pivots and
    basis when it succeeds; Bareiss elimination is the route otherwise.
    """
    if len(rows) * n >= _MODULAR_CELLS:
        out = _modular_kernel(rows, n)
        if out is not None:
            return out
    ech, pivots = _bareiss_echelon(rows)
    cols = [c for _, c in pivots]
    pivot_set = set(cols)
    return cols, [_back_substitute(ech, pivots, n, f) for f in range(n) if f not in pivot_set]


def kernel_basis(A) -> tuple[int, list[list]]:
    """Rank and the deterministic kernel basis of A (see `_kernel`)."""
    rows = _int_rows(A)
    cols, basis = _kernel(rows, len(rows[0]) if rows else 0)
    return len(cols), basis


def modular_rank(A) -> int:
    """The rank of A mod 2^61 - 1, a lower bound on its rank: every
    minor of A reduces mod p, so rank_p <= rank_Q."""
    return len(_rref_mod(_sparse(_int_rows(A)), _PRIME)[1])


def solve_linear(A, b) -> list | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so a unique solution is returned
    verbatim and an underdetermined system yields a particular one.
    """
    rows = A.entries if isinstance(A, RatMatrix) else A
    if len(b) != len(rows):
        raise InvalidArgument("rhs length mismatch")
    n = len(rows[0]) if rows else 0
    # [A | -b]: a pivot on the last column means 0 = 1, else the kernel
    # vector with x_n = 1, the last of the basis, reads off x
    aug = _int_rows([*row, x] for row, x in zip(rows, b))
    for row in aug:
        row[-1] = -row[-1]
    cols, basis = _kernel(aug, n + 1)
    if n in cols:
        return None
    return basis[-1][:n]


def rref(rows) -> tuple[tuple[int, ...], tuple]:
    """Reduced row echelon form over the rationals.

    Returns (pivot columns, nonzero rows); two row collections span
    the same space iff their rrefs are equal, which is what the
    span-comparison tests rely on.  The row of pivot c has 1 at c, 0
    at every other pivot and -x_f[c] at each free column f, x_f being
    the kernel vector of f; the RREF is unique, so this is Gauss-Jordan's.
    """
    ints = _int_rows(rows)
    n = len(ints[0]) if ints else 0
    cols, basis = _kernel(ints, n)
    pivot_set = set(cols)
    free = dict(zip((f for f in range(n) if f not in pivot_set), basis))
    keep = tuple(tuple(R1 if j == c else -free[j][c] if j in free else R0 for j in range(n)) for c in cols)
    return tuple(cols), keep


def dot(u, v):
    acc = R0
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_scale(s, u):
    return [s * a for a in u]


def is_zero_vec(u) -> bool:
    return all(x == 0 for x in u)


# ---------------------------------------------------------------------------
# exact simplex


class _Tableau:
    """Dense simplex tableau with Bland pivoting throughout.

    Entry (i, j) is rows[i][j] / den: integer rows, rhs last, over one
    shared denominator den > 0, so every sign test reads the integers
    directly.  A basic column holds den in its row and 0 elsewhere.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.den = 1

    def pivot(self, r: int, col: int, z=None) -> None:
        """Make col basic in row r; the objective row z, if given, is pivoted along."""
        prow = self.rows[r]
        if prow[col] < 0:  # negate the pivot row (the same equation) so den stays > 0
            prow[:] = [-x for x in prow]
        others = self.rows[:r] + self.rows[r + 1:]
        _pivot_step(others if z is None else others + [z], prow, col, self.den)
        self.basis[r] = col
        self.den = prow[col]

    def run(self, obj: list[int], allowed: int) -> list[int]:
        """Maximize obj (integers, length nvars) over columns < allowed.

        Returns the final reduced-cost row times a positive factor; raises on
        unboundedness, which callers here never trigger by construction.
        """
        den = self.den
        z = [c * den for c in obj] + [0]
        for r, bv in enumerate(self.basis):
            if z[bv]:
                _pivot_step([z], self.rows[r], bv, den)
        while True:
            # increasing x_j improves the objective
            enter = next((j for j in range(allowed) if z[j] > 0), None)
            if enter is None:
                return z
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    # row[-1] / a against the best ratio, cross-multiplied (both pivots > 0)
                    lhs = row[-1] * self.rows[leave][enter]
                    rhs = self.rows[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave is None:
                raise InternalArithmeticError("unbounded LP")
            self.pivot(leave, enter, z)


def simplex(obj, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Maximize obj . x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Returns (status, x, value) with status in {"optimal",
    "infeasible"}.  x is the final tableau's basic solution: every
    nonzero entry is basic, so the columns of its support are linearly
    independent (`segment_hull_meet` relies on this).  The feasible
    problems this package builds are all bounded; an unbounded one
    raises InternalArithmeticError.
    """
    return _solve(obj, A_ub, b_ub, A_eq, b_eq)[:3]


def _solve(obj, A_ub, b_ub, A_eq, b_eq):
    """`simplex`'s (status, x, value) and the final objective row z.

    z[j] is den times column j's reduced cost, den > 0, so z <= 0 on
    every column at the optimum; on the slack of an integer row of
    A_ub with rhs >= 0 it is -den times that row's optimal dual.  z is
    None when the problem is infeasible.
    """
    A_ub = [] if A_ub is None else A_ub
    b_ub = [] if b_ub is None else b_ub
    A_eq = [] if A_eq is None else A_eq
    b_eq = [] if b_eq is None else b_eq
    if len(b_ub) != len(A_ub) or len(b_eq) != len(A_eq):
        raise InvalidArgument("rhs length mismatch")
    n = len(obj)
    _check_width([*A_ub, *A_eq], n)
    n_slack = len(A_ub)
    raw = list(zip(A_ub, b_ub)) + list(zip(A_eq, b_eq))
    # a row with rhs < 0 is negated; it and every equality start on an artificial
    art_rows = [i for i, (_, rhs) in enumerate(raw) if i >= n_slack or rhs < 0]

    n_art = len(art_rows)
    nvars = n + n_slack + n_art
    art_of = {ri: n + n_slack + k for k, ri in enumerate(art_rows)}
    rows, basis = [], []
    for i, (arow, rhs) in enumerate(raw):
        sgn = -1 if rhs < 0 else 1
        pad = [0] * (n_slack + n_art)
        if i < n_slack:
            pad[i] = 1  # the slack
        basis.append(art_of.get(i, n + i))
        pad[basis[-1] - n] = sgn  # the starting basic column reads +1 once the row is negated
        rows.append([sgn * x for x in _integerize([*arow, *pad, rhs])])
    T = _Tableau(rows, basis)
    # each row was scaled by its own positive factor: pivot the starting basis in
    for r, bv in enumerate(basis):
        if T.rows[r][bv] != T.den:
            T.pivot(r, bv)

    if n_art:
        z = T.run([0] * (n + n_slack) + [-1] * n_art, allowed=nvars)
        if z[-1] != 0:  # leftover artificial mass
            return "infeasible", None, None, None
        # drive artificials out of the basis or drop redundant rows
        for r in range(len(T.rows) - 1, -1, -1):
            if T.basis[r] >= n + n_slack:
                col = next((c for c in range(n + n_slack) if T.rows[r][c] != 0), None)
                if col is None:
                    del T.rows[r]
                    del T.basis[r]
                else:
                    T.pivot(r, col)

    z = T.run(_integerize(obj) + [0] * (n_slack + n_art), allowed=n + n_slack)
    x = [R0] * n
    for r, bv in enumerate(T.basis):
        if bv < n:
            x[bv] = rat(T.rows[r][-1], T.den)
    return "optimal", x, dot(obj, x), z


def strict_feasible(basis, strict_coords, weak_coords):
    """Search span(basis) for x with x_i > 0 on strict and x_j <= 0 on weak.

    Maximizes t subject to x_i >= t on strict coordinates, x_j <= 0 on
    weak ones, and t <= 1; a witness exists iff the optimum is
    positive.  Returns the witness vector (not normalized) or None.
    An empty strict set is vacuous and yields the zero vector.
    """
    strict = sorted(set(strict_coords))
    weak = sorted(set(weak_coords))
    ncoords = len(basis[0]) if basis else 0
    _check_width(basis, ncoords)
    if not basis:
        return None if strict else []
    for i in strict + weak:
        if not 0 <= i < ncoords:
            raise InvalidArgument(f"coordinate {i} out of range")
    if not strict:
        return [R0] * ncoords
    g = len(basis)
    # a positive scaling of each basis vector scales the LP's columns,
    # which changes neither Bland's pivot sequence nor the witness
    basis = [_integerize(B) for B in basis]
    # vars: u_0..u_{g-1}, v_0..v_{g-1}, t; coefficients c_j = u_j - v_j
    A_ub = []
    b_ub = []
    for i in strict:
        A_ub.append([-B[i] for B in basis] + [B[i] for B in basis] + [1])
        b_ub.append(0)
    for i in weak:
        A_ub.append([B[i] for B in basis] + [-B[i] for B in basis] + [0])
        b_ub.append(0)
    A_ub.append([0] * (2 * g) + [1])
    b_ub.append(1)
    obj = [0] * (2 * g) + [1]
    # x = 0, t = 0 is feasible, so the LP always reaches an optimum
    _, xvars, value, _ = _solve(obj, A_ub, b_ub, None, None)
    if value <= 0:
        return None
    coeffs = [xvars[j] - xvars[g + j] for j in range(g)]
    out = [R0] * ncoords
    for cj, B in zip(coeffs, basis):
        if cj:
            for i, val in enumerate(B):
                if val:
                    out[i] += cj * val
    return out


def pattern_feasible(rows, strict_coords, rays) -> bool:
    """Whether span(rows) holds an x with x_i > 0 on strict and x_j <= 0
    on every other coordinate.

    `rows` is an RREF, each row possibly scaled by a positive factor:
    row k has a_k > 0 on its pivot column P_k, and every other row has
    0 there.  So x = sum c_k row_k has x_{P_k} = a_k c_k, and since
    each coordinate is strict or weak the sign of c_k is known.  The LP
    maximizes t over y >= 0 and t, with c_k = y_k on strict pivots and
    -y_k on weak ones, subject to x_j >= t on strict and x_j <= 0 on
    weak non-pivot coordinates, a_k y_k >= t on strict pivots, and
    t <= 1.  The origin is feasible, so the LP needs no phase 1.

    A feasible verdict rebuilds x and checks its signs; an infeasible
    one checks the Farkas ray read off the optimal duals (see the
    module docstring) and appends it to `rays`, unless `rays` is None.
    A query whose strict set contains pos and misses neg of a stored
    (pos, neg) is answered before the rows are read.  A failed check
    raises InternalArithmeticError.
    """
    strict = set(strict_coords)
    if not strict:
        return True
    if not rows:  # the span is {0}
        return False
    if rays is not None and any(pos <= strict and strict.isdisjoint(neg) for pos, neg in rays):
        return False
    rows = _int_rows(rows)
    ncoords = len(rows[0])
    for i in strict:
        if not 0 <= i < ncoords:
            raise InvalidArgument(f"coordinate {i} out of range")
    pivots = [next(j for j, a in enumerate(row) if a) for row in rows]
    sgn = [1 if p in strict else -1 for p in pivots]
    r = len(rows)
    # vars y_0..y_{r-1}, t; one row per non-pivot coordinate, then one per strict pivot
    free = sorted(set(range(ncoords)) - set(pivots))
    A_ub = []
    for j in free:
        xj = [s * row[j] for s, row in zip(sgn, rows)]
        A_ub.append([-a for a in xj] + [1] if j in strict else xj + [0])
    for k, p in enumerate(pivots):
        if p in strict:
            A_ub.append([-rows[k][p] if i == k else 0 for i in range(r)] + [1])
    A_ub.append([0] * r + [1])
    _, yt, value, z = _solve([0] * r + [1], A_ub, [0] * (len(A_ub) - 1) + [1], None, None)
    if value > 0:
        c = [s * y for s, y in zip(sgn, _integerize(yt[:r]))]
        x = [sum(ck * row[j] for ck, row in zip(c, rows) if ck) for j in range(ncoords)]
        if any(x[j] <= 0 if j in strict else x[j] > 0 for j in range(ncoords)):
            raise InternalArithmeticError("LP witness misses its sign pattern")
        return True
    # the slack of row i holds -den times its dual: w_j is the dual on
    # strict rows and minus it on weak ones, scaled by lcm(a_k) so that
    # each pivot coordinate, set to make w orthogonal to its row, is an integer
    scale = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    w = [0] * ncoords
    for j, zj in zip(free, z[r + 1:]):
        w[j] = -scale * zj if j in strict else scale * zj
    for row, p in zip(rows, pivots):
        w[p] = -sum(v * e for v, e in zip(w, row) if v) // row[p]
    pos = frozenset(j for j, v in enumerate(w) if v > 0)
    neg = frozenset(j for j, v in enumerate(w) if v < 0)
    orthogonal = not any(sum(v * e for v, e in zip(w, row) if v) for row in rows)
    if not (orthogonal and pos and pos <= strict and strict.isdisjoint(neg)):
        raise InternalArithmeticError("Farkas ray of an infeasible LP is not a certificate")
    if rays is not None:
        rays.append((pos, neg))
    return False
