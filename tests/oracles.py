"""Independent cross-checks used by the tests.

Everything here recomputes a quantity along a different route than the
package takes: face counts by brute closure, stress membership by
direct differentiation of the full polynomial, sign-pattern
feasibility by Fourier-Motzkin elimination, ranks by plain Fraction
Gaussian elimination, cyclic facets by the evenness condition, LP
optima and rrefs by the Fraction simplex tableau and Gauss-Jordan loop
that exactla's integer pivot step replaced, face membership,
missing faces, avoiding complexes, prime completion and certificate
sweeps by scanning facets and enumerating subsets of the vertex set,
as the package did before it grew vertex sets one vertex at a time,
hull facets, facet normals and validation checks by the Fraction
hyperplane loops that geometry's integer normal-and-side test replaced,
hull facets also by that test's one kernel per d-subset, which the
hull's shared fraction-free elimination replaced,
kernels and solutions by the Fraction back substitutions that
exactla's one integer readout replaced, altitudes by the rank test and
Gram system and by the exact Gram-Schmidt loop that geometry's integer
projectors replaced, rigidity matrices, balancing residuals and rigidity
reports over those Fraction altitudes, powers of affine dependences by
the Fraction expansion that power_stress's integer pass replaced, RREFs
mod a prime by the dense row updates that the modular kernel's sparse
elimination replaced, and full polynomials by direct differentiation
with a kernel check and a solve on Fraction rows, and by the pairwise
row assembly that poly_directional over theta's rows replaced,
degree-1 recovery by expanding every 2-stress and differentiating the
full polynomial, missing-edge stresses by reading the rigidity
kernel directly, as detect did before it took every stress from
stress_basis, and the missing-edge connector pick by the Caratheodory
reduction and the greedy pass with a one-swap repair that one matroid
greedy over the LP's basic support replaced, and detect's d >= 4
missing-edge carrier and quotient carrier by the skeleton and star
constructions that one build_complex over the facets replaced.  Slow
and simple on purpose.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd, lcm

from polystress.detect import _feasible_certificate, _stress_space
from polystress.errors import (
    CompletionFailure,
    DegenerateEmbedding,
    DegenerateFace,
    ExpansionFailure,
    InvalidArgument,
    NotNeighborlyEnough,
    NotSimplicial,
)
from polystress.exactla import RatMatrix, dot, kernel_basis, rref, vec_sub
from polystress.geometry import _hyperplane, _integer_points, _side, affine_rank
from polystress.rat import R0, R1, rat
from polystress.simplicial import SimplicialComplex, build_complex, face_key, skeleton, star
from polystress.stress import (
    RigidityReport,
    StressVector,
    _compositions,
    expand_squarefree,
    mono_from_face,
    mono_support,
    poly_directional,
    rigidity_matrix,
    stress_basis,
    theta,
)


# --- rows read entry by entry into Fraction and integerized, as exactla
# read its input before ints and Rats went straight to its integer rows


def _rows_of(A) -> list[list]:
    if isinstance(A, RatMatrix):
        return [list(r) for r in A.entries]
    return [[rat(x) for x in row] for row in A]


def _integerize(row):
    """Scale a rational row to integers by its positive lcm of denominators."""
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def closure_faces(facets):
    faces = set()
    for F in facets:
        F = tuple(sorted(F))
        for r in range(1, len(F) + 1):
            faces.update(combinations(F, r))
    return faces


def f_vector(facets):
    """(f_-1, f_0, ..., f_dim) by brute closure."""
    faces = closure_faces(facets)
    dim = max(len(F) for F in faces) - 1
    f = [1] + [0] * (dim + 1)
    for F in faces:
        f[len(F)] += 1
    return tuple(f)


def g_vector(f, d):
    """g_0..g_ceil(d/2) from an f-vector (f[k] counts (k-1)-faces)."""
    top = (d + 1) // 2
    out = []
    for i in range(top + 1):
        out.append(sum((-1) ** (i - k) * comb(d - k + 1, i - k) * f[k] for k in range(i + 1)))
    return tuple(out)


def gale_even(S, n):
    """Facet predicate for the cyclic polytope on labels 1..n."""
    S = set(S)
    outside = [v for v in range(1, n + 1) if v not in S]
    for i, j in combinations(outside, 2):
        if sum(1 for s in S if i < s < j) % 2 != 0:
            return False
    return True


# --- polynomials as {flat monomial: Fraction}, e.g. (1, 1, 3) = x1^2 x3


def flat_monomial(pairs):
    out = []
    for v, e in pairs:
        out.extend([v] * e)
    return tuple(sorted(out))


def poly_from_full(full):
    return {flat_monomial(m): Fraction(int(c.numerator), int(c.denominator)) for m, c in full.items()}


def diff_var(poly, v):
    out = {}
    for m, c in poly.items():
        e = m.count(v)
        if e == 0:
            continue
        idx = m.index(v)
        key = m[:idx] + m[idx + 1 :]
        out[key] = out.get(key, Fraction(0)) + e * c
    return {m: c for m, c in out.items() if c}


def theta_rows_fractions(coords, vertices, d):
    rows = []
    for i in range(d):
        rows.append({v: Fraction(int(coords[v][i].numerator), int(coords[v][i].denominator)) for v in vertices})
    rows.append({v: Fraction(1) for v in vertices})
    return rows


def is_affine_stress(poly, coords, vertices, d):
    """Direct check: every theta directional derivative vanishes."""
    rows = theta_rows_fractions(coords, vertices, d)
    for row in rows:
        acc = {}
        for v in vertices:
            if row[v] == 0:
                continue
            for m, c in diff_var(poly, v).items():
                acc[m] = acc.get(m, Fraction(0)) + row[v] * c
        if any(c != 0 for c in acc.values()):
            return False
    return True


def supported_on(poly, face_set):
    return all(tuple(sorted(set(m))) in face_set for m in poly)


# --- Fourier-Motzkin feasibility for homogeneous sign systems


def fm_feasible(rows, nvars):
    """rows: (coeffs, strict); decide whether some y satisfies
    coeffs.y > 0 (strict) resp. >= 0 (weak) for every row."""
    rows = [([Fraction(c) for c in cs], bool(s)) for cs, s in rows]
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for cs, s in rows:
            if cs[var] > 0:
                pos.append((cs, s))
            elif cs[var] < 0:
                neg.append((cs, s))
            else:
                rest.append((cs, s))
        for cp, sp in pos:
            for cn, sn in neg:
                a, b = cp[var], -cn[var]
                merged = [a * cn[i] + b * cp[i] for i in range(nvars)]
                merged[var] = Fraction(0)
                rest.append((merged, sp or sn))
        rows = rest
    return all(not strict for _, strict in rows)


def sign_system_feasible(basis, strict, weak):
    """Oracle for strict_feasible: vectors x = sum c_j basis_j with
    x_i > 0 on strict and x_i <= 0 on weak."""
    if not strict:
        return True
    nvars = len(basis)
    if nvars == 0:
        return False
    rows = []
    for i in strict:
        rows.append(([b[i] for b in basis], True))
    for i in weak:
        rows.append(([-b[i] for b in basis], False))
    return fm_feasible(rows, nvars)


# --- plain Gaussian elimination over Fraction


def gauss_rank(rows):
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / head
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def fraction_rref(rows):
    """Gauss-Jordan over Fraction: (pivot columns, nonzero rows), as exactla.rref."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return tuple(pivots), tuple(tuple(row) for row in work[: len(pivots)])


# --- the dense two-phase Fraction simplex that exactla's integer tableau replaced


class _FractionTableau:
    """Simplex tableau over Fraction, Bland pivoting throughout."""

    def __init__(self):
        self.rows = []  # rhs last
        self.basis = []

    def pivot(self, r, col):
        inv = 1 / self.rows[r][col]
        self.rows[r] = [x * inv for x in self.rows[r]]
        prow = self.rows[r]
        for i, row in enumerate(self.rows):
            if i != r and row[col] != 0:
                f = row[col]
                self.rows[i] = [a - f * b for a, b in zip(row, prow)]
        self.basis[r] = col

    def run(self, obj, allowed):
        z = list(obj) + [Fraction(0)]
        for r, bv in enumerate(self.basis):
            if z[bv] != 0:
                f = z[bv]
                z = [a - f * b for a, b in zip(z, self.rows[r])]
        while True:
            enter = next((j for j in range(allowed) if z[j] > 0), None)
            if enter is None:
                return z
            leave = best = None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                raise ArithmeticError("unbounded LP")
            self.pivot(leave, enter)
            f = z[enter]
            z = [a - f * b for a, b in zip(z, self.rows[leave])]


def fraction_simplex(obj, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Same contract, pivot rules and outputs as exactla.simplex."""
    n, n_slack = len(obj), len(A_ub)
    raw = [([Fraction(x) for x in a], 1, Fraction(b)) for a, b in zip(A_ub, b_ub)]
    raw += [([Fraction(x) for x in a], 0, Fraction(b)) for a, b in zip(A_eq, b_eq)]
    raw = [([-x for x in a], -s, -b) if b < 0 else (a, s, b) for a, s, b in raw]
    art_rows = [i for i, (_, s, _) in enumerate(raw) if s != 1]
    n_art = len(art_rows)
    art_of = {ri: n + n_slack + k for k, ri in enumerate(art_rows)}
    T = _FractionTableau()
    for i, (a, s, b) in enumerate(raw):
        full = a + [Fraction(0)] * (n_slack + n_art) + [b]
        if i < n_slack:
            full[n + i] = Fraction(s)
        T.basis.append(art_of.get(i, n + i))
        full[T.basis[-1]] = Fraction(1)
        T.rows.append(full)
    if n_art:
        z = T.run([Fraction(0)] * (n + n_slack) + [Fraction(-1)] * n_art, n + n_slack + n_art)
        if z[-1] != 0:
            return "infeasible", None, None
        for r in range(len(T.rows) - 1, -1, -1):
            if T.basis[r] >= n + n_slack:
                col = next((c for c in range(n + n_slack) if T.rows[r][c] != 0), None)
                if col is None:
                    del T.rows[r]
                    del T.basis[r]
                else:
                    T.pivot(r, col)
    T.run([Fraction(c) for c in obj] + [Fraction(0)] * (n_slack + n_art), n + n_slack)
    x = [Fraction(0)] * n
    for r, bv in enumerate(T.basis):
        if bv < n:
            x[bv] = T.rows[r][-1]
    return "optimal", x, sum((Fraction(c) * v for c, v in zip(obj, x)), Fraction(0))


# --- combinatorics by subset enumeration and facet scans


def pairwise_maximal(faces):
    """The inclusion-maximal members of a family, each compared with
    every other: the reference for the constructor's shadow rule."""
    norm = {frozenset(F) for F in faces}
    return frozenset(F for F in norm if not any(F < G for G in norm))


def scan_has_face(K, F):
    F = frozenset(F)
    return any(F <= G for G in K.facets)


def subset_missing_faces(K, max_card):
    """Minimal non-faces of at most max_card vertices over all subsets."""
    V = K.vertices
    out = []
    for s in range(1, min(max_card, len(V)) + 1):
        for M in combinations(V, s):
            MF = frozenset(M)
            if not scan_has_face(K, MF) and all(scan_has_face(K, MF - {v}) for v in M):
                out.append(M)
    return sorted(out, key=lambda M: (len(M), M))


def subset_avoiding_complex(vertices, missing_list, max_size):
    miss = [set(M) for M in missing_list]
    faces = []
    for size in range(1, max_size + 1):
        for S in combinations(vertices, size):
            if not any(m <= set(S) for m in miss):
                faces.append(S)
    return SimplicialComplex(facets=pairwise_maximal(faces))


def subset_complete_prime(skelDK, missing, d):
    """The d-subsets avoiding every missing face, with the old checks:
    every smaller avoiding set under some facet, ridges in exactly two
    facets, a connected dual graph."""
    V = skelDK.vertices
    miss = [set(M) for M in missing]

    def avoiding(S):
        return not any(m <= set(S) for m in miss)

    facets = [S for S in combinations(V, d) if avoiding(S)]
    if not facets:
        raise CompletionFailure("no candidate facets avoid the missing faces")
    for size in range(1, d):
        for S in combinations(V, size):
            if avoiding(S) and not any(set(S) <= set(T) for T in facets):
                raise CompletionFailure(f"maximal face {S} has size {size} < d")
    ridges = {}
    for i, T in enumerate(facets):
        for rd in combinations(T, d - 1):
            ridges.setdefault(rd, []).append(i)
    for rd, owners in sorted(ridges.items()):
        if len(owners) != 2:
            raise CompletionFailure(f"ridge {rd} lies in {len(owners)} facets, expected 2")
    seen, stack = {0}, [0]
    while stack:
        for rd in combinations(facets[stack.pop()], d - 1):
            for j in ridges[rd]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    if len(seen) != len(facets):
        raise CompletionFailure("facet dual graph is disconnected")
    return SimplicialComplex(facets=pairwise_maximal(facets))


def subset_sweep(skel, basis, d, k):
    """certificate_sweep over every vertex subset in the size window,
    skipping supersets of certified sets by a scan of the certified list,
    with one LP per sign pattern (no Farkas rays)."""
    space = _stress_space(skel, basis, k)
    certified, open_candidates = [], []
    for size in range(k + 1, d - k + 2):
        for M in combinations(skel.vertices, size):
            if any(set(prev) <= set(M) for prev in certified):
                continue
            if any(S not in space[1] for S in combinations(M, k)) or scan_has_face(skel, M):
                continue
            if any(_feasible_certificate(k, space, skel, M, F) for F in combinations(M, k - 1)):
                certified.append(M)
            else:
                open_candidates.append(M)
    return certified, open_candidates


# --- hyperplanes by Fraction differences, one loop per caller


def fraction_facet_normal(S, p, inward_witness):
    """Primitive normal through p(S), witness on the positive side; a
    single point (d = 1) has no difference rows and raises."""
    Sk = face_key(S)
    base = p.point(Sk[0])
    _, kern = kernel_basis([vec_sub(p.point(s), base) for s in Sk[1:]])
    if len(kern) != 1:
        raise DegenerateFace(f"facet {Sk} does not span a hyperplane")
    ints = _integerize([Fraction(x) for x in kern[0]])
    n = [Fraction(x, gcd(*ints)) for x in ints]
    val = dot(n, vec_sub(inward_witness, base))
    if val == 0:
        raise DegenerateFace(f"witness point lies on the hyperplane of {Sk}")
    return n if val > 0 else [-x for x in n]


def fraction_brute_force_facets(points):
    """Every d-subset spanning a hyperplane with the other points strictly
    on one side; an extra point on a supporting hyperplane raises."""
    labels = sorted(points)
    if not labels:
        raise InvalidArgument("no points")
    d = len(points[labels[0]])
    if affine_rank([points[v] for v in labels]) != d:
        raise DegenerateEmbedding("points do not span the ambient space")
    facets = set()
    for S in combinations(labels, d):
        base = points[S[0]]
        diffs = [vec_sub(points[s], base) for s in S[1:]]
        if diffs:
            _, kern = kernel_basis(diffs)
            if len(kern) != 1:
                continue
            n = kern[0]
        else:
            n = [Fraction(1)]
        vals = [dot(n, vec_sub(points[w], base)) for w in labels if w not in S]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            continue
        if any(v == 0 for v in vals):
            raise NotSimplicial(f"supporting hyperplane of {S} contains an extra point")
        facets.add(frozenset(S))
    return frozenset(facets)


def kernel_brute_force_facets(points: dict) -> frozenset:
    """Facets of conv(points) by exhaustive supporting-hyperplane tests.

    Every d-subset spanning a hyperplane with all remaining points
    strictly on one side is a facet.  A supporting hyperplane that
    picks up an extra point means the hull is not simplicial (or the
    input is degenerate) and raises.
    """
    labels = sorted(points)
    if not labels:
        raise InvalidArgument("no points")
    d = len(points[labels[0]])
    for v in labels:
        if len(points[v]) != d:
            raise InvalidArgument(f"point for vertex {v} has length {len(points[v])}, expected {d}")
    pts = dict(zip(labels, _integer_points([points[v] for v in labels])))
    if affine_rank(pts.values()) != d:
        raise DegenerateEmbedding("points do not span the ambient space")
    facets = set()
    for S in combinations(labels, d):
        h = _hyperplane([pts[s] for s in S])
        if h is None:
            continue  # affinely dependent d-subset, cannot be a simplex facet
        sides = {_side(h, pts[w]) for w in labels if w not in S}
        if {1, -1} <= sides:
            continue
        if 0 in sides:
            raise NotSimplicial(f"supporting hyperplane of {S} contains an extra point")
        facets.add(frozenset(S))
    return frozenset(facets)


def fraction_validate_checks(P):
    """validate's (name, ok, text) checks with one rank per facet for
    independence, then one kernel and Fraction dot loop per facet for support."""
    K, p, d = P.complex, P.embedding, P.d
    cover = set(K.vertices) == set(p.coords) and all(len(pt) == d for pt in p.coords.values())
    span_ok = cover and affine_rank([p.point(v) for v in K.vertices]) == d
    pure = K.is_pure() and K.dim == d - 1
    indep = span_ok and pure and all(affine_rank(p.points(S)) == len(S) - 1 for S in K.facet_keys)
    supported = indep
    for S in K.facet_keys if indep else ():
        base = p.point(S[0])
        diffs = [vec_sub(p.point(s), base) for s in S[1:]]
        n = kernel_basis(diffs)[1][0] if diffs else [Fraction(1)]
        vals = [dot(n, vec_sub(p.point(w), base)) for w in K.vertices if w not in S]
        if any(v == 0 for v in vals) or (any(v > 0 for v in vals) and any(v < 0 for v in vals)):
            supported = False
            break
    hull_ok = False
    if supported:
        try:
            hull_ok = fraction_brute_force_facets(p.coords) == K.facets
        except NotSimplicial:
            pass
    euler_ok = False
    if pure:
        f = K.f_counts()
        euler_ok = sum((-1) ** i * f[i + 1] for i in range(d)) == 1 + (-1) ** (d - 1)
    return (
        ("vertices_covered", cover, "complex vertices match embedded points"),
        ("ambient_span", span_ok, f"affine hull has dimension {d}"),
        ("pure_dimension", pure, f"all facets have {d} vertices"),
        ("facet_independence", indep, "facet points affinely independent"),
        ("supporting_hyperplanes", supported, "each facet hyperplane strictly supports"),
        ("hull_facets_match", hull_ok, "hull facets equal the complex facets"),
        ("euler", euler_ok, "boundary-sphere Euler relation"),
    )


# --- kernels and solutions by Fraction back substitution, one loop each


def _fraction_echelon(rows, limit):
    """Row echelon form over Fraction with pivots only in columns < limit:
    (rows, [(row, col), ...] in elimination order)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(limit):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
    return rows, pivots


def fraction_kernel_basis(A):
    """exactla.kernel_basis as it was: one Fraction back substitution per free column."""
    rows = _rows_of(A)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if n == 0:
        return 0, []
    if m == 0:
        return 0, [[R1 if j == i else R0 for j in range(n)] for i in range(n)]
    ech, pivots = _fraction_echelon(rows, n)
    rnk = len(pivots)
    pivot_cols = [c for _, c in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [R0] * n
        x[f] = R1
        for r in range(rnk - 1, -1, -1):
            pc = pivot_cols[r]
            if pc > f:
                continue
            acc = R0
            row = ech[r]
            for c in range(pc + 1, n):
                xc = x[c]
                if xc:
                    acc += rat(row[c]) * xc
            x[pc] = -acc / rat(row[pc])
        basis.append(x)
    return rnk, basis


def fraction_solve_linear(A, b):
    """exactla.solve_linear as it was: the rhs kept out of the pivots, a scan
    below the rank for inconsistency, its own Fraction back substitution."""
    rows = _rows_of(A)
    m = len(rows)
    n = len(rows[0]) if m else 0
    bvec = [rat(x) for x in b]
    if len(bvec) != m:
        raise InvalidArgument("rhs length mismatch")
    if n == 0:
        return [] if all(x == 0 for x in bvec) else None
    aug = [list(rows[i]) + [bvec[i]] for i in range(m)]
    ech, pivots = _fraction_echelon(aug, n)
    rnk = len(pivots)
    for r in range(rnk, m):
        if ech[r][n] != 0:
            return None
    pivot_cols = [c for _, c in pivots]
    x = [R0] * n
    for r in range(rnk - 1, -1, -1):
        pc = pivot_cols[r]
        row = ech[r]
        acc = rat(row[n])
        for c in range(pc + 1, n):
            if x[c]:
                acc -= rat(row[c]) * x[c]
        x[pc] = acc / rat(row[pc])
    return x


# --- altitudes by a rank test and a Gram system, as geometry computed
# them before exact Gram-Schmidt


def gram_altitude(F, v, p):
    """p(v) minus its orthogonal projection onto Aff(p(F)): the differences
    D from p(F0) must have full rank, then the Gram system D D^T c = D (p(v) - p(F0))
    gives the projection's coefficients."""
    Fs = face_key(F)
    if not Fs:
        raise InvalidArgument("altitude needs a nonempty base face")
    if v in Fs:
        raise InvalidArgument(f"vertex {v} lies in the base face")
    q = [Fraction(x) for x in p.point(v)]
    base, *rest = ([Fraction(x) for x in p.point(f)] for f in Fs)
    D = [vec_sub(x, base) for x in rest]
    if gauss_rank(D) < len(D):
        raise DegenerateFace(f"face {Fs} is affinely dependent")
    sol = fraction_solve_linear([[dot(a, b) for b in D] for a in D], [dot(a, vec_sub(q, base)) for a in D])
    proj = list(base)
    for c, a in zip(sol, D):
        proj = [x + c * y for x, y in zip(proj, a)]
    return vec_sub(q, proj)


# --- altitudes by exact Gram-Schmidt, and rigidity matrices, balancing
# residuals and powers of affine dependences over Fraction altitudes and
# weights, as stress built them before its integer projectors and its
# integer power


def schmidt_altitude(F, v, p):
    """p(v) minus its orthogonal projection onto Aff(p(F)), by exact
    Gram-Schmidt on the differences from p(F0); a zero residual among
    F's own points raises DegenerateFace."""
    Fs = face_key(F)
    if not Fs:
        raise InvalidArgument("altitude needs a nonempty base face")
    if v in Fs:
        raise InvalidArgument(f"vertex {v} lies in the base face")
    q = p.point(v)
    base, *rest = p.points(Fs)
    ortho = []  # (u, u.u) per difference stripped so far; p(v) comes last
    for x in [*rest, q]:
        u = vec_sub(x, base)
        for w, ww in ortho:
            c = dot(u, w)
            if c:
                u = [a - c / ww * b for a, b in zip(u, w)]
        if len(ortho) == len(rest):
            return u
        if not any(u):
            raise DegenerateFace(f"face {Fs} is affinely dependent")
        ortho.append((u, dot(u, u)))


def gram_rigidity_matrix(K, p, k):
    """The k-rigidity matrix with each (F, G) block the Fraction altitude
    `gram_altitude(F, v, p)`, v the vertex of G outside F."""
    if k < 2:
        raise InvalidArgument("rigidity matrices need k >= 2")
    d = p.dim
    Fs = K.faces_of_size(k - 1)
    Gs = K.faces_of_size(k)
    frow = {F: i for i, F in enumerate(Fs)}
    entries = [[R0] * len(Gs) for _ in range(d * len(Fs))]
    for j, G in enumerate(Gs):
        for v in G:
            F = tuple(u for u in G if u != v)
            pi = gram_altitude(F, v, p)
            if not any(pi):
                raise DegenerateFace(f"face {G} has affinely dependent points")
            for ax in range(d):
                entries[frow[F] * d + ax][j] = pi[ax]
    row_labels = tuple((F, ax) for F in Fs for ax in range(d))
    return RatMatrix.from_rows(entries, row_labels=row_labels, col_labels=tuple(Gs))


def gram_balancing_residual(sv, K, p):
    """sum of coeff(G) * gram_altitude(F, v) over the k-faces G = F + v of K,
    per (k-2)-face F."""
    k = sv.degree
    if k < 2:
        raise InvalidArgument("balancing residuals need degree >= 2")
    for F in sv.support():
        if not K.has_face(F):
            raise InvalidArgument(f"support face {F} is not in the complex")
    res = {F: [R0] * p.dim for F in K.faces_of_size(k - 1)}
    for G in K.faces_of_size(k):
        c = sv.coeffs.get(G)
        if not c:
            continue
        for v in G:
            F = tuple(u for u in G if u != v)
            res[F] = [r + c * x for r, x in zip(res[F], gram_altitude(F, v, p))]
    return {F: tuple(vec) for F, vec in res.items()}


def gram_rigidity_report(K, p):
    """is_infinitesimally_rigid's report, with the rank of the Gram
    rigidity matrix of K's graph by Fraction Gaussian elimination."""
    graph = K if K.dim <= 1 else skeleton(K, 1)
    d = p.dim
    if affine_rank([p.point(v) for v in graph.vertices]) != d:
        raise DegenerateEmbedding("embedding does not span the ambient space")
    rnk = gauss_rank(gram_rigidity_matrix(graph, p, 2).entries)
    f0 = len(graph.vertices)
    f1 = len(graph.faces_of_size(2))
    expected = d * f0 - comb(d + 1, 2)
    return RigidityReport(rigid=rnk == expected, rank=rnk, expected_rank=expected, stress_dim=f1 - rnk, d=d, f0=f0, f1=f1)


def fraction_power_stress(phi, k, K, p):
    """The k-th power of an affine 1-stress over Fraction weights, with
    the dependence test and the stress check by poly_directional along
    theta's rows."""
    if k < 1:
        raise InvalidArgument("power must be >= 1")
    weights = {v: rat(c) for v, c in phi.items() if c != 0}
    if not weights:
        raise InvalidArgument("zero linear form")
    supp = sorted(weights)
    rows = [dict(zip(supp, r)) for r in theta(p, supp).entries]
    if any(poly_directional({((v, 1),): c for v, c in weights.items()}, w) for w in rows):
        raise InvalidArgument("coefficients are not an affine dependence")
    m = min(k, len(supp))
    for S in combinations(supp, m):
        if not K.has_face(S):
            raise NotNeighborlyEnough(f"{S} is not a face, cannot raise to power {k}")
    full = {}
    for pick in combinations_with_replacement(supp, k):
        counts = {}
        for v in pick:
            counts[v] = counts.get(v, 0) + 1
        coeff = rat(factorial(k))
        for v, e in counts.items():
            coeff = coeff / rat(factorial(e)) * weights[v] ** e
        if coeff != 0:
            full[tuple(sorted(counts.items()))] = coeff
    if any(poly_directional(full, w) for w in rows):
        raise ExpansionFailure("power is not a stress; embedding inconsistent")
    return StressVector.from_full(k, full)



# --- RREF mod a prime on dense rows, as the modular kernel route
# eliminated before its rows went sparse


def dense_rref_mod(rows, p) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows mod the prime p.

    Returns (pivot rows, pivot columns), one row per pivot, in column
    order; each pivot row has 1 on its pivot column and 0 on every
    other pivot column.  Rows not yet pivoted are 0 left of the current
    column, so each update touches only the columns from there on.
    """
    rest = [[x % p for x in row] for row in rows]
    red, cols = [], []
    for col in range(len(rows[0]) if rows else 0):
        for i, row in enumerate(rest):
            if row[col]:
                break
        else:
            continue
        prow = rest.pop(i)
        inv = pow(prow[col], -1, p)
        tail = [x * inv % p for x in prow[col:]]
        prow[col:] = tail
        for group in (rest, red):
            for row in group:
                f = row[col]
                if f:
                    row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]
        red.append(prow)
        cols.append(col)
        if not rest:
            break
    return red, cols

def fraction_expand_squarefree(sv, K, p):
    """expand_squarefree's full polynomial as {flat monomial: Fraction}, or
    its ExpansionFailure message after the support check: every theta
    derivative of the unknown face-supported polynomial vanishes at each
    degree-(k-1) monomial, solved with the two Fraction eliminations above."""
    k = sv.degree
    V = K.vertices
    known = {tuple(F): Fraction(c) for F, c in sv.coeffs.items() if c}
    unknowns = [m for m in combinations_with_replacement(V, k) if len(set(m)) < k and K.has_face(m)]
    col = {m: i for i, m in enumerate(unknowns)}
    A, b = [], []
    for nu in combinations_with_replacement(V, k - 1):
        for trow in theta_rows_fractions(p.coords, V, p.dim):
            row, rhs = [Fraction(0)] * len(unknowns), Fraction(0)
            for v in V:
                m = tuple(sorted(nu + (v,)))
                if m in col:
                    row[col[m]] += trow[v] * m.count(v)
                else:  # squarefree: known or zero; off the faces: zero
                    rhs -= trow[v] * m.count(v) * known.get(m, 0)
            A.append(row)
            b.append(rhs)
    if fraction_kernel_basis(A)[1]:
        return "full polynomial is not unique for this support"
    x = fraction_solve_linear(A, b)
    if x is None:
        return "squarefree part admits no stress completion"
    full = dict(known)
    full.update((m, c) for m, c in zip(unknowns, x) if c)
    return full


# --- expand_squarefree's pairwise assembly, as it stood before every
# derivative went through poly_directional over theta's rows: each row
# pairs a degree-(k-1) face-supported monomial nu with a theta row and
# multiplies nu by each vertex whose support stays a face


def mono_mul_var(mono, v):
    out = []
    placed = False
    for u, e in mono:
        if u == v:
            out.append((u, e + 1))
            placed = True
        else:
            out.append((u, e))
    if not placed:
        out.append((v, 1))
        out.sort()
    return tuple(out)


def mono_exp(mono, v):
    for u, e in mono:
        if u == v:
            return e
    return 0


def pairwise_expand_squarefree(sv, K, p):
    """expand_squarefree on rows built pair by pair; same StressVector,
    same ExpansionFailure messages, one kernel_basis call."""
    k = sv.degree
    if k == 1:
        full = {((v, 1),): c for (v,), c in sv.coeffs.items()}
        return StressVector(degree=1, coeffs=dict(sv.coeffs), full=full)
    for F in sv.support():
        if not K.has_face(F):
            raise ExpansionFailure(f"support face {F} is not in the complex")

    unknowns = []
    for size in range(1, k):
        for S in K.faces_of_size(size):
            for exps in _compositions(k, size):
                if any(e > 1 for e in exps):
                    unknowns.append(tuple(zip(S, exps)))
    unknowns.sort()
    col = {m: i for i, m in enumerate(unknowns)}

    th = theta(p)
    verts = th.col_labels
    vcol = {v: i for i, v in enumerate(verts)}

    # rows of [A | -b]: the last column carries the known squarefree terms
    ncols = len(unknowns) + 1
    rows = []
    for size in range(1, k):
        for S in K.faces_of_size(size):
            for exps in _compositions(k - 1, size):
                nu = tuple(zip(S, exps))
                nu_supp = set(S)
                # candidate extension vertices: support stays a face
                cands = [v for v in verts if v in nu_supp or K.has_face(nu_supp | {v})]
                for i in range(p.dim + 1):
                    trow = th.entries[i]
                    row = [R0] * ncols
                    touched = False
                    for v in cands:
                        tv = trow[vcol[v]]
                        if not tv:
                            continue
                        mu = mono_mul_var(nu, v)
                        factor = rat(mono_exp(nu, v) + 1) * tv
                        if mu in col:
                            row[col[mu]] += factor
                            touched = True
                        else:
                            c = sv.coeffs.get(mono_support(mu))
                            if c:
                                row[-1] += factor * c
                                touched = True
                    if touched:
                        rows.append(row)

    _, kern = kernel_basis(rows or [[R0] * ncols])
    if kern and kern[0][-1] == 0:
        raise ExpansionFailure("full polynomial is not unique for this support")
    if not kern:
        raise ExpansionFailure("squarefree part admits no stress completion")
    sol = kern[0][:-1]

    full = {mono_from_face(F): c for F, c in sv.coeffs.items()}
    for m, x in zip(unknowns, sol):
        if x != 0:
            full[m] = x
    return StressVector(degree=k, coeffs=dict(sv.coeffs), full=full)


# --- detect's stress builders as they stood before every stress came
# from stress_basis: degree-1 recovery expanded each 2-stress to its full
# polynomial, and the missing-edge routes read the rigidity kernel


def expand_recover_stress1(P):
    """recover_stress1_from_stress2 by expand_squarefree and
    poly_directional per (basis stress, vertex)."""
    K = P.complex
    p = P.embedding
    V = K.vertices
    if len(K.face_set(2)) != comb(len(V), 2):
        raise NotNeighborlyEnough("not 2-neighborly: some 2-subset is not a face")
    vidx = {v: i for i, v in enumerate(V)}
    rows = []
    for sv in stress_basis(K, p, 2):
        full = expand_squarefree(sv, K, p).full
        for v in V:
            der = poly_directional(full, {v: R1})
            if not der:
                continue
            row = [R0] * len(V)
            for mono, c in der.items():
                (u, _), = mono
                row[vidx[u]] = c
            rows.append(row)
    _, reduced = rref(rows)
    out = []
    for row in reduced:
        coeffs = {(v,): c for v, c in zip(V, row) if c != 0}
        out.append(StressVector(degree=1, coeffs=coeffs))
    return out


def kernel_edge_stress(carrier, p, ab):
    """(kernel dimension, stress) from the 2-rigidity kernel of a
    missing-edge carrier: the first kernel vector nonzero on ab, scaled
    to 1 there, or None when every one vanishes on ab."""
    R = rigidity_matrix(carrier, p, 2)
    _, kern = kernel_basis(R)
    j = R.col_labels.index(ab)
    for vec in kern:
        if vec[j] != 0:
            return len(kern), StressVector.from_vector(2, R.col_labels, vec).scaled(R1 / vec[j])
    return len(kern), None


def caratheodory_reduce(points: dict, mu: dict):
    """Shrink a convex representation to affinely independent support.

    points maps labels to coordinates; mu is a convex-coefficient map
    over a subset of them.  The represented point is preserved while
    support points with dependent positions are eliminated one at a
    time.  Returns the reduced coefficient map.
    """
    mu = {c: rat(w) for c, w in mu.items() if w != 0}
    while True:
        supp = sorted(mu)
        # affine dependence: gamma with sum 0 and sum gamma_c p(c) = 0
        rows = list(zip(*(points[c] for c in supp))) + [[R1] * len(supp)]
        _, kern = kernel_basis(rows)
        if not kern:  # affinely independent support, the empty one included
            return mu
        gamma = kern[0]
        if all(g <= 0 for g in gamma):
            gamma = [-g for g in gamma]
        t = None
        for c, g in zip(supp, gamma):
            if g > 0:
                cand = mu[c] / g
                if t is None or cand < t:
                    t = cand
        mu = {c: mu[c] - t * g for c, g in zip(supp, gamma) if mu[c] - t * g != 0}


def swap_extend(points: dict, core: list, pool: list, d: int, avoid_pt):
    """Grow `core` to d affinely independent labels from `pool`, keeping
    avoid_pt outside the affine hull of the result.  Greedy with a
    one-swap repair; returns the extended list or None."""

    def independent(labels):
        return affine_rank([points[c] for c in labels]) == len(labels) - 1

    chosen = list(core)
    for c in pool:
        if len(chosen) == d:
            break
        if c in chosen:
            continue
        if independent(chosen + [c]):
            chosen.append(c)
    if len(chosen) < d:
        return None
    if affine_rank([points[c] for c in chosen] + [avoid_pt]) == d:
        return chosen
    # the hull of the greedy pick caught the forbidden point; try swaps
    for out in chosen:
        if out in core:
            continue
        for repl in pool:
            if repl in chosen:
                continue
            trial = [c for c in chosen if c != out] + [repl]
            if independent(trial) and affine_rank([points[c] for c in trial] + [avoid_pt]) == d:
                return sorted(trial)
    return None


# --- detect's carriers as they were built before each took one construction


def graph_edge_carrier(facets, extra):
    """The d >= 4 missing-edge carrier in three constructions: the
    complex of the facets met by the BFS paths, its 1-skeleton, then
    that graph with the extra edges a-c and ab."""
    graph = skeleton(build_complex(facets), 1)
    return build_complex([*graph.facets, *extra])


def star_quotient_carrier(K, tau, G):
    """quotient_certificate's carrier as the star of tau, with G adjoined."""
    return build_complex([*star(K, tau).facets, frozenset(G)])
