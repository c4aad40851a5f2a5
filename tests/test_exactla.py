import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    dense_rref_mod,
    fraction_kernel_basis,
    fraction_rref,
    fraction_simplex,
    fraction_solve_linear,
    gauss_rank,
    sign_system_feasible,
)
from polystress import exactla
from polystress.errors import InternalArithmeticError, InvalidArgument, ParseError
from polystress.exactla import (
    RatMatrix,
    kernel_basis,
    pattern_feasible,
    rank,
    rref,
    simplex,
    solve_linear,
    strict_feasible,
)
from polystress.rat import Rat, parse_rat, rat, rat_str, sign

# --- rationals


def test_rat_str_forms():
    assert rat_str(Rat(5)) == "5"
    assert rat_str(Rat(-7, 2)) == "-7/2"
    assert rat_str(Rat(2, 4)) == "1/2"


def test_parse_rat_round_trip():
    for text in ("0", "17", "-3", "5/9", "-12/7"):
        assert rat_str(parse_rat(text)) == text


@pytest.mark.parametrize("bad", ["", "/2", "1/0", "a", "1/2/3", "1.5", "1_0", " 3 ", "\u0663", "+3", "1/-2", "3\n", "1" * 5000])
def test_parse_rat_rejects(bad):
    with pytest.raises(ParseError):
        parse_rat(bad)


@pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, float("nan")])
def test_rat_rejects_bool_and_float(bad):
    with pytest.raises(InvalidArgument):
        rat(bad)


@pytest.mark.parametrize("bad", ["1/2", " 3 ", Decimal("0.1"), None])
def test_rat_rejects_strings_and_other_types(bad):
    with pytest.raises(InvalidArgument, match="use ints or rationals"):
        rat(bad)


def test_rat_passes_ints_and_rationals():
    half = Rat(1, 2)
    assert rat(half) is half
    assert rat(-3) == Rat(-3) and type(rat(-3)) is Rat
    assert rat(1, 2) == half


def test_sign():
    assert sign(Rat(3, 7)) == 1
    assert sign(Rat(0)) == 0
    assert sign(Rat(-1, 9)) == -1


# --- kernel / rank


def test_kernel_identity():
    A = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r, basis = kernel_basis(A)
    assert r == 3
    assert basis == []


def test_kernel_one_row():
    r, basis = kernel_basis([[1, 1]])
    assert r == 1
    assert len(basis) == 1
    v = basis[0]
    # forced up to scale
    assert v[0] == -v[1] != 0


def test_kernel_zero_matrix_and_rows():
    r, basis = kernel_basis([[0, 0, 0]])
    assert r == 0 and len(basis) == 3
    assert kernel_basis([]) == kernel_basis([[], []]) == (0, [])
    assert rank([[0, 0], [0, 0]]) == 0


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def int_matrix(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]


@settings(deadline=None, max_examples=80)
@given(int_matrix())
def test_kernel_properties(rows):
    r, basis = kernel_basis(rows)
    ncols = len(rows[0])
    assert r + len(basis) == ncols
    assert r == gauss_rank(rows)
    for v in basis:
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0
    # determinism
    assert kernel_basis(rows) == (r, basis)


@settings(deadline=None, max_examples=60)
@given(int_matrix(max_rows=4, max_cols=4), st.lists(small_entries, min_size=4, max_size=4))
def test_solve_linear_consistent(rows, x0):
    x0 = x0[: len(rows[0])]
    b = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    xs = solve_linear(rows, b)
    assert xs is not None
    got = [sum(a * x for a, x in zip(row, xs)) for row in rows]
    assert got == [Rat(c) for c in b]


def test_solve_linear_spec_cases():
    assert solve_linear([[1, 0], [0, 1]], [3, 4]) == [Rat(3), Rat(4)]
    assert solve_linear([[0, 0]], [1]) is None
    # normal equations for projecting e1 onto span{(1,1,0)}
    assert solve_linear([[2]], [1]) == [Rat(1, 2)]
    # no rows, or rows without columns
    assert solve_linear([], []) == []
    assert solve_linear([[], []], [0, 0]) == []
    assert solve_linear([[], []], [0, 1]) is None
    with pytest.raises(InvalidArgument):
        solve_linear([[1]], [])


def test_inexact_division_raises_internal_arithmetic_error():
    # rows that are no fraction-free echelon: their pivots are not leading minors
    with pytest.raises(InternalArithmeticError):
        exactla._pivot_step([[1, 1]], [2, 1], 0, 3)
    with pytest.raises(InternalArithmeticError):
        exactla._back_substitute([[2, 0, 1], [0, 3, 1]], [(0, 0), (1, 1)], 3, 2)
    with pytest.raises(InternalArithmeticError):
        simplex([1, 0], A_ub=[[-1, 1]], b_ub=[0])


def test_int_input_reaches_rat_only_in_the_readout(monkeypatch):
    calls = []

    def counted(a, b=1):
        calls.append((a, b))
        return rat(a, b)

    monkeypatch.setattr(exactla, "rat", counted)
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, -1, 5]]
    r, basis = kernel_basis(rows)
    assert (r, len(basis)) == (2, 2)
    assert len(calls) == 4 * len(basis)  # one per coordinate of each kernel vector
    calls.clear()
    status, x, value = simplex([1, 1, 0], A_ub=[[1, 0, 1], [0, 1, 1]], b_ub=[1, 2], A_eq=[[1, -1, 0]], b_eq=[0])
    assert (status, x, value) == ("optimal", [1, 1, 0], 2)
    assert len(calls) <= len(x) + 1  # the basic coordinates of x, and the value


_ENTRY_POINTS = [
    ("rank", lambda e: rank([[1, e]])),
    ("kernel_basis", lambda e: kernel_basis([[1, e]])),
    ("solve_linear A", lambda e: solve_linear([[1, e]], [1])),
    ("solve_linear b", lambda e: solve_linear([[1, 2]], [e])),
    ("rref", lambda e: rref([[1, e]])),
    ("simplex obj", lambda e: simplex([1, e], A_ub=[[1, 1]], b_ub=[1])),
    ("simplex A_ub", lambda e: simplex([1, 1], A_ub=[[1, e]], b_ub=[1])),
    ("simplex b_eq", lambda e: simplex([1, 1], A_eq=[[1, 1]], b_eq=[e])),
    ("strict_feasible", lambda e: strict_feasible([[1, e]], [0], [1])),
    ("pattern_feasible", lambda e: pattern_feasible([[1, e]], [0], None)),
]


@pytest.mark.parametrize("bad", [True, 0.5], ids=["bool", "float"])
@pytest.mark.parametrize("call", [c for _, c in _ENTRY_POINTS], ids=[name for name, _ in _ENTRY_POINTS])
def test_entry_points_reject_bool_and_float(call, bad):
    with pytest.raises(InvalidArgument, match="use ints or rationals"):
        call(bad)


def test_rref_fixed_point():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    pivots, red = rref(rows)
    assert list(pivots) == sorted(pivots)
    assert rref(list(map(list, red)))[1] == red


# --- simplex


def test_simplex_box():
    status, x, val = simplex([1, 1], A_ub=[[1, 0], [0, 1]], b_ub=[1, 2])
    assert status == "optimal"
    assert val == 3
    assert x == [Rat(1), Rat(2)]


def test_simplex_infeasible():
    status, _, _ = simplex([1], A_ub=[[1], [-1]], b_ub=[-1, 0])
    assert status == "infeasible"


def test_simplex_equality():
    status, x, val = simplex([0, 1], A_eq=[[1, 1]], b_eq=[1], A_ub=[[0, 1]], b_ub=[Rat(1, 3)])
    assert status == "optimal"
    assert val == Rat(1, 3)
    assert x[0] + x[1] == 1


def test_simplex_drive_out_and_redundant_row():
    # phase 1 ends with three artificials basic at zero: two leave on
    # negative pivots, the third sits on a redundant row that is dropped
    out = simplex(
        [2, Rat(-3, 2)],
        A_ub=[[1, 1]],
        b_ub=[5],
        A_eq=[[0, Rat(-3, 2)], [0, -1], [Rat(-3, 2), -1]],
        b_eq=[0, 0, 0],
    )
    assert out == ("optimal", [Rat(0), Rat(0)], Rat(0))


def test_simplex_rejects_rhs_length_mismatch():
    # a zip of rows and rhs would drop the extra b_ub entry, or every equality
    with pytest.raises(InvalidArgument, match="rhs length mismatch"):
        simplex([1], A_ub=[[1]], b_ub=[5, -1])
    with pytest.raises(InvalidArgument, match="rhs length mismatch"):
        simplex([1], A_eq=[[1]], b_eq=[])


def test_simplex_unbounded_raises():
    with pytest.raises(ArithmeticError):
        simplex([1, 0], A_ub=[[-1, 1]], b_ub=[0])


# --- integer tableau and rref vs the Fraction versions they replaced

# ints and Fractions mixed, as callers pass them
small_rats = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.integers(min_value=-4, max_value=4),
)


@st.composite
def rat_rows(draw, ncols, max_rows):
    rows = draw(st.lists(st.lists(small_rats, min_size=ncols, max_size=ncols), max_size=max_rows))
    if rows and draw(st.booleans()):  # a dependent row
        c = draw(small_rats)
        rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
    return rows


@st.composite
def small_lp(draw):
    n = draw(st.integers(1, 3))
    A_ub = draw(rat_rows(n, 3))
    A_eq = draw(rat_rows(n, 3))
    b_ub = [draw(small_rats) for _ in A_ub]
    if draw(st.booleans()):  # equalities through a point x0 >= 0, so dependent rows stay consistent
        x0 = [abs(draw(small_rats)) for _ in range(n)]
        b_eq = [sum(a * x for a, x in zip(row, x0)) for row in A_eq]
    else:
        b_eq = [draw(small_rats) for _ in A_eq]
    # a zero objective makes x the vertex phase 1 stops at
    obj = [draw(small_rats) for _ in range(n)] if draw(st.booleans()) else [0] * n
    return obj, A_ub, b_ub, A_eq, b_eq


def _outcome(solve, obj, **kw):
    try:
        return solve(obj, **kw)
    except ArithmeticError as exc:  # "unbounded LP" on both sides, anything else differs
        return str(exc)


@settings(deadline=None, max_examples=200)
@given(small_lp())
# rows with denominators must leave the phase-1 pivot path, and so this
# feasibility LP's answer, as it was; random cases rarely tell
@example(
    (
        [0, 0, 0],
        [[Fraction(-20, 7), 0, Fraction(-5, 2)]],
        [2],
        [[Fraction(-23, 7), -3, Fraction(1, 2)], [0, Fraction(13, 5), 3]],
        [0, Fraction(18, 7)],
    )
)
def test_simplex_matches_fraction_tableau(lp):
    obj, A_ub, b_ub, A_eq, b_eq = lp
    kw = dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    assert _outcome(simplex, obj, **kw) == _outcome(fraction_simplex, obj, **kw)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 5).flatmap(lambda n: rat_rows(n, 5)))
def test_rref_matches_fraction_gauss_jordan(rows):
    assert rref(rows) == fraction_rref(rows)


# --- the integer readout vs the Fraction back substitutions it replaced


@st.composite
def linear_system(draw):
    """A x = b with no rows or no columns, tall or wide, singular through a
    dependent row, and b in the column span of A or drawn freely."""
    n = draw(st.integers(0, 5))
    A = draw(rat_rows(n, 6))
    if draw(st.booleans()):
        x0 = [draw(small_rats) for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in A]
    else:
        b = [draw(small_rats) for _ in A]
    return A, b


@settings(deadline=None, max_examples=300)
@given(linear_system())
@example(([], []))
@example(([[], []], [0, 1]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[1, 2], [2, 4], [1, 3]], [1, 2, 0]))
def test_kernel_and_solve_match_fraction_back_substitution(system):
    A, b = system
    assert kernel_basis(A) == fraction_kernel_basis(A)
    assert solve_linear(A, b) == fraction_solve_linear(A, b)


# --- the modular kernel route vs Bareiss and the Fraction oracle

P61 = exactla._PRIME


def modular_kernel(A):
    """`_modular_kernel` read as `kernel_basis` reads `_kernel`: (rank, basis)."""
    rows = exactla._int_rows(A)
    out = exactla._modular_kernel(rows, len(rows[0]) if rows else 0)
    return out and (len(out[0]), out[1])


def kernel_basis_at_cutoff(A, cells):
    """`kernel_basis` with `_MODULAR_CELLS` set to cells."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exactla, "_MODULAR_CELLS", cells)
        return kernel_basis(A)


@pytest.fixture
def eliminations(monkeypatch):
    """(row count, logged) of each elimination mod p.  A kernel makes one,
    logged, and lifts from that log: no block of it is eliminated again."""
    seen = []
    real = exactla._rref_mod

    def spy(rows, p, log=None):
        assert p == P61
        seen.append((len(rows), log is not None))
        return real(rows, p, log)

    monkeypatch.setattr(exactla, "_rref_mod", spy)
    return seen


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda n: rat_rows(n, 6)))
@example([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, -1, 5]])
@example([[0, 0, 0]])
@example([[], []])
@example([])
def test_modular_kernel_matches_bareiss_and_fraction_oracle(A):
    # below the cutoff, kernel_basis is the Bareiss route
    assert len(A) * len(A[0] if A else ()) < exactla._MODULAR_CELLS
    assert modular_kernel(A) == kernel_basis(A) == fraction_kernel_basis(A)


def test_modular_kernel_moves_on_when_the_rank_drops_mod_p(monkeypatch, eliminations):
    # mod 2^61-1 the matrix is 0, so e_0 and e_1 read off as a kernel:
    # only the exact check A x = 0 rejects them, and with no pivot the
    # Hadamard bound is 1, so no lifting can help and Bareiss takes over
    assert modular_kernel([[P61, P61]]) is None
    monkeypatch.setattr(exactla, "_MODULAR_CELLS", 1)
    assert kernel_basis([[P61, P61]]) == (1, [[-1, 1]])
    assert eliminations == [(1, True), (1, True)]


def test_modular_kernel_escalates_past_the_reconstruction_bound(eliminations):
    # x_0 = 2^40 exceeds sqrt(p/2) for p = 2^61-1, where the residue reads
    # back as 1/2^21; the check rejects that, and one lifting step to
    # p^2, replaying the elimination's own log, holds 2^40
    A = [[1, -(1 << 40)], [2, -(1 << 41)]]
    assert modular_kernel(A) == kernel_basis(A) == (1, [[1 << 40, 1]])
    assert eliminations == [(2, True)]


def test_kernel_basis_lifts_far_past_the_reconstruction_bound(monkeypatch, eliminations):
    # 2^600 needs sqrt(p^k / 2) >= 2^600, so k = 20: nineteen lifting
    # steps from the one logged elimination, within the largest row's
    # Hadamard bound
    A = [[1, -(1 << 600)], [0, 0]]
    monkeypatch.setattr(exactla, "_MODULAR_CELLS", 1)
    lifts = []
    real = exactla._lift

    def counted(*args):
        for out in real(*args):
            lifts.append(out[1])
            yield out

    monkeypatch.setattr(exactla, "_lift", counted)
    assert kernel_basis(A) == (1, [[1 << 600, 1]])
    assert eliminations == [(2, True)]
    assert lifts == [P61**k for k in range(2, 21)]
    assert modular_kernel(A) == kernel_basis(A)


def test_lifting_rejects_a_log_that_does_not_invert_the_pivot_block(monkeypatch, eliminations):
    # A_P = [[2, 1], [1, 3]]: a replay that skips the first logged step
    # reads wrong digits, and the residual they leave is not divisible
    # by p, so the modular route gives up and Bareiss answers
    A = [[2, 1, -(1 << 40)], [1, 3, 1 << 41]]
    assert modular_kernel(A) == fraction_kernel_basis(A)
    real = exactla._replay
    monkeypatch.setattr(exactla, "_replay", lambda log, v, p: real(log[1:], v, p))
    assert modular_kernel(A) is None
    monkeypatch.setattr(exactla, "_MODULAR_CELLS", 1)
    assert kernel_basis(A) == fraction_kernel_basis(A)
    assert eliminations == [(2, True)] * 3


# sparse, with entries far past sqrt(p/2), so that nearly every kernel
# vector is lifted, and multiples of p, so that some ranks drop mod p
large_sparse = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-(1 << 70), 1 << 70), st.sampled_from([P61, 2 * P61, 1 << 61])
)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(large_sparse, min_size=n, max_size=n), min_size=1, max_size=6)))
@example([[1, -(1 << 70), 0], [0, 3, 1 << 69]])
@example([[P61, 1 << 61, 0], [1, 1, 1]])
def test_lifted_kernel_matches_bareiss_and_fraction_oracle(A):
    got = kernel_basis_at_cutoff(A, 1)
    assert got == kernel_basis_at_cutoff(A, float("inf")) == fraction_kernel_basis(A)
    assert modular_kernel(A) in (None, got)


def sparse_rref_mod(rows, p):
    """`_rref_mod` on dense integer rows: its pivot rows read back as
    dense rows, its pivot columns, and its origins.  Checks that the
    logged steps, replayed on each column of A, give T A = the pivot
    rows at their origins and 0 on every other row, mod p."""
    n = len(rows[0]) if rows else 0
    log = []
    red, cols, origin = exactla._rref_mod(exactla._sparse(rows), p, log)
    # no stored zero, and every entry a residue
    assert all(0 < a < p for row in red for a in row.values())
    dense = [[row.get(j, 0) for j in range(n)] for row in red]
    at = dict(zip(origin, dense))
    for j in range(n):
        v = [row[j] % p for row in rows]
        exactla._replay(log, v, p)
        assert v == [at[i][j] if i in at else 0 for i in range(len(rows))]
    return dense, cols, origin


# mostly zeros; the large entries are 0, -1 and 1 mod 2^61-1, and 2^70
mostly_zero = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-6, 6), st.sampled_from([P61, -2 * P61 - 1, P61 + 1, 1 << 70])
)
sparse_int_matrix = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(mostly_zero, min_size=n, max_size=n), max_size=8)
)


@settings(deadline=None, max_examples=300)
@given(sparse_int_matrix, st.sampled_from([2, 3, 5, P61]), st.randoms(use_true_random=False))
@example([[3, -6, 0], [9, 0, 3]], 3, random.Random(0))  # every entry a multiple of p
@example([[1, 2, 0], [2, 4, 0], [0, 1, 5]], P61, random.Random(0))  # row 1 cancels on the first pivot
@example([[1, 1, 1], [4, 0, 0], [0, 2, 2]], 5, random.Random(1))  # the sparser row 1 pivots column 0
@example([[1, 0, 2], [1, 1, 0], [0, 0, 1]], 5, random.Random(0))  # a tie: the last short row pivots
@example([], 2, random.Random(0))
def test_sparse_rref_mod_matches_dense_oracle(rows, p, rnd):
    want = dense_rref_mod(rows, p)
    red, cols, origin = sparse_rref_mod(rows, p)
    assert (red, cols) == want
    assert len(set(origin)) == len(origin)
    # the RREF is unique, so no order of the rows may change it
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    assert sparse_rref_mod(shuffled, p)[:2] == want


@st.composite
def block_rows(draw):
    """(rows, p): blocks of rows that share one support, as a rigidity
    matrix's rows of one face do.  Each block holds independent rows and
    multiples of them, so it may be rank-deficient; entries include
    multiples of p, which change a row's support mod p."""
    p = draw(st.sampled_from([2, 3, 5, P61]))
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-6, -1), st.integers(1, 6), st.sampled_from([p, -2 * p, p + 1, 1 << 70]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        size = len(support)
        bases = draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=1, max_size=3))
        multiples = draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), st.sampled_from([-2, -1, 2, 3])), max_size=3))
        for b in bases + [[c * x for x in bases[i]] for i, c in multiples]:
            row = [0] * n
            for j, x in zip(support, b):
                row[j] = x
            rows.append(row)
    return rows, p


@settings(deadline=None, max_examples=300)
@given(block_rows(), st.randoms(use_true_random=False))
@example(([[1, 2, 0], [2, 4, 0], [3, 1, 0], [0, 0, 5]], 7), random.Random(0))  # a rank-2 block of three rows
@example(([[1, 2], [3, 2]], 2), random.Random(0))  # one support over Z, two mod 2
def test_block_phase_keeps_the_rref_in_any_row_order(system, rnd):
    rows, p = system
    want = dense_rref_mod(rows, p)
    assert sparse_rref_mod(rows, p)[:2] == want
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    assert sparse_rref_mod(shuffled, p)[:2] == want


def test_rref_mod_breaks_a_tie_by_the_last_row():
    rows = [{0: 1, 2: 2}, {0: 1, 1: 1}, {2: 1}]
    assert exactla._rref_mod(rows, 5)[2] == [1, 0, 2]


def test_replay_inverts_the_logged_elimination():
    rng = random.Random(0)
    p = 101
    for _ in range(50):
        n = rng.randint(1, 6)
        B = [[rng.choice([0, 0, rng.randint(1, p - 1)]) for _ in range(n)] for _ in range(n)]
        log = []
        red, cols, origin = exactla._rref_mod([{j: a for j, a in enumerate(r) if a} for r in B], p, log)
        if len(cols) < n:
            continue
        b = [rng.randint(0, p - 1) for _ in range(n)]
        v = b[:]
        exactla._replay(log, v, p)
        x = [v[i] for i in origin]
        assert [sum(a * xj for a, xj in zip(row, x)) % p for row in B] == b


def _low_rank(seed, m=60, n=45, r=16):
    """A seeded m x n integer matrix of rank at most r, m * n above the cutoff."""
    rng = random.Random(seed)
    L = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*R)] for row in L]


@pytest.mark.parametrize("seed", [0, 1])
def test_rref_and_solve_linear_above_the_cutoff(seed, no_large_bareiss):
    A = _low_rank(seed)
    assert len(A) * len(A[0]) >= exactla._MODULAR_CELLS
    pivots, red = rref(A)
    assert (pivots, red) == fraction_rref(A)
    assert len(pivots) < len(A[0])
    rng = random.Random(seed)
    x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in A[0]]
    consistent = [sum(a * x for a, x in zip(row, x0)) for row in A]
    inconsistent = [rng.randint(-9, 9) for _ in A]
    for b in (consistent, inconsistent):
        assert solve_linear(A, b) == fraction_solve_linear(A, b)
    assert solve_linear(A, inconsistent) is None


_RAGGED = [
    ("kernel_basis", lambda: kernel_basis([[1, 2], [3]])),
    ("rank", lambda: rank([[1, 2], [3]])),
    ("rref", lambda: rref([[1, 2], [3]])),
    ("solve_linear", lambda: solve_linear([[1, 2], [3]], [1, 2])),
    ("RatMatrix", lambda: RatMatrix.from_rows([[1, 2], [3]])),
    # a long row's third entry would be read as a slack coefficient
    ("simplex long A_ub row", lambda: simplex([1, 1], A_ub=[[1, 1, 1], [1, 1]], b_ub=[1, 2])),
    ("simplex short A_ub row", lambda: simplex([1, 1], A_ub=[[1], [1, 1]], b_ub=[1, 2])),
    ("simplex short A_eq row", lambda: simplex([1, 1], A_eq=[[1]], b_eq=[1])),
    ("strict_feasible", lambda: strict_feasible([[1, 2], [1]], [1], [])),
    ("strict_feasible no strict", lambda: strict_feasible([[1, 2], [1]], [], [])),
    ("pattern_feasible", lambda: pattern_feasible([[1, 2], [1]], [0], None)),
]


@pytest.mark.parametrize("call", [c for _, c in _RAGGED], ids=[name for name, _ in _RAGGED])
def test_ragged_rows_are_rejected(call):
    with pytest.raises(InvalidArgument, match="ragged rows"):
        call()


# --- strict_feasible vs Fourier-Motzkin oracle


def test_strict_feasible_spec_cases():
    assert strict_feasible([[1, -1]], [], [0, 1]) == [Rat(0), Rat(0)]
    w = strict_feasible([[1, -1]], [0], [1])
    assert w is not None and w[0] > 0 and w[1] <= 0
    assert strict_feasible([[1, 1]], [0], [1]) is None
    assert strict_feasible([], [0], []) is None
    # coordinates are range-checked with or without strict ones
    for strict in ([0], []):
        with pytest.raises(InvalidArgument, match="coordinate 9 out of range"):
            strict_feasible([[1, 2]], strict, [9])


@st.composite
def sign_problem(draw):
    nb = draw(st.integers(1, 3))
    nc = draw(st.integers(1, 5))
    basis = [[draw(small_entries) for _ in range(nc)] for _ in range(nb)]
    coords = list(range(nc))
    strict = draw(st.lists(st.sampled_from(coords), unique=True, max_size=nc))
    rest = [i for i in coords if i not in strict]
    weak = draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest))) if rest else []
    return basis, strict, weak


@settings(deadline=None, max_examples=120)
@given(sign_problem())
def test_strict_feasible_matches_oracle(problem):
    basis, strict, weak = problem
    witness = strict_feasible(basis, strict, weak)
    feasible = sign_system_feasible(
        [[Fraction(c) for c in row] for row in basis], strict, weak
    )
    if witness is None:
        assert not feasible
    else:
        assert feasible or not strict  # empty strict is vacuously satisfiable
        for i in strict:
            assert witness[i] > 0
        for i in weak:
            assert witness[i] <= 0
        # deterministic
        assert strict_feasible(basis, strict, weak) == witness


def test_pattern_feasible_spec_cases():
    assert pattern_feasible([[1, -1]], [], None)  # nothing strict: x = 0
    assert pattern_feasible([[1, -1]], [0], None)
    assert not pattern_feasible([[1, 1]], [0], None)
    assert not pattern_feasible([], [0], None)  # the span is {0}
    with pytest.raises(InvalidArgument, match="coordinate 9 out of range"):
        pattern_feasible([[1, 2]], [9], None)


@st.composite
def sign_query_sequence(draw):
    nb = draw(st.integers(1, 3))
    nc = draw(st.integers(1, 5))
    basis = [[draw(small_entries) for _ in range(nc)] for _ in range(nb)]
    strict = st.lists(st.integers(0, nc - 1), unique=True, max_size=nc)
    return basis, draw(st.lists(strict, min_size=1, max_size=10))


@settings(deadline=None, max_examples=200)
@given(sign_query_sequence())
@example(([[1, 1, 0]], [[0], [0, 2]]))  # the second query is skipped
@example(([[0, 0, 0]], [[0], [1, 2], []]))  # a rank-0 span
@example(([[1, 0, 2], [0, 0, 1]], [[0, 2], [1], [0]]))  # an all-zero column
@example(([[1, 2, -1], [0, 1, 1]], [[0, 1], [2], [0, 2], [1, 2]]))  # strict pivots and non-pivots
def test_pattern_feasible_with_shared_rays_matches_fresh_lps_and_oracle(problem):
    # every coordinate not strict is weak
    basis, queries = problem
    exact = [[Fraction(c) for c in row] for row in basis]
    rows = [exactla._integerize(r) for r in rref(basis)[1]]  # as the sweep's local spans hold it
    rays = []
    for strict in queries:
        weak = [j for j in range(len(basis[0])) if j not in strict]
        got = pattern_feasible(rows, strict, rays)
        assert got == pattern_feasible(rows, strict, None)
        assert got == (strict_feasible(basis, strict, weak) is not None)
        assert got == sign_system_feasible(exact, strict, weak)
    # every stored ray is a Farkas certificate: its own pattern is infeasible
    for pos, neg in rays:
        assert pos
        assert not sign_system_feasible(exact, sorted(pos), sorted(neg))


def test_pattern_feasible_skips_a_query_a_stored_ray_settles(monkeypatch):
    # span{(1, 1, 0)}: x_0 > 0 forces x_1 > 0, so the first query stores
    # the ray ({0}, {1}), which settles the second without an LP
    lps = []
    real = exactla._solve
    monkeypatch.setattr(exactla, "_solve", lambda *a: lps.append(1) or real(*a))
    rays = []
    assert not pattern_feasible([[1, 1, 0]], [0], rays)
    assert rays == [({0}, {1})]
    assert not pattern_feasible([[1, 1, 0]], [0, 2], rays)
    assert pattern_feasible([[1, 1, 0]], [0, 1], rays)
    assert len(lps) == 2


@settings(deadline=None, max_examples=200)
@given(sign_problem())
@example(([[1, 1, 0], [0, 1, 1]], [0], [2]))  # restricted to two columns, the span is all of Q^2
@example(([[0, 0, 1]], [0], [1]))  # the restriction is zero: no rref rows
def test_strict_feasible_over_the_projected_span_agrees(problem):
    # the sweep's local LP: the same query over the rref of the basis
    # restricted to strict + weak, in those columns' positions
    basis, strict, weak = problem
    cols = sorted(strict + weak)
    at = {c: i for i, c in enumerate(cols)}
    _, rows = rref([[row[c] for c in cols] for row in basis])
    local = strict_feasible([exactla._integerize(r) for r in rows], [at[i] for i in strict], [at[j] for j in weak])
    assert (local is None) == (strict_feasible(basis, strict, weak) is None)


def test_pattern_feasible_rejects_a_ray_off_the_basis(monkeypatch):
    # a corrupted objective row gives a w that is no Farkas ray: the
    # exact check raises before the ray is stored
    real = exactla._solve

    def corrupt(*args):
        status, x, value, z = real(*args)
        z = z[:]
        z[2] = -z[2]  # the weak non-pivot row's slack; columns y_0 and t come first
        return status, x, value, z

    monkeypatch.setattr(exactla, "_solve", corrupt)
    rays = []
    with pytest.raises(InternalArithmeticError, match="Farkas ray"):
        pattern_feasible([[1, 1]], [0], rays)
    assert rays == []
    with pytest.raises(InternalArithmeticError, match="Farkas ray"):
        pattern_feasible([[1, 1]], [0], None)  # checked with or without a ray list
    assert strict_feasible([[1, 1]], [0], [1]) is None  # the witness LP reads no duals


def test_pattern_feasible_rejects_a_witness_off_its_pattern(monkeypatch):
    # span{(1, 1)} has no x with x_0 > 0 >= x_1; an LP claiming one must not pass
    monkeypatch.setattr(exactla, "_solve", lambda *a: ("optimal", [Rat(1), Rat(1)], Rat(1), None))
    with pytest.raises(InternalArithmeticError, match="sign pattern"):
        pattern_feasible([[1, 1]], [0], [])


def test_vector_helpers():
    assert exactla.dot([1, 2], [3, 4]) == 11
    assert exactla.vec_add([1, 2], [3, 4]) == [Rat(4), Rat(6)]
    assert exactla.vec_sub([1, 2], [3, 4]) == [Rat(-2), Rat(-2)]
    assert exactla.vec_scale(Rat(1, 2), [4, 6]) == [Rat(2), Rat(3)]
    assert exactla.is_zero_vec([Rat(0), Rat(0)])
    assert not exactla.is_zero_vec([Rat(0), Rat(1)])
