import os
import pathlib
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells.linalg import kernel_basis, rank, rref, solve_unique


# ---------------------------------------------------------------------------
# the reference: plain Gauss–Jordan over Fraction rows


def reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[Fraction(0)] * ncols for _ in range(len(m) - r)], pivots


def reference_kernel(rows, ncols):
    reduced, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    reduced, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots or len(pivots) < ncols:
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][ncols]
    return sol


# ---------------------------------------------------------------------------
# rational matrices with zero rows, duplicate rows, fractions and huge entries

HUGE = 2**70

entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(lambda x, sign: x * sign, st.integers(HUGE, 4 * HUGE), st.sampled_from([1, -1])),
    st.builds(Fraction, st.integers(-3 * HUGE, 3 * HUGE), st.integers(1, HUGE)),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([1, -1, Fraction(2, 3), HUGE]))
        rows.insert(draw(st.integers(0, len(rows))), [x * scale for x in row])
    # some cases as Fraction rows, as the bimodule code passes them
    if draw(st.booleans()):
        rows = [[Fraction(x) for x in row] for row in rows]
    return ncols, rows


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_integer_rref_matches_fraction_gauss_jordan(case):
    ncols, rows = case
    want = reference_rref(rows)
    got = rref(rows)
    assert got == want
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert rank(rows) == len(want[1])
    assert kernel_basis(rows, ncols) == reference_kernel(rows, ncols)
    if rows:
        assert kernel_basis(rows) == reference_kernel(rows, ncols)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_unique_matches_fraction_gauss_jordan(case, data):
    ncols, rows = case
    if not rows:
        assert solve_unique(rows, []) is None
        return
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    assert solve_unique(rows, rhs) == reference_solve(rows, rhs)


def test_rref_edge_cases():
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert rref([[HUGE, HUGE + 1], [1, 1]]) == ([[1, 0], [0, 1]], [0, 1])
    assert rref([["1/2", 1.5]]) == ([[1, 3]], [0])
    assert solve_unique([[2, 1], [4, 2]], [1, 2]) is None  # underdetermined
    assert solve_unique([[1, 1], [1, 1]], [1, 2]) is None  # inconsistent
    assert solve_unique([[3, 0], [0, Fraction(1, 7)]], [1, 1]) == [Fraction(1, 3), 7]


def test_mat_mul_rejects_mismatched_shapes_under_python_O():
    # a 1x3 times a 2x1 would silently read [[5]] if the check were an assert
    import fiatcells

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fiatcells.__file__).parents[1]))
    code = (
        "from fiatcells.linalg import mat_mul\n"
        "try:\n"
        "    print(mat_mul([[1, 2, 3]], [[1], [2]]))\n"
        "except ValueError as e:\n"
        "    print('ValueError:', e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError: inner dimensions differ"), proc.stdout
