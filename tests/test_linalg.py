"""Exact elimination: tails, kernels, inverses and coordinates, on random
matrices over Q(zeta_8) and Q(zeta_24)."""

import random
from fractions import Fraction

import pytest

from qsl3.algebra import express_in_basis
from qsl3.exact import CycNum, field_degree
from qsl3.linalg import Echelon, invert, mat_mul, nullspace, rank

ORDERS = (8, 24)


def rand_cyc(rng, order):
    """A random element, often zero or rational, as in the module matrices."""
    kind = rng.random()
    if kind < 0.3:
        return CycNum.zero(order)
    if kind < 0.6:
        return CycNum.from_rat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), order)
    return CycNum(order, [Fraction(rng.randint(-2, 2)) for _ in range(field_degree(order))])


def rand_mat(rng, order, m, n):
    return [[rand_cyc(rng, order) for _ in range(n)] for _ in range(m)]


def combo(coeffs, rows, zero):
    """sum coeffs[i] * rows[i]."""
    out = [zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


def mat_vec(rows, v, zero):
    return [sum((x * y for x, y in zip(row, v)), zero) for row in rows]


def by_hand(vectors, n):
    """Incremental reduced echelon form with the tail kept as its own list,
    every operation on the head repeated on the tail, as hom_space did
    before the engine took tails: (rows as (pivot, head, tail), relations)."""
    rows, relations = [], []
    for vec in vectors:
        head, tail = list(vec[:n]), list(vec[n:])
        for p, rh, rt in rows:
            c = head[p]
            if c:
                head = [x - c * y for x, y in zip(head, rh)]
                tail = [x - c * y for x, y in zip(tail, rt)]
        piv = next((j for j, x in enumerate(head) if x), None)
        if piv is None:
            if any(tail):
                relations.append(tail)
            continue
        inv = head[piv].inv()
        head = [x * inv for x in head]
        tail = [x * inv for x in tail]
        for k, (p, rh, rt) in enumerate(rows):
            c = rh[piv]
            if c:
                rows[k] = (p, [x - c * y for x, y in zip(rh, head)],
                           [x - c * y for x, y in zip(rt, tail)])
        rows.append((piv, head, tail))
    return rows, relations


def tailed_inputs(rng, order, m, n, k):
    """m random rows of n head and k tail entries; some heads are
    combinations of earlier ones, with or without the same tail combination."""
    zero = CycNum.zero(order)
    out = []
    for i in range(m):
        if i >= 2 and rng.random() < 0.4:
            coeffs = [rand_cyc(rng, order) for _ in out]
            vec = combo(coeffs, out, zero)
            if rng.random() < 0.5:
                vec[n + rng.randrange(k)] += CycNum.one(order)
            out.append(vec)
        else:
            out.append([rand_cyc(rng, order) for _ in range(n + k)])
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(3))
def test_tail_reduces_as_the_same_ops_by_hand(order, seed):
    rng = random.Random(f"tail|{order}|{seed}")
    n, k = 4, 3
    vectors = tailed_inputs(rng, order, 7, n, k)
    ech = Echelon(n)
    for v in vectors:
        ech.add(v)
    rows, relations = by_hand(vectors, n)
    assert ech.pivots == [p for p, _, _ in rows]
    assert ech.rows == [h + t for _, h, t in rows]
    assert ech.relations == relations
    # the tail never steers the head
    plain = Echelon(n)
    for v in vectors:
        plain.add(v[:n])
    assert [r[:n] for r in ech.basis()] == plain.basis()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m,n,r", [(4, 5, 2), (5, 4, 3), (3, 3, 3)])
def test_nullspace_is_the_kernel(order, m, n, r):
    rng = random.Random(f"ker|{order}|{m}|{n}|{r}")
    zero = CycNum.zero(order)
    mat = mat_mul(rand_mat(rng, order, m, r), rand_mat(rng, order, r, n))
    rk = rank(mat, n)
    assert rk <= r
    ker = nullspace(mat, n, zero)
    assert len(ker) == n - rk
    for v in ker:
        assert not any(mat_vec(mat, v, zero))
    assert rank(ker, n) == len(ker)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", (1, 3, 4))
def test_invert_is_a_two_sided_inverse(order, n):
    rng = random.Random(f"inv|{order}|{n}")
    mat = rand_mat(rng, order, n, n)
    while rank(mat, n) < n:
        mat = rand_mat(rng, order, n, n)
    inv = invert(mat)
    one, zero = CycNum.one(order), CycNum.zero(order)
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    assert mat_mul(inv, mat) == ident
    assert mat_mul(mat, inv) == ident
    if n >= 3:
        singular = mat[:-1] + [combo([one, -one], mat[:2], zero)]
        assert invert(singular) is None


@pytest.mark.parametrize("order", ORDERS)
def test_express_in_basis_inside_and_outside_the_span(order):
    rng = random.Random(f"coords|{order}")
    zero = CycNum.zero(order)
    n = 5
    gens = rand_mat(rng, order, 3, n)
    ech = Echelon(n)
    for v in gens:
        ech.add(v)
    basis = ech.basis()
    for _ in range(3):
        vec = combo([rand_cyc(rng, order) for _ in gens], gens, zero)
        x = express_in_basis(basis, vec, zero)
        assert x is not None and combo(x, basis, zero) == vec
    outside = [rand_cyc(rng, order) for _ in range(n)]
    while ech.contains(outside):
        outside = [rand_cyc(rng, order) for _ in range(n)]
    assert express_in_basis(basis, outside, zero) is None
    assert express_in_basis([], [zero] * n, zero) == []
    assert express_in_basis([], outside, zero) is None
