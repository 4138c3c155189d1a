"""Dense exact linear algebra over one cyclotomic field (CycNum).

Vectors are lists, matrices are lists of rows.  Elimination always takes
the first nonzero entry as pivot, so results are deterministic.
"""

from .exact import CycNum


def mat_mul(a, b):
    if not a or not b:
        return []
    zero = CycNum.zero(a[0][0].order)
    cols = len(b[0])
    out = []
    for row in a:
        acc = [None] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    y = brow[j]
                    if y:
                        p = x * y
                        acc[j] = p if acc[j] is None else acc[j] + p
        out.append([zero if v is None else v for v in acc])
    return out


class Echelon:
    """Incremental reduced row echelon form, the one elimination engine.

    A vector may carry a tail: entries past `ncols` that are reduced,
    scaled and back-substituted with the row but never chosen as a pivot.
    add(vec) reduces vec against the current rows; if a nonzero residue
    remains in its first `ncols` entries it is normalised, inserted, and
    True is returned.  Otherwise False is returned, and a nonzero residual
    tail (a linear relation the tails must satisfy) is appended to
    `relations`.  residue(vec) returns the reduction without inserting.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []          # reduced rows, pivot normalised to 1
        self.pivots = []        # pivot column of each row, in insertion order
        self.relations = []     # residual tails of vectors that were not inserted

    def residue(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                for j, x in enumerate(row):
                    if x:
                        vec[j] = vec[j] - c * x
        return vec

    def add(self, vec):
        vec = self.residue(vec)
        p = _first_nonzero(vec, self.ncols)
        if p is None:
            tail = vec[self.ncols :]
            if any(tail):
                self.relations.append(tail)
            return False
        inv = vec[p].inv()
        vec = [x * inv for x in vec]
        # back-substitute into existing rows
        for row in self.rows:
            c = row[p]
            if c:
                for j, x in enumerate(vec):
                    if x:
                        row[j] = row[j] - c * x
        self.rows.append(vec)
        self.pivots.append(p)
        return True

    def contains(self, vec):
        return _first_nonzero(self.residue(vec), self.ncols) is None

    @property
    def rank(self):
        return len(self.rows)

    def basis(self):
        order = sorted(range(len(self.rows)), key=lambda k: self.pivots[k])
        return [list(self.rows[k]) for k in order]


def _first_nonzero(vec, end):
    for j in range(end):
        if vec[j]:
            return j
    return None


def rank(rows, ncols=None):
    if not rows:
        return 0
    ech = Echelon(ncols if ncols is not None else len(rows[0]))
    for r in rows:
        ech.add(r)
    return ech.rank


def nullspace(rows, ncols, zero):
    """Basis of the right kernel {v : M v = 0} of the matrix with given rows,
    over the field whose zero is `zero`; with no rows, the unit vectors."""
    ech = Echelon(ncols)
    for r in rows:
        ech.add(r)
    piv = set(ech.pivots)
    ordered = sorted(zip(ech.pivots, ech.rows))
    one = CycNum.one(zero.order)
    basis = []
    for free in range(ncols):
        if free in piv:
            continue
        v = [zero] * ncols
        v[free] = one
        for p, row in ordered:
            v[p] = -row[free]
        basis.append(v)
    return basis


def invert(square_rows):
    """Inverse matrix, or None if singular."""
    n = len(square_rows)
    if n == 0:
        return []
    zero = CycNum.zero(square_rows[0][0].order)
    one = CycNum.one(zero.order)
    ech = Echelon(n)  # the identity rides along as the tail
    for i, r in enumerate(square_rows):
        ech.add(list(r) + [one if i == j else zero for j in range(n)])
    if ech.rank < n:
        return None
    inv = [None] * n
    for p, row in zip(ech.pivots, ech.rows):
        inv[p] = row[n:]
    return inv
