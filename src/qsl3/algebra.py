"""Weight-graded matrix representations of the unrolled restricted quantum
group of sl3 at i.

A WeightRep stores the actions of the four generators X1, X2, X-1, X-2 as
blocks V(lambda) -> V(lambda +- alpha_j).  H_j and K_gamma are never stored:
H_j acts on V(lambda) by <lambda, alpha_j> and K_gamma by i^{<gamma,lambda>},
both induced from the grading.

Generator symbols are the integers 1, 2, -1, -2.
"""

import math
from fractions import Fraction

from .exact import CycNum, InternalInconsistency, i_power
from .linalg import Echelon, mat_mul
from .weights import ALPHA, Weight, killing

GENS = (1, 2, -1, -2)


def gen_shift(g):
    """Weight shift of generator g: +alpha_j for X_j, -alpha_j for X_-j."""
    return ALPHA[abs(g)] if g > 0 else -ALPHA[abs(g)]


class WeightRep:
    """A finite-dimensional weight module given by exact generator blocks.

    dims: {Weight: multiplicity}; blocks[g][lam] is the matrix of g
    restricted to V(lam), mapping into V(lam + shift(g)).  Missing blocks
    are zero.
    """

    def __init__(self, order, dims, blocks, label=None):
        self.order = order
        self.dims = {lam: d for lam, d in dims.items() if d > 0}
        self.blocks = {g: dict(blocks.get(g, {})) for g in GENS}
        self.label = label
        self._weights = sorted(self.dims, key=Weight.sort_key)
        self.dim = sum(self.dims.values())

    # -- bookkeeping --------------------------------------------------

    def weights_sorted(self):
        return list(self._weights)

    def zero(self):
        return CycNum.zero(self.order)

    def one(self):
        return CycNum.one(self.order)

    def k_scalar(self, gamma, lam, inverse=False):
        """Eigenvalue of K_gamma on V(lam)."""
        x = killing(gamma, lam)
        return i_power(-x if inverse else x, self.order)

    def block(self, g, lam):
        return self.blocks.get(g, {}).get(lam)

    def apply_block(self, g, lam, vec):
        """Apply generator g to a vector in V(lam); returns (mu, vec') or None."""
        b = self.block(g, lam)
        if b is None:
            return None
        mu = lam + gen_shift(g)
        z = self.zero()
        out = [z] * self.dims[mu]
        for i, row in enumerate(b):
            acc = None
            for x, y in zip(row, vec):
                if x and y:
                    p = x * y
                    acc = p if acc is None else acc + p
            if acc is not None:
                out[i] = acc
        return mu, out

    def character(self):
        from .repmod import Character

        return Character(dict(self.dims))

    def embed(self, order):
        """Lift every matrix entry into Q(zeta_order)."""
        if order == self.order:
            return self
        blocks = {
            g: {lam: [[x.embed(order) for x in row] for row in mat] for lam, mat in bl.items()}
            for g, bl in self.blocks.items()
        }
        return WeightRep(order, self.dims, blocks, label=self.label)

    def to_json(self):
        return {
            "order": self.order,
            "label": self.label,
            "dims": [[repr(lam), d] for lam, d in sorted(self.dims.items(), key=lambda t: t[0].sort_key())],
            "blocks": {
                str(g): [[repr(lam), [[x.to_json() for x in row] for row in mat]] for lam, mat in bl.items()]
                for g, bl in self.blocks.items()
            },
        }

    # -- composite maps -----------------------------------------------

    def compose_blocks(self, word, lam):
        """Matrix of the product of generators `word` (applied right to left)
        restricted to V(lam), or None if it vanishes by grading."""
        mat = None
        cur = lam
        for g in reversed(word):
            b = self.block(g, cur)
            if b is None:
                return None
            mat = b if mat is None else mat_mul(b, mat)
            cur = cur + gen_shift(g)
        return mat


def _comb(a, ca, b, cb):
    if a is None and b is None:
        return None
    if a is None:
        return [[cb * x for x in row] for row in b]
    if b is None:
        return [[ca * x for x in row] for row in a]
    return [[ca * x + cb * y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _is_zero_mat(m):
    return m is None or all(not x for row in m for x in row)


def verify_relations(rep):
    """Exact matrix check of the defining relations on every weight block.

    Returns {relation name: (ok, first offending weight or None)}.
    """
    report = {}
    half_i_inv = Fraction(1, 2) * i_power(-1, rep.order)  # 1/(2i)

    def check(name, fn):
        for lam in rep.weights_sorted():
            if not fn(lam):
                report[name] = (False, lam)
                return
        report[name] = (True, None)

    for j in (1, 2):
        for jp in (1, 2):
            def comm_ok(lam, j=j, jp=jp):
                a = rep.compose_blocks((j, -jp), lam)
                b = rep.compose_blocks((-jp, j), lam)
                d = _comb(a, 1, b, -1)
                if j != jp:
                    return _is_zero_mat(d)
                scal = (rep.k_scalar(ALPHA[j], lam) - rep.k_scalar(ALPHA[j], lam, inverse=True)) * half_i_inv
                n = rep.dims[lam]
                if d is None:
                    return not scal
                for r in range(n):
                    for c in range(n):
                        want = scal if r == c else None
                        got = d[r][c]
                        if want is None:
                            if got:
                                return False
                        elif got != want:
                            return False
                return True

            check(f"[X{j},X-{jp}]", comm_ok)

    for g in GENS:
        check(f"X{g}^2=0", lambda lam, g=g: _is_zero_mat(rep.compose_blocks((g, g), lam)))

    for s in (1, -1):
        def braid_ok(lam, s=s):
            a = rep.compose_blocks((s * 1, s * 2, s * 1, s * 2), lam)
            b = rep.compose_blocks((s * 2, s * 1, s * 2, s * 1), lam)
            return _is_zero_mat(_comb(a, 1, b, -1))

        check(f"braid{'+' if s > 0 else '-'}", braid_ok)

    # H and K act by scalars induced from the grading, so
    # [H_j, X_g] = <shift(g), alpha_j> X_g and the K-conjugation relation
    # hold by construction; recorded for completeness.
    report["[H,X] grading"] = (True, None)
    report["K conjugation"] = (True, None)
    return report


def relations_ok(rep):
    return all(ok for ok, _ in verify_relations(rep).values())


def tensor_action(a, b):
    """The module A (x) B via the coproduct
    X_j -> X_j (x) K_j + 1 (x) X_j,   X_-j -> X_-j (x) 1 + K_j^-1 (x) X_-j.

    Weight space nu of A (x) B is the sum of the blocks A(lam) (x) B(mu)
    with lam + mu = nu, in lam-ascending order; inside its block, a_k (x) b_l
    sits at position k * dimB(mu) + l.
    """
    if a.order != b.order:
        m = math.lcm(a.order, b.order)
        a, b = a.embed(m), b.embed(m)
    order = a.order
    start = {}  # (lam, mu) -> first position of A(lam) (x) B(mu) in its weight space
    dims = {}
    summands = {}  # nu -> [(lam, mu)], lam ascending
    for lam in a.weights_sorted():
        for mu in b.weights_sorted():
            nu = lam + mu
            start[lam, mu] = dims.get(nu, 0)
            dims[nu] = start[lam, mu] + a.dims[lam] * b.dims[mu]
            summands.setdefault(nu, []).append((lam, mu))
    z = CycNum.zero(order)
    blocks = {g: {} for g in GENS}

    for g in GENS:
        alpha = ALPHA[abs(g)]
        shift = gen_shift(g)
        for nu, terms in summands.items():
            if nu + shift not in dims:
                continue
            mat = [[z] * dims[nu] for _ in range(dims[nu + shift])]
            touched = False
            for lam, mu in terms:
                db, col0 = b.dims[mu], start[lam, mu]
                # A's factor: X_j (x) K_j or X_-j (x) 1, into A(lam + shift) (x) B(mu)
                ga, lam2 = a.block(g, lam), lam + shift
                if ga is not None and lam2 in a.dims:
                    kb = i_power(killing(alpha, mu), order) if g > 0 else None
                    row0 = start[lam2, mu]
                    for i, grow in enumerate(ga):
                        for k, c in enumerate(grow):
                            if c:
                                if kb is not None:
                                    c = c * kb
                                touched = True
                                r, s = row0 + i * db, col0 + k * db
                                for l in range(db):
                                    mat[r + l][s + l] = c
                # B's factor: 1 (x) X_j or K_j^-1 (x) X_-j, into A(lam) (x) B(mu + shift)
                gb, mu2 = b.block(g, mu), mu + shift
                if gb is not None and mu2 in b.dims:
                    ka = i_power(-killing(alpha, lam), order) if g < 0 else None
                    db2, row0 = b.dims[mu2], start[lam, mu2]
                    for i, grow in enumerate(gb):
                        for l, c in enumerate(grow):
                            if c:
                                if ka is not None:
                                    c = ka * c
                                touched = True
                                for k in range(a.dims[lam]):
                                    mat[row0 + k * db2 + i][col0 + k * db + l] = c
            if touched:
                blocks[g][nu] = mat
    return WeightRep(order, dims, blocks)


def dual_rep(rep):
    """The dual module: x acts as the transpose of (S.Omega)(x).

    (S.Omega)(X_j) = -K_j X_-j and (S.Omega)(X_-j) = -X_j K_j^-1, so on the
    dual basis of V(lam)* the weights are unchanged.
    """
    blocks = {g: {} for g in GENS}
    for j in (1, 2):
        for lam in rep.weights_sorted():
            mu = lam + ALPHA[j]
            src = rep.block(-j, mu)  # V(mu) -> V(lam)
            if src is not None and lam in rep.dims:
                s = -i_power(killing(ALPHA[j], lam), rep.order)
                blocks[j][lam] = [[s * src[c][r] for c in range(len(src))] for r in range(len(src[0]))]
            nu = lam - ALPHA[j]
            src = rep.block(j, nu)  # V(nu) -> V(lam)
            if src is not None and nu in rep.dims:
                s = -i_power(-killing(ALPHA[j], nu), rep.order)
                blocks[-j][lam] = [[s * src[c][r] for c in range(len(src))] for r in range(len(src[0]))]
    return WeightRep(rep.order, rep.dims, blocks)


def direct_sum(a, b):
    """A (+) B with A's basis first inside every weight block."""
    if a.order != b.order:
        m = math.lcm(a.order, b.order)
        a, b = a.embed(m), b.embed(m)
    dims = dict(a.dims)
    for lam, d in b.dims.items():
        dims[lam] = dims.get(lam, 0) + d
    z = CycNum.zero(a.order)
    blocks = {g: {} for g in GENS}
    for g in GENS:
        shift = gen_shift(g)
        for lam in dims:
            tgt = lam + shift
            if tgt not in dims:
                continue
            da, db = a.dims.get(lam, 0), b.dims.get(lam, 0)
            ta, tb = a.dims.get(tgt, 0), b.dims.get(tgt, 0)
            ba, bb = a.block(g, lam), b.block(g, lam)
            if ba is None and bb is None:
                continue
            mat = [[z] * (da + db) for _ in range(ta + tb)]
            if ba is not None:
                for r in range(ta):
                    for c in range(da):
                        mat[r][c] = ba[r][c]
            if bb is not None:
                for r in range(tb):
                    for c in range(db):
                        mat[ta + r][da + c] = bb[r][c]
            blocks[g][lam] = mat
    return WeightRep(a.order, dims, blocks)


# -- submodules and quotients -----------------------------------------


def graded_echelons(rep, sub):
    """{lam: Echelon of the vectors sub[lam]} for every weight where they
    span a nonzero space; sub is a graded subspace {Weight: [block vectors]}."""
    out = {}
    for lam, vecs in sub.items():
        e = Echelon(rep.dims[lam])
        for v in vecs:
            e.add(v)
        if e.rank:
            out[lam] = e
    return out


def echelon_basis(rep, sub):
    """The graded subspace sub with each weight's vectors replaced by the
    reduced echelon basis of their span, empty weights dropped."""
    return {lam: e.basis() for lam, e in graded_echelons(rep, sub).items()}


def express_in_basis(basis_rows, vec, zero):
    """Coordinates x with sum x_i basis_rows[i] = vec, or None.

    basis_rows must be a reduced echelon basis (Echelon.basis()), so the
    coordinate on a row is the entry of vec at that row's pivot.
    """
    x = [vec[next(j for j, c in enumerate(row) if c)] for row in basis_rows]
    for j, want in enumerate(vec):
        acc = zero
        for xi, row in zip(x, basis_rows):
            if xi and row[j]:
                acc = acc + xi * row[j]
        if acc != want:
            return None
    return x


def sub_rep(rep, sub_basis):
    """The submodule spanned by sub_basis, as a WeightRep.

    sub_basis: {Weight: list of block vectors}, closed under the action.
    Every caller passes a submodule it computed, so a basis that is not
    closed is an internal fault and raises InternalInconsistency.  Returns
    (subrep, ordered basis) where basis[lam] lists the chosen (echelonized)
    block vectors giving the sub-rep coordinates.
    """
    z = rep.zero()
    basis = echelon_basis(rep, sub_basis)
    dims = {lam: len(b) for lam, b in basis.items()}
    blocks = {g: {} for g in GENS}
    for g in GENS:
        shift = gen_shift(g)
        for lam, bvecs in basis.items():
            tgt = lam + shift
            cols = []
            nonzero = False
            for v in bvecs:
                img = rep.apply_block(g, lam, v)
                if img is None or not any(img[1]):
                    cols.append(None)
                    continue
                if tgt not in basis:
                    raise InternalInconsistency(f"not a submodule: image at {tgt} escapes")
                x = express_in_basis(basis[tgt], img[1], z)
                if x is None:
                    raise InternalInconsistency(f"not a submodule: image at {tgt} escapes")
                cols.append(x)
                nonzero = True
            if nonzero and tgt in dims:
                mat = [[z] * len(bvecs) for _ in range(dims[tgt])]
                for c, x in enumerate(cols):
                    if x is not None:
                        for r, xv in enumerate(x):
                            mat[r][c] = xv
                blocks[g][lam] = mat
    return WeightRep(rep.order, dims, blocks), basis


def quotient_rep(rep, sub_basis):
    """The quotient of rep by the submodule spanned by sub_basis.

    Returns (quotrep, project) where project maps (lam, block vector) to the
    quotient block coordinates (first-pivot convention: quotient basis =
    non-pivot coordinates of each weight block).
    """
    z = rep.zero()
    ech = graded_echelons(rep, sub_basis)
    free = {}
    for lam in rep.weights_sorted():
        piv = set(ech[lam].pivots) if lam in ech else set()
        fr = [j for j in range(rep.dims[lam]) if j not in piv]
        if fr:
            free[lam] = fr
    dims = {lam: len(fr) for lam, fr in free.items()}

    def project(lam, vec):
        if lam in ech:
            vec = ech[lam].residue(vec)
        return [vec[j] for j in free.get(lam, [])]

    blocks = {g: {} for g in GENS}
    for g in GENS:
        shift = gen_shift(g)
        for lam, fr in free.items():
            tgt = lam + shift
            if tgt not in dims:
                continue
            mat = [[z] * len(fr) for _ in range(dims[tgt])]
            touched = False
            for c, j in enumerate(fr):
                unit = [z] * rep.dims[lam]
                unit[j] = rep.one()
                img = rep.apply_block(g, lam, unit)
                if img is None:
                    continue
                pv = project(tgt, img[1])
                for r, xv in enumerate(pv):
                    if xv:
                        mat[r][c] = xv
                        touched = True
            if touched:
                blocks[g][lam] = mat
    return WeightRep(rep.order, dims, blocks), project
