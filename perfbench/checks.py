"""Correctness checks of the benchmark's operation outputs.

Each check takes an output and returns a list of problems (empty when the
output is right).  They run after an operation's timer has stopped.  Where
the package offers a closed form (characters, stated Loewy diagrams, the
conformal-weight formula) the check compares the computed output with it;
irreducible dimensions and partition counts are computed here, from
nothing in `qsl3`.

One check is deliberately absent: "the Loewy layer dimensions sum to the
module dimension".  `radical_layers` and `socle_layers` build their layers
as differences of a chain of characters that starts at the module and ends
at zero, so the sum telescopes to the module's character for any chain,
right or wrong; `loewy` peels the same layer characters into factors.  The
check can never fail, so it is not run.
"""

from fractions import Fraction


# -- closed forms computed here ----------------------------------------


def closed_form_dim(lam):
    """dim L(lam) from the parities of the indices <lam + rho, alpha_j>."""
    l1, l2 = Fraction(lam.c1) + 1, Fraction(lam.c2) + 1
    odd = [x.denominator == 1 and x.numerator % 2 == 1 for x in (l1, l2, l1 + l2)]
    if not any(odd):
        return 8
    if sum(odd) == 1:
        return 4
    return 1 if odd[0] and odd[1] else 3


def partition_counts(n):
    """p(0..n-1) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * (n - 1)
    for m in range(1, n):
        k, total = 1, 0
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def two_coloured_partitions(n):
    """Coefficients of prod (1 - q^k)^-2 up to q^(n-1): p convolved with p."""
    p = partition_counts(n)
    return [sum(p[i] * p[m - i] for i in range(m + 1)) for m in range(n)]


def char_product(a, b):
    """Product of two characters given as {weight: multiplicity} dicts."""
    out = {}
    for lam, m in a.items():
        for mu, n in b.items():
            nu = lam + mu
            out[nu] = out.get(nu, 0) + m * n
    return {k: v for k, v in out.items() if v}


def char_sum(terms):
    """Sum of (character dict, multiplicity) pairs."""
    out = {}
    for ch, m in terms:
        for lam, k in ch.items():
            out[lam] = out.get(lam, 0) + m * k
    return {k: v for k, v in out.items() if v}


# -- tensor-certify ----------------------------------------------------


def check_tensor(lam, mu, dim, char, rule_chars, irr_chars, relations):
    """The certified tensor module L(lam) (x) L(mu).

    dim, char: dimension and character {weight: mult} of the built module;
    rule_chars: [(stated character of a summand, multiplicity)];
    irr_chars: the closed-form characters of L(lam) and L(mu);
    relations: whether the defining relations hold on the module.
    """
    problems = []
    want = closed_form_dim(lam) * closed_form_dim(mu)
    if dim != want:
        problems.append(f"dim {dim}, closed form gives {want}")
    product = char_product(*irr_chars)
    if char != product:
        problems.append("character differs from the product of closed-form characters")
    if char_sum(rule_chars) != product:
        problems.append("rule summands' stated characters do not add up to the product")
    if not relations:
        problems.append("defining relations fail on the tensor module")
    return problems


def check_negative_control(raised):
    """A false decomposition with the right character must be rejected."""
    return [] if raised else ["a false decomposition passed verify_decomposition"]


# -- loewy-structure ---------------------------------------------------


def check_loewy(computed, stated, rad_terms=None, soc_terms=None):
    """A computed Loewy diagram against the paper's stated one.

    computed, stated: LoewyDiagram-like objects; rad_terms, soc_terms: the
    radical and socle layers as {weight: mult} dicts, given for Vermas,
    whose radical and socle series coincide.
    """
    problems = []
    if computed.layer_lists() != stated.layer_lists():
        problems.append("computed layers differ from the stated diagram")
    missing = stated.arrow_triples(only_mult1=True) - computed.arrow_triples(only_mult1=True)
    if missing:
        problems.append(f"stated multiplicity-1 arrows not found: {sorted(missing)[:3]}")
    if rad_terms is not None and rad_terms != list(reversed(soc_terms)):
        problems.append("radical layers are not the reversed socle layers")
    return problems


# -- fusion-symbolic ---------------------------------------------------


def check_grothendieck(report):
    """Transport (lhs) and the closed-form rule (rhs) give one multiset."""
    if report["lhs"] != report["rhs"] or not report["match"]:
        return [f"rule {report['rule']}: transport and closed form differ"]
    return []


def check_transport(transported, stated):
    """A transported diagram equals the stated one, arrows included."""
    problems = []
    if transported.layer_lists() != stated.layer_lists():
        problems.append("transported layers differ from the stated diagram")
    if transported.arrows != stated.arrows:
        problems.append("transported arrows differ from the stated diagram")
    return problems


def check_oct_fuse(product, swapped, shifted, expected_shift):
    """Octuplet fusion is commutative and equivariant under the simple current.

    product: fuse(a, b); swapped: fuse(b, a); shifted: fuse(J a, b) for the
    order-3 simple current J; expected_shift: J applied to each summand of
    `product`.  Each is a list of (label, multiplicity).
    """
    def key(terms):
        return sorted((repr(l), m) for l, m in terms)

    problems = []
    if key(product) != key(swapped):
        problems.append("fusion is not commutative on this pair")
    if key(shifted) != key(expected_shift):
        problems.append("fusion does not commute with the simple current")
    return problems


def check_qseries(report, min_window, eta_coeffs, eta_lead, deltas):
    """The q-series identity, the eta expansion and the conformal weights.

    report: standard_char_identity's report; eta_coeffs: the integer
    coefficients of eta_inv_sq at its stated order, eta_lead its leading
    exponent; deltas: [(read off the character, closed form)].
    """
    problems = []
    if not report["match"]:
        problems.append("the two sides of the character identity differ")
    if report["window"] is None or report["window"] < min_window:
        problems.append(f"identity compared only below q^{report['window']}")
    if eta_lead != Fraction(-1, 12):
        problems.append(f"eta_inv_sq leads with q^{eta_lead}")
    if eta_coeffs != two_coloured_partitions(len(eta_coeffs)):
        problems.append("eta_inv_sq coefficients differ from the partition count")
    for got, want in deltas:
        if got != want:
            problems.append(f"conformal weight {got} read off the character, {want} closed form")
    return problems
