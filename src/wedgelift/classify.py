"""Good/bad classification of monomials X^a Y^b by three independent routes.

A wedge at point p = (x, y) with slope set C (a coset of a subgroup of F_q^x)
is the union of the lines L_alpha(T) = (T, alpha*(T - x) + y), alpha in C. The
restriction of a polynomial to the wedge is the field sum of its values along
every line; because |C| is odd and the characteristic is 2, this equals the sum
over the wedge's point set. A monomial is good for a coset family when every
restriction, over all cosets and all q^2 points, vanishes.

The brute-force oracle decides every one of those restrictions (vectorized
over a chunk of monomials). It regroups their sums by steps that use nothing
about goodness: U = alpha*T makes every line sum a scaled entry of one
line-sum vector per monomial; beta = alpha*x makes the points x != 0 of a
slope coset share one sum per coset of the subgroup H; and the dilation
U = gamma*V scales the sums of the coset gamma*H by nonzero factors of the
subgroup's own, so the subgroup alone decides all t cosets. The same
dilation fixes the line-sum vector from two of its entries and the
subgroup's sums from one point per orbit of H, so a monomial costs O(q)
table reads (see oracle_good_mask). The coset criterion and the block
criterion decide badness arithmetically from the exponent bits; they are
validated against the oracle, never the other way around.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .bitlattice import enumerate_2_shadow
from .errors import OracleBudgetError, UsageError
from .field import CosetFamily, FieldSpec
from .linalg import BATCH_BYTES
from ._io import atomic_write_text

DEFAULT_ORACLE_BUDGET = 10**9


class Monomial(NamedTuple):
    a: int
    b: int


class Wedge(NamedTuple):
    coset: tuple[int, ...]
    point: tuple[int, int]


def _check_monomial(m: Monomial, q: int) -> Monomial:
    """The pair as a Monomial of Python ints, each in [0, q-1]. Any integer
    type is accepted; floats and anything but a pair are refused."""
    try:
        a, b = m
        a, b = operator.index(a), operator.index(b)
    except (TypeError, ValueError):
        raise UsageError(f"a monomial is a pair of integer exponents, got {m!r}") from None
    if not (0 <= a <= q - 1 and 0 <= b <= q - 1):
        raise UsageError(f"exponents must lie in [0, {q - 1}], got ({a}, {b})")
    return Monomial(a, b)


def _log_mul(spec: FieldSpec, u, v):
    """Elementwise product of field elements through the log/antilog tables,
    in the memory of the operands rather than a q x q table."""
    product = spec.antilog[(spec.log[u] + spec.log[v]) % (spec.q - 1)]
    return np.where((u == 0) | (v == 0), 0, product)


def wedge_restriction(
    spec: FieldSpec,
    poly: list[tuple[tuple[int, int], int]],
    wedge: Wedge,
) -> int:
    """Field sum of the polynomial over every line of the wedge.

    poly is a list of ((a, b), coefficient) pairs with exponents <= q-1.
    Because the coset size is odd and the characteristic is 2, this equals the
    sum over the wedge's point set (the lines meet only at wedge.point, which
    they count h times); the tests check that.
    Each term T^a Y^b is read off the antilog table at a*log T + b*log Y over
    the wedge's (h, q) points (0 where T or Y is 0 under a positive exponent),
    XOR-reduced and then scaled by its coefficient. Exponents are checked
    first, then the wedge, then the coefficients.
    """
    for (a, b), _ in poly:
        _check_monomial(Monomial(a, b), spec.q)
    # ys[k, T] is the Y of (T, alpha_k*(T - x) + y). Slopes and both
    # coordinates are checked first: numpy would wrap a negative index.
    x, y = wedge.point
    spec._check(x, y, *wedge.coset)
    slopes = np.array(wedge.coset, dtype=np.intp).reshape(-1, 1)
    ys = _log_mul(spec, slopes, np.arange(spec.q) ^ x) ^ y
    spec._check(*(coeff for _, coeff in poly))
    log_y = spec.log[ys]
    y_zero = np.nonzero(ys == 0)
    total = 0
    for (a, b), coeff in poly:
        values = spec.antilog[(a * spec.log + b * log_y) % (spec.q - 1)]
        if a:
            values[:, 0] = 0
        if b:
            values[y_zero] = 0
        total ^= int(_log_mul(spec, coeff, np.bitwise_xor.reduce(values, axis=None)))
    return total


def _check_monomials(monomials, q: int) -> np.ndarray:
    """(M, 2) intp array of exponent pairs, each an integer in [0, q-1]; an
    empty sequence is the empty batch. Numpy integers are accepted; floats,
    ragged rows and any other shape are refused."""
    try:
        exps = np.asarray(monomials) if len(monomials) else np.empty((0, 2), np.intp)
    except ValueError:  # ragged rows
        raise UsageError("monomials must be (a, b) exponent pairs of one shape") from None
    if exps.ndim != 2 or exps.shape[1] != 2:
        raise UsageError(f"monomials must be (a, b) exponent pairs, got shape {exps.shape}")
    if exps.dtype.kind not in "iu":
        checked = [_check_monomial(m, q) for m in exps.tolist()]
        return np.array(checked, dtype=np.intp).reshape(-1, 2)
    outside = ((exps < 0) | (exps > q - 1)).any(axis=1)
    if outside.any():
        _check_monomial(exps[outside.argmax()].tolist(), q)
    return exps.astype(np.intp, copy=False)


def _oracle_chunk(q: int) -> int:
    """Monomials per gather: the chunk's largest index array, the (M, 2, q)
    one for G, holds about BATCH_BYTES."""
    return max(1, BATCH_BYTES // (16 * q))


def _line_and_coset_sums(spec: FieldSpec, subgroup: np.ndarray, a, b):
    """For a chunk of monomials X^a Y^b (exponent arrays a, b of length M) and
    the subgroup H (an ascending array of its h elements, as CosetFamily keeps
    it): the line sums g[m, s] = G[s] = sum_U U^a (U + s)^b at s = 0 and
    s = 1, the subgroup sums sums[m, k] = S_H[y_k] =
    sum_{beta in H} beta^-a * G[beta + y_k] at y_0 = 0 and at one element
    y_k = antilog[k - 1] of each coset of H (k = 1..t), and
    sigma[m] = sum_{beta in H} beta^-a. G[v] is read as
    v^((a+b) mod (q-1)) * G[1] for v != 0 and as G[0] at v = 0, which
    beta + y_k is only at y_1 = 1 = beta. g, G[beta + y_k] and sums are one
    gather from the multiplication table each."""
    q, ell = spec.q, spec.ell
    flat_mul = spec.mul_table().ravel()  # flat_mul[(u << ell) | v] = u * v
    powers = spec.power_table()
    line_points = np.arange(q) ^ [[0], [1]]  # [s, U] -> U + s
    ys = np.append(0, spec.antilog[: (q - 1) // len(subgroup)])
    coset_points = ys[:, None] ^ subgroup  # [k, beta] -> beta + y_k
    xa = np.left_shift(powers[a], ell, dtype=np.intp)  # [m, U] -> U^a, shifted
    inv_a = powers[(q - 1 - a)[:, None], subgroup]  # [m, beta] -> beta^-a, as beta != 0
    g = np.bitwise_xor.reduce(
        flat_mul.take(xa[:, None, :] | powers[b[:, None, None], line_points]), axis=2
    )  # [m, s]
    values = flat_mul.take(
        np.left_shift(g[:, 1, None, None], ell, dtype=np.intp)
        | powers[((a + b) % (q - 1))[:, None, None], coset_points]
    )  # [m, k, beta] -> G[beta + y_k]
    values[:, 1, 0] = g[:, 0]  # beta + y_1 = 0 at beta = subgroup[0] = 1
    terms = flat_mul.take(np.left_shift(inv_a, ell, dtype=np.intp)[:, None, :] | values)
    sums = np.bitwise_xor.reduce(terms, axis=2)  # [m, k]
    return g, sums, np.bitwise_xor.reduce(inv_a, axis=1)


def oracle_cost(family: CosetFamily) -> int:
    """Table entries that _line_and_coset_sums reads for one monomial, which
    the budget is charged: from the power table q for U^a, h for beta^-a,
    2q for (U + s)^b and (t+1)*h for (beta + y_k)^(a+b); from the
    multiplication table 2q for the terms of G[0] and G[1], (t+1)*h for
    G[beta + y_k] and (t+1)*h for its products with beta^-a. That is
    5q + (3t + 4)h, O(q), where the restrictions it decides number t*q^2."""
    q, h, t = family.q, family.subgroup_order, family.t
    return 5 * q + (3 * t + 4) * h


def oracle_good_mask(
    family: CosetFamily, monomials, budget: int = DEFAULT_ORACLE_BUDGET
) -> np.ndarray:
    """Brute force: for each X^a Y^b, true iff every wedge restriction vanishes.

    The budget covers oracle_cost for every monomial. The restriction to the
    wedge of slope coset C at (x, y) is
    sum_{alpha in C} sum_T T^a (alpha*T + alpha*x + y)^b. U = alpha*T turns
    each line sum into alpha^-a * G[alpha*x + y], with the one line-sum vector
    G[s] = sum_U U^a (U + s)^b. For x != 0, beta = alpha*x runs over the coset
    D = xC of H, so the restriction is x^a * S_D[y] with
    S_D[y] = sum_{beta in D} beta^-a * G[beta + y]; at x = 0 it is
    sigma_C * G[y] with sigma_C = sum_{alpha in C} alpha^-a. As x runs over
    F_q^x, xC runs over every coset of H, and x^a != 0.

    Every coset is gamma*H for some gamma != 0, and U = gamma*V gives
    G[gamma*s] = gamma^(a+b) * G[s]. So beta = gamma*beta' gives
    S_{gamma H}[gamma*y] = gamma^-a * gamma^(a+b) * S_H[y] = gamma^b * S_H[y],
    and sigma_{gamma H} = gamma^-a * sigma_H. Both scalings are nonzero, so a
    monomial is good iff S_H = 0 and (G = 0 or sigma_H = 0): one pass per
    chunk of monomials decides all t cosets from the subgroup's sums.

    The same scalings shrink each sum to a few points. (i) G[s] =
    s^(a+b) * G[1] for s != 0, so G = 0 iff G[0] = G[1] = 0. (ii) For beta0
    in H, gamma = beta0 gives S_H[beta0*y] = beta0^b * S_H[y], so S_H = 0 iff
    it vanishes at y = 0 and at one element of each coset of H. So
    _line_and_coset_sums reads O(q) table entries per monomial
    (oracle_cost), where the restrictions number t*q^2.
    """
    exps = _check_monomials(monomials, family.q)
    cost = oracle_cost(family) * len(exps)
    if cost > budget:
        raise OracleBudgetError(
            f"oracle infeasible: {cost} table reads exceed budget {budget}; "
            f"raise the budget (--budget) or pass fewer monomials"
        )
    subgroup = np.array(family.subgroup, dtype=np.intp)
    good = np.empty(len(exps), dtype=bool)
    step = _oracle_chunk(family.q)
    for start in range(0, len(exps), step):
        a, b = exps[start : start + step].T
        g, sums, sigma = _line_and_coset_sums(family.field, subgroup, a, b)
        good[start : start + step] = ~sums.any(axis=1) & (~g.any(axis=1) | (sigma == 0))
    return good


def is_good_oracle(
    family: CosetFamily, m: Monomial, budget: int = DEFAULT_ORACLE_BUDGET
) -> bool:
    """Brute force: true iff every wedge restriction of X^a Y^b vanishes."""
    return bool(oracle_good_mask(family, [m], budget)[0])


def is_good_oracle_sampled(
    family: CosetFamily,
    m: Monomial,
    wedges: int,
    rng: np.random.Generator,
) -> bool:
    """Oracle on `wedges` random wedges; False is definitive, True is only
    'no witness found'."""
    if wedges < 0:
        raise UsageError(f"wedges must be nonnegative, got {wedges}")
    spec = family.field
    m = _check_monomial(m, spec.q)
    poly = [((m.a, m.b), 1)]
    q = spec.q
    for _ in range(wedges):
        coset = family.cosets[int(rng.integers(family.t))]
        point = (int(rng.integers(q)), int(rng.integers(q)))
        if wedge_restriction(spec, poly, Wedge(coset, point)) != 0:
            return False
    return True


def is_bad_coset_criterion(m: Monomial, h: int, ell: int) -> bool:
    """Bad iff a|b = q-1 and some i <= a&b bitwise has i = b (mod h)."""
    q = 1 << ell
    if (q - 1) % h != 0:
        raise UsageError(f"subgroup order {h} does not divide q-1 = {q - 1}")
    a, b = _check_monomial(m, q)
    if a | b != q - 1:
        return False
    target = b % h
    return any(i % h == target for i in enumerate_2_shadow(a & b))


def is_bad_block_criterion(m: Monomial, ell_prime: int, d: int) -> bool:
    """Block form of the criterion for h = (q-1)/(q^(1/d)-1), q = 2^(ell'*d).

    Splitting exponent bits into d blocks of width ell', X^a Y^b is bad iff
    a|b = q-1 and no position j has blocks r, s with b_{r,j} = a_{s,j} = 1 and
    a_{r,j} = b_{s,j} = 0.
    """
    if ell_prime < 1 or d < 1:
        raise UsageError("block parameters must be positive")
    ell = ell_prime * d
    q = 1 << ell
    a, b = _check_monomial(m, q)
    if a | b != q - 1:
        return False
    for j in range(ell_prime):
        ones_b = [(a >> (r * ell_prime + j)) & 1 == 0 for r in range(d)
                  if (b >> (r * ell_prime + j)) & 1]
        ones_a = [(b >> (s * ell_prime + j)) & 1 == 0 for s in range(d)
                  if (a >> (s * ell_prime + j)) & 1]
        # a violating (r, s) pair exists iff some block has (a,b) bits (0,1)
        # and another has (1,0) at the same position j
        if any(ones_b) and any(ones_a):
            return False
    return True


def bad_mask(family: CosetFamily) -> np.ndarray:
    """Read-only (q, q) bool array, [a, b] true iff X^a Y^b is bad by the
    coset criterion: residues[c, r] says some submask of c (3^ell in all) is
    = r (mod h), read at [a&b, b mod h] wherever a|b = q-1."""
    q, h = family.q, family.subgroup_order
    residues = np.zeros((q, h), dtype=bool)
    for c in range(q):
        residues[c, np.fromiter(enumerate_2_shadow(c), dtype=np.intp) % h] = True
    # The smallest exponent dtype keeps the q^2 temporary at 32 MB at q = 4096.
    exps = np.arange(q, dtype=np.min_scalar_type(q - 1))
    a, b = np.nonzero((exps[:, None] | exps) == q - 1)
    mask = np.zeros((q, q), dtype=bool)
    mask[a, b] = residues[a & b, b % h]
    mask.flags.writeable = False
    return mask


def bad_bound(q: int, h: int) -> int:
    """(t+1)*q with t = (q-1)/h: a bound on the bad count of the coset
    family, and so on the redundancy, which is at most the bad count (the
    dimension is at least the good count). The coset count t alone is no
    bound (30 > 16 at q16h15).

    A bad X^a Y^b has a|b = q-1 and some submask i of a&b with i = b
    (mod h). As i is a submask of b, j = b - i is b without the bits of i:
    it lies in [0, q-1] and is one of the t+1 multiples k*h there. For a
    given j the monomial is fixed by i, any submask of the complement of j
    (2^(ell - |j|) choices), and by the bits of j that a also has (2^|j|):
    b = i + j and a = (q-1-b) + i + those bits. So q monomials for each k."""
    return ((q - 1) // h + 1) * q


def count_bad(family: CosetFamily) -> int:
    """Exhaustive count of bad monomials by the coset criterion."""
    return int(bad_mask(family).sum())


def count_bad_closed_form(ell_prime: int, d: int) -> int:
    """(2^(d+1) - 1)^ell' — exact bad count for the block instantiation."""
    if ell_prime < 1 or d < 1:
        raise UsageError("block parameters must be positive")
    return ((1 << (d + 1)) - 1) ** ell_prime


def classification(
    family: CosetFamily,
    ell_prime: int | None = None,
    d: int | None = None,
) -> np.ndarray:
    """Read-only (q, q) bool array, [a, b] true iff X^a Y^b is bad.

    With ell_prime and d the block criterion decides (and its parameters must
    match the family); otherwise the coset criterion, through bad_mask. The
    block criterion stays a scalar loop over all q^2 monomials because it is
    the third classifier, independent of bad_mask.
    """
    q, h, ell = family.q, family.subgroup_order, family.field.ell
    if (ell_prime is None) != (d is None):
        raise UsageError("ell_prime and d must be given together")
    if ell_prime is None:
        return bad_mask(family)
    if ell_prime * d != ell or h != (q - 1) // ((1 << ell_prime) - 1):
        raise UsageError(
            f"block parameters ({ell_prime}, {d}) do not match q={q}, h={h}"
        )
    verdicts = (
        is_bad_block_criterion(Monomial(a, b), ell_prime, d)
        for a in range(q)
        for b in range(q)
    )
    mask = np.fromiter(verdicts, dtype=bool, count=q * q).reshape(q, q)
    mask.flags.writeable = False
    return mask


def write_classification_csv(path, bad: np.ndarray, criterion: str) -> None:
    """CSV report with columns a, b, bad, criterion_used: one line per entry
    of the (q, q) bool array, in lexicographic order, written atomically."""
    tails = [(f"{b},0,{criterion}\n", f"{b},1,{criterion}\n") for b in range(len(bad))]
    lines = ["a,b,bad,criterion_used\n"]
    for a, row in enumerate(bad.tolist()):
        prefix = f"{a},"
        lines.append(prefix + prefix.join([tail[v] for tail, v in zip(tails, row)]))
    atomic_write_text(path, "".join(lines))
