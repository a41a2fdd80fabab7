"""Good/bad classification of monomials X^a Y^b by three independent routes.

A wedge at point p = (x, y) with slope set C (a coset of a subgroup of F_q^x)
is the union of the lines L_alpha(T) = (T, alpha*(T - x) + y), alpha in C. The
restriction of a polynomial to the wedge is the field sum of its values along
every line; because |C| is odd and the characteristic is 2, this equals the sum
over the wedge's point set. A monomial is good for a coset family when every
restriction, over all cosets and all q^2 points, vanishes.

The brute-force oracle evaluates every one of those restrictions (vectorized
over a chunk of monomials). It regroups their sums by two substitutions that
use nothing about goodness: U = alpha*T makes every line sum a scaled entry of
one line-sum vector per monomial, and beta = alpha*x makes the points x of one
coset of the subgroup share one sum over that coset (see restriction_grid).
The coset criterion and the block criterion decide badness arithmetically from
the exponent bits; they are validated against the oracle, never the other way
around.
"""

from __future__ import annotations

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
    a, b = m
    if not (0 <= a <= q - 1 and 0 <= b <= q - 1):
        raise UsageError(f"exponents must lie in [0, {q - 1}], got ({a}, {b})")
    return Monomial(a, b)


def _log_mul(spec: FieldSpec, u, v):
    """Elementwise product of field elements through the log/antilog tables,
    in the memory of the operands rather than a q x q table."""
    product = spec.antilog[(spec.log[u] + spec.log[v]) % (spec.q - 1)]
    return np.where((u == 0) | (v == 0), 0, product)


def _wedge_points(spec: FieldSpec, wedge: Wedge) -> np.ndarray:
    """(h, q) array of the wedge's line points: entry [k, T] is the Y of
    (T, alpha_k*(T - x) + y) for the k-th slope of the coset. Slopes and both
    coordinates must be elements of F_q; numpy would wrap a negative index
    where the field raises."""
    x, y = wedge.point
    spec._check(x, y, *wedge.coset)
    slopes = np.array(wedge.coset, dtype=np.intp).reshape(-1, 1)
    return _log_mul(spec, slopes, np.arange(spec.q) ^ x) ^ y


def wedge_point_set(spec: FieldSpec, wedge: Wedge) -> frozenset[tuple[int, int]]:
    """Union of the wedge's lines: |coset|*(q-1) + 1 points containing wedge.point."""
    ys = _wedge_points(spec, wedge)
    ts = np.broadcast_to(np.arange(spec.q), ys.shape)
    return frozenset(zip(ts.ravel().tolist(), ys.ravel().tolist()))


def wedge_restriction(
    spec: FieldSpec,
    poly: list[tuple[tuple[int, int], int]],
    wedge: Wedge,
) -> int:
    """Field sum of the polynomial over every line of the wedge.

    poly is a list of ((a, b), coefficient) pairs with exponents <= q-1.
    Because the coset size is odd and the characteristic is 2, this equals the
    sum over the wedge's point set (wedge_point_set); the tests check that.
    Each term T^a Y^b is read off the antilog table at a*log T + b*log Y over
    the wedge's (h, q) points (0 where T or Y is 0 under a positive exponent),
    XOR-reduced and then scaled by its coefficient. Exponents are checked
    first, then the wedge, then the coefficients.
    """
    for (a, b), _ in poly:
        _check_monomial(Monomial(a, b), spec.q)
    ys = _wedge_points(spec, wedge)
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
    """(M, 2) array of exponent pairs, each exponent in [0, q-1]."""
    exps = np.asarray(monomials, dtype=np.intp).reshape(-1, 2)
    outside = ((exps < 0) | (exps > q - 1)).any(axis=1)
    if outside.any():
        _check_monomial(Monomial(*exps[outside.argmax()].tolist()), q)
    return exps


def _grid_chunk(q: int) -> int:
    """Monomials per gather: the chunk's (M, q, q) index array holds about
    BATCH_BYTES."""
    return max(1, BATCH_BYTES // (8 * q * q))


def _coset_residue(spec: FieldSpec, coset: tuple[int, ...]) -> int:
    """The residue r of a coset of the subgroup H of order h = len(coset):
    coset = {g^i : i = r (mod (q-1)/h)}. Anything else is refused, because
    restriction_grid groups slopes by these residues."""
    q, h = spec.q, len(coset)
    if h == 0 or (q - 1) % h:
        raise UsageError(f"coset size {h} does not divide q-1 = {q - 1}")
    spec._check(*coset)
    if 0 in coset or len(set(coset)) != h:
        raise UsageError("coset entries must be distinct and nonzero")
    residues = {int(spec.log[alpha]) % ((q - 1) // h) for alpha in coset}
    if len(residues) != 1:
        raise UsageError(f"{coset} is not a coset of the subgroup of order {h}")
    return residues.pop()


def restriction_grid(spec: FieldSpec, coset: tuple[int, ...], monomials) -> np.ndarray:
    """All q^2 wedge restrictions of every X^a Y^b for one coset C of the
    subgroup H, as an (M, q, q) array indexed [monomial, x, y]; monomials is
    a sequence of M exponent pairs.

    The restriction at (x, y) is sum_alpha sum_T T^a (alpha*T + alpha*x + y)^b
    over alpha in C. Two substitutions regroup it. U = alpha*T turns the line
    sum into alpha^-a * G[alpha*x + y] with the one line-sum vector
    G[s] = sum_U U^a (U + s)^b. For x != 0, beta = alpha*x runs over the coset
    D = xC, so the restriction is x^a * S_D[y] with
    S_D[y] = sum_{beta in D} beta^-a * G[beta + y], one vector per coset of H;
    at x = 0 it is (sum_alpha alpha^-a) * G[y]. For a chunk of monomials G,
    every S_D and the grid are each one gather from the multiplication table.
    """
    q, ell = spec.q, spec.ell
    exps = _check_monomials(monomials, q)
    h = len(coset)
    residue = _coset_residue(spec, coset)
    t = (q - 1) // h
    flat_mul = spec.mul_table().ravel()  # flat_mul[(u << ell) | v] = u * v
    powers = spec.power_table()
    s = np.arange(q)
    line_points = s[:, None] ^ s  # [U, s] -> U + s
    # Nonzero beta grouped by coset of H: row j holds g^(j + t*k), k < h.
    betas = spec.antilog[np.arange(t)[:, None] + t * np.arange(h)].ravel()
    coset_points = betas[:, None] ^ s  # [beta, y] -> beta + y
    # Coset of xC for x = 1, ..., q-1, as a row of S.
    rows = (spec.log[1:] + residue) % t
    grids = np.empty((len(exps), q, q), dtype=np.uint16)
    step = _grid_chunk(q)
    for start in range(0, len(exps), step):
        a, b = exps[start : start + step].T
        xa = powers[a].astype(np.intp) << ell  # [m, x] -> x^a, shifted
        inv_a = powers[q - 1 - a].astype(np.intp) << ell  # beta^-a for beta != 0
        g = np.bitwise_xor.reduce(
            flat_mul.take(xa[:, :, None] | powers[b][:, line_points]), axis=1
        )  # [m, s]
        terms = flat_mul.take(inv_a[:, betas, None] | g[:, coset_points])
        sums = np.bitwise_xor.reduce(terms.reshape(len(a), t, h, q), axis=2)  # [m, D, y]
        grid = grids[start : start + step]
        grid[:, 1:] = flat_mul.take(xa[:, 1:, None] | sums[:, rows])
        sigma = np.bitwise_xor.reduce(inv_a[:, list(coset)], axis=1)
        grid[:, 0] = flat_mul.take(sigma[:, None] | g)
    return grids


def oracle_cost(family: CosetFamily) -> int:
    """Evaluations one exhaustive oracle call performs: q^2 wedges per coset
    times the wedge size, summed over cosets."""
    q, h = family.q, family.subgroup_order
    return q * q * family.t * (h * (q - 1) + 1)


def oracle_good_mask(
    family: CosetFamily, monomials, budget: int = DEFAULT_ORACLE_BUDGET
) -> np.ndarray:
    """Brute force: for each X^a Y^b, true iff every wedge restriction vanishes.

    The budget covers oracle_cost for every monomial. Cosets are checked in
    turn, each on the monomials no earlier coset found bad.
    """
    cost = oracle_cost(family) * len(monomials)
    if cost > budget:
        raise OracleBudgetError(
            f"oracle infeasible: {cost} evaluations exceed budget {budget}; "
            f"sample wedges instead"
        )
    exps = _check_monomials(monomials, family.q)
    good = np.ones(len(exps), dtype=bool)
    step = _grid_chunk(family.q)
    for coset in family.cosets:
        alive = np.flatnonzero(good)
        for start in range(0, len(alive), step):
            chunk = alive[start : start + step]
            grids = restriction_grid(family.field, coset, exps[chunk])
            good[chunk] = ~grids.reshape(len(chunk), -1).any(axis=1)
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
