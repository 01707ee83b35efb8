"""p-adic hypergeometric sums nGn and the Legendre-family specializations.

The basic object is the finite sum, over j = 0 .. p-2,

    nGn[a; b | t] = -1/(p-1) * sum_j (-1)^(j n) * conj(omega)^j(t)
        * prod_k (-p)^( -floor(<a_k> - j/(p-1)) - floor(<-b_k> + j/(p-1)) )
        * Gamma_p(<a_k - j/(p-1)>) Gamma_p(<-b_k + j/(p-1)>)
          / ( Gamma_p(<a_k>) Gamma_p(<-b_k>) ),

with <.> the fractional part and omega the Teichmuller character.  All
arithmetic happens mod p^n through a GammaTable; nothing is floated.

The total (-p)-exponent of a term can be negative (for the 2G2 parameter
row it is -1 on a positive-length window of j), so the evaluator accepts
a p_shift: it returns p^p_shift times the sum, demanding every shifted
exponent be >= 0.  The Legendre 2G2 wrapper absorbs its leading factor p
this way and the result is exact mod p^n with no lost digits.

Two specializations of interest, both zero at lambda = 0 and -1:

    2G2(lambda) = p * psi6(2) * psi3(4 (1+lambda)^2 / lambda) * phi(1+lambda)
                    * 2G2[2/3, 2/3; 5/12, 11/12 | 4 lambda/(1+lambda)^2]
        for p = 1 (mod 6), psi6 = omega^((p-1)/6), psi3 = omega^((p-1)/3),
    6G6(lambda) = phi(1+lambda)
                    * 6G6[1/3, 1/3, 2/3, 2/3, 0, 0;
                          1/12, 1/4, 5/12, 7/12, 3/4, 11/12
                          | 2^6 lambda^3 / (1+lambda)^6]
        for every p >= 5.

In its theorem class (p = 1 mod 6 for 2G2, p = 2 mod 3 for 6G6) each
value equals the twisted Frobenius trace of the Legendre curve
y^2 = x(x-1)(x-lambda), namely phi(-2) a_p(lambda) for 2G2 and
phi(-1) a_p(lambda) for 6G6.  Each value is therefore a rational integer
of absolute value at most 2*sqrt(p), recorded as GnValue.claimed_bound,
making the exact signed integer recoverable from the residue.  The
tilde variants subtract a correction at lambda = -1 so that the value
there becomes the Frobenius trace a_p(-1) instead of 0.

The cubic twist of 2G2 is what makes that identity hold on every fiber;
without it the bare sum is off by a non-real unit for a third of the
lambdas.  With t the argument of the sum, 16/t = 4(1+lambda)^2/lambda
and psi3 = psi6^2, so the twist is psi6(2)^9 psi3(t)^(-1)
= phi(2) omega(t)^(-(p-1)/3): the sextic character drops out.  Writing
p^p_shift nGn(t) = sum_j s_j omega(t)^(-j), the _FAMILIES table reads

    2G2(lambda) = phi(2(1+lambda)) * sum_j s_j omega(t)^(-(j + (p-1)/3)),
    6G6(lambda) = phi(1+lambda)    * sum_j s_j omega(t)^(-j).

Every residue mod p^n is an int64, and residues multiply through
field.mulmod, a base-p digit product once p^(2n) reaches 2^63; so
precision 3 serves p < 2^21, and sweeps (precision 2) have no prime
ceiling.  eval_gn is a digit dot product: with zeta = omega(g) and
e = -dlog(t), omega(t)^(-j) = zeta^(e j), so the sum is

    sum_(i+k<n) p^(i+k) * sum_j digit_i(s_j) digit_k(zeta^(e j mod p-1))

mod p^n: a gather of the powers of zeta, then n(n+1)/2 int64 dot
products of base-p digit rows (field.digit_dot).  The digit rows of s
and of the powers of zeta are cached on the context.

family_sweep evaluates a family at every lambda at once, exactly, in
O(p log p).  With c_j the rotated coefficients and zeta = omega(g), each
value is (up to its sign) W(v) = sum_j c_j zeta^(j v) mod p^2 at
v = -dlog(t(lambda)).  The identity j v = C(j+v, 2) - C(j, 2) - C(v, 2),
C(n, 2) = n(n-1)/2, makes W one linear correlation of c_j zeta^(-C(j,2))
with zeta^(C(m,2)).  That correlation is exact: residues mod p^2 split
into the fewest equal limbs whose worst-case correlation stays below
2^46 (_limb_split: two limbs of 14 bits at p ~ 10^4, 2 x 15
at 30011, 3 x 12 at 100003, four at 10^6), the limb correlations run
as float FFTs, each output is rounded to the nearest integer, and the
limbs recombine mod p^2 in int64.  A rounding residual of 0.25 or more
raises PrecisionExhaustedError, and every lifted value is checked
against the Hasse bound.  Sweeps are int32 arrays: every value has
|v| <= 2 sqrt(p).  A tilde sweep copies the cached plain sweep and
patches the entry at lambda = -1.  The a_p sweep is one correlation of
quadratic-character sequences (field.frobenius_sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NoRepresentativeError,
    PrecisionExhaustedError,
    WrongResidueClassError,
)
from .field import PrimeContext, digit_dot, digits, exact_rint, mulmod, powers_mod
from .padic import GammaTable, _gamma_product, _teichmuller_lift, frac_bracket

G2_UPPER = (Fraction(2, 3), Fraction(2, 3))
G2_LOWER = (Fraction(5, 12), Fraction(11, 12))
G6_UPPER = (
    Fraction(1, 3),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(2, 3),
    Fraction(0),
    Fraction(0),
)
G6_LOWER = (
    Fraction(1, 12),
    Fraction(1, 4),
    Fraction(5, 12),
    Fraction(7, 12),
    Fraction(3, 4),
    Fraction(11, 12),
)

# j-block length for the coefficient vector
_COEFF_BLOCK = 4096


@dataclass(frozen=True)
class GnValue:
    """A hypergeometric value: its residue in [0, modulus), the modulus
    p^n, and an optional archimedean bound.

    claimed_bound is floor(2*sqrt(p)) when an integrality theorem pins the
    value as a rational integer in [-2*sqrt(p), 2*sqrt(p)], else None.
    """

    residue: int
    modulus: int
    claimed_bound: int | None

    def lift(self) -> int:
        return lift_signed(self)


@dataclass(frozen=True)
class _Family:
    """One Legendre family, in the form of the module docstring."""

    label: str
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    p_shift: int
    t_coeffs: tuple[int, int, int]  # (k, a, b): t = k lambda^a (1+lambda)^b
    rotation: Fraction  # the index j is shifted by rotation * (p-1)
    sign: int  # the sign is phi(sign * (1+lambda))
    p_class: tuple[int, int]  # (m, r): integral exactly when p = r (mod m)

    def integral_at(self, p: int) -> bool:
        m, r = self.p_class
        return p % m == r


_FAMILIES = {
    "2g2": _Family("2G2", G2_UPPER, G2_LOWER, 1, (4, 1, -2), Fraction(1, 3), 2, (6, 1)),
    "6g6": _Family("6G6", G6_UPPER, G6_LOWER, 0, (64, 3, -6), Fraction(0), 1, (3, 2)),
}
PLAIN_FAMILIES = tuple(_FAMILIES)
# scalar families: the plain ones and their tilde variants "<name>t"
EVAL_FAMILIES = (*PLAIN_FAMILIES, *(name + "t" for name in PLAIN_FAMILIES))
SWEEP_FAMILIES = (*EVAL_FAMILIES, "ap")


def lift_signed(v: GnValue) -> int:
    """The unique signed integer within the claimed bound, exactly.

    Needs 2*bound < p^n so that at most one representative qualifies.
    """
    if v.claimed_bound is None:
        raise NoRepresentativeError(
            "value carries no integrality bound; cannot lift to an integer"
        )
    r, pn = v.residue, v.modulus
    if pn <= 2 * v.claimed_bound + 1:
        raise PrecisionExhaustedError(
            f"modulus {pn} cannot separate |x| <= {v.claimed_bound}"
        )
    if r <= v.claimed_bound:
        return r
    if pn - r <= v.claimed_bound:
        return r - pn
    raise NoRepresentativeError(
        f"no integer of absolute value <= {v.claimed_bound} is {r} mod {pn}"
    )


def _coefficients(
    table: GammaTable,
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    p_shift: int,
) -> np.ndarray:
    """Per-j coefficients s_j mod p^n with everything except conj(omega)^j(t)
    folded in, so that nGn(t) = sum_j s_j * omega(t)^(-j): a read-only
    int64 array.  It is not cached: eval_gn keeps its digit rows and
    family_sweep its result.  A parameter that is not a p-adic integer
    raises ParameterNotPadicError (from table.gamma_fraction)."""
    p, pn, n = table.p, table.modulus, table.n
    if len(upper) != len(lower) or not upper:
        raise ValueError("upper and lower rows must have equal positive length")
    nlen = len(upper)
    p2 = p - 1
    # (f, sgn): the term's argument is <f + sgn j/(p-1)>
    terms = [(frac_bracket(f), -1) for f in upper]
    terms += [(frac_bracket(-f), 1) for f in lower]
    denom = math.prod(table.gamma_fraction(f) for f, _ in terms) % pn
    pref = (pn - pow(p2, -1, pn)) * pow(denom, -1, pn) % pn
    # exponents never exceed nlen + p_shift; fold pref into the p-powers
    pw = [pow(p, e, pn) * pref % pn for e in range(nlen + max(p_shift, 0) + 1)]
    pw = np.array(pw, dtype=np.int64)
    # over one denominator den = step (p-1), f + sgn j/(p-1) is
    # num/den with num = f den + sgn step j; the term's (-p)-exponent is
    # -floor(num/den) and its Gamma_p argument (num mod den)/den
    step = math.lcm(*(f.denominator for f, _ in terms))
    den = step * p2
    rows = [(int(f * den), sgn * step) for f, sgn in terms]

    blocks = []
    # blocks of j keep the temporaries small next to the O(p) tables
    for lo in range(0, p2, _COEFF_BLOCK):
        j = np.arange(lo, min(lo + _COEFF_BLOCK, p2), dtype=np.int64)
        e = np.zeros(len(j), dtype=np.int64)
        nums = []
        for c, s in rows:
            num = c + s * j
            q = num // den
            e -= q
            nums.append(num - q * den)
        unit = _gamma_product(table, nums, den)
        es = e + p_shift
        if np.any(es < 0):
            i = int(np.flatnonzero(es < 0)[0])
            raise PrecisionExhaustedError(
                f"term j={lo + i} has p-adic valuation {int(es[i])} < 0; "
                "a larger p_shift is required for integrality"
            )
        v = mulmod(unit, pw[es], p, n)
        odd = (j * nlen + e) % 2 == 1
        blocks.append(np.where(odd, (pn - v) % pn, v))
    s = np.concatenate(blocks)
    s.flags.writeable = False
    return s


def _check_table(ctx: PrimeContext, table: GammaTable) -> None:
    if table.p != ctx.p:
        raise ValueError(
            f"mixed primes: a Gamma_p table for p = {table.p} with a context for p = {ctx.p}"
        )


def _digit_rows(ctx: PrimeContext, key, n: int, residues) -> np.ndarray:
    """The (n, len) base-p digit rows of residues() mod p^n, cached on the
    context under key."""
    rows = ctx.digits.get(key)
    if rows is None:
        rows = ctx.digits[key] = np.stack(digits(residues(), ctx.p, n))
    return rows


def eval_gn(
    ctx: PrimeContext,
    table: GammaTable,
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    t: int,
    p_shift: int = 0,
) -> int:
    """p^p_shift * nGn[upper; lower | t] mod p^n, exactly, in [0, p^n).

    At t = 0 every summand vanishes (chi(0) := 0 for all characters,
    the trivial one included), so the value is 0.  table must be for
    the context's prime, else ValueError.
    """
    _check_table(ctx, table)
    p, n = table.p, table.n
    t %= p
    if t == 0:
        return 0
    rows = (tuple(upper), tuple(lower), p_shift)
    s = _digit_rows(ctx, (*rows, n), n, lambda: _coefficients(table, *rows))
    zeta = _digit_rows(
        ctx, n, n, lambda: powers_mod(_teichmuller_lift(p, ctx.g, n), p - 1, p, n)
    )
    # omega(t)^(-j) = zeta^(e j) with e = -dlog(t); x - x // L * L is
    # x % L, but numpy divides by a scalar much faster than it takes %
    e = -int(ctx.dlog[t]) % (p - 1)
    x = e * np.arange(p - 1, dtype=np.int64)
    x -= x // (p - 1) * (p - 1)
    return digit_dot(s, zeta.take(x, axis=1), p)


def _lookup(family: str) -> _Family:
    if family not in EVAL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[family.removesuffix("t")]


def _check_class(fam: _Family, p: int) -> None:
    if not fam.integral_at(p):
        m, r = fam.p_class
        raise WrongResidueClassError(
            f"{fam.label} has integer values only for p = {r} (mod {m}); p = {p}"
        )


def require_integral(family: str, p: int) -> None:
    """Raise WrongResidueClassError unless the family is integral at p."""
    _check_class(_lookup(family), p)


def integral_family(p: int) -> str:
    """The plain family with integer values at the prime p >= 5."""
    return next(name for name, fam in _FAMILIES.items() if fam.integral_at(p))


def eval_family(
    ctx: PrimeContext, table: GammaTable, family: str, lam: int
) -> GnValue:
    """Scalar evaluation of one named family at one lambda, mod p^n.

    Outside its class 2g2 raises WrongResidueClassError, and 6g6 returns
    a residue with no claimed bound.  A tilde family at lambda = -1 is
    -correction_term() = a_p(-1), with the Hasse bound.  table must be
    for the context's prime, else ValueError.
    """
    _check_table(ctx, table)
    fam = _lookup(family)
    p, n, pn = ctx.p, table.n, table.modulus
    rot = fam.rotation * (p - 1)
    if rot.denominator != 1:  # no twist omega(t)^(-rot) outside the class
        _check_class(fam, p)
    lam %= p
    if lam == p - 1 and family.endswith("t"):
        return GnValue(-ctx.correction_term() % pn, pn, math.isqrt(4 * p))
    bound = math.isqrt(4 * p) if fam.integral_at(p) else None
    if lam == 0 or lam == p - 1:
        return GnValue(0, pn, bound)
    k, a, b = fam.t_coeffs
    t = k * pow(lam, a, p) * pow(1 + lam, b, p) % p
    val = eval_gn(ctx, table, fam.upper, fam.lower, t, fam.p_shift)
    if rot:
        val = val * pow(_teichmuller_lift(p, t, n), -int(rot), pn) % pn
    if ctx.legendre_symbol(fam.sign * (1 + lam)) < 0:
        val = -val % pn
    return GnValue(val, pn, bound)


# the limb split of correlate_mod: no more limbs than 11-bit ones need,
# and a limb correlation summed over the n limb pairs of one weight stays
# below 2^46 in the worst case, as 11-bit limbs do for p < 2^22, well
# inside exact_rint's 2^50
LIMB_BITS = 11
LIMB_PEAK = 2**46


def _limb_split(length: int, modulus: int) -> tuple[int, int]:
    """(n, B): the fewest limbs n <= ceil(bits / LIMB_BITS) with
    n * length * (2^B - 1)^2 < LIMB_PEAK, B = ceil(bits / n), for a
    correlation of residues mod modulus over length terms; bits is the
    bit length of modulus - 1.  B also stays at most 62 - bits, so that
    Horner's rule in powers of 2^B cannot wrap an int64.  If no n
    qualifies, the most limbs, as exact_rint then decides."""
    bits = (modulus - 1).bit_length()
    most = -(-bits // LIMB_BITS)
    for n in range(1, most):
        b = -(-bits // n)
        if n * length * ((1 << b) - 1) ** 2 < LIMB_PEAK and bits + b < 63:
            return n, b
    return most, -(-bits // most)


def correlate_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """X[v] = sum_j a[j] * b[j + v] mod modulus, for v = 0 .. len(b) - len(a).

    a and b hold residues mod modulus (int64, modulus < 2^44).  Each is
    split into the limbs _limb_split picks; the limb correlations run as
    float FFTs, are rounded by exact_rint (which raises
    PrecisionExhaustedError if the rounding is not certain), and are
    recombined mod modulus by Horner's rule in powers of 2^B.
    """
    na, nb = len(a), len(b)
    nlimbs, width = _limb_split(na, modulus)
    mask = (1 << width) - 1
    # cyclic length >= nb keeps outputs na-1 .. nb-1 free of wrap-around
    size = 1 << (nb - 1).bit_length()
    shifts = [width * i for i in range(nlimbs)]
    fa = [np.fft.rfft((a[::-1] >> s) & mask, size) for s in shifts]
    fb = [np.fft.rfft((b >> s) & mask, size) for s in shifts]
    out = np.zeros(nb - na + 1, dtype=np.int64)
    # limb pairs (i, k - i) carry weight 2^(B k); highest k first
    for k in range(2 * nlimbs - 2, -1, -1):
        lo, hi = max(0, k - nlimbs + 1), min(k, nlimbs - 1)
        spec = sum(fa[i] * fb[k - i] for i in range(lo, hi + 1))
        ck = exact_rint(np.fft.irfft(spec, size)[na - 1 : nb])
        out = ((out << width) + ck) % modulus
    return out


def _dft_mod(coeff: np.ndarray, tp: np.ndarray, p: int) -> np.ndarray:
    """W[v] = sum_j coeff[j] * zeta^(j v) mod p^2 for v = 0 .. p-2.

    zeta = omega(g) and tp[m] = zeta^m.  Through
    j v = C(j+v, 2) - C(j, 2) - C(v, 2), with C(n, 2) = n(n-1)/2, W is
    zeta^(-C(v,2)) times the linear correlation of
    coeff[j] * zeta^(-C(j,2)) with zeta^(C(m,2)), m = 0 .. 2p-4.
    """
    size = len(tp)
    m = np.arange(2 * size - 1, dtype=np.int64)
    chirp = m * (m - 1) // 2 % size
    unchirp = tp[-chirp[:size] % size]
    x = correlate_mod(mulmod(coeff, unchirp, p, 2), tp[chirp], p * p)[:size]
    return mulmod(x, unchirp, p, 2)


def family_sweep(ctx: PrimeContext, family: str) -> np.ndarray:
    """Exact integer values of a family at every lambda in 0 .. p-1.

    Families: 2g2, 2g2t (p = 1 mod 6), 6g6, 6g6t (p = 2 mod 3), ap.
    Entries at structural zeros (lambda = 0, and lambda = p-1 for the
    untilded families) are 0; ap has zeros at lambda = 0, 1.

    A plain family's value at lambda != 0, -1 is, up to its sign, the
    length-(p-1) transform W(v) = sum_j c_j zeta^(j v) mod p^2 at
    v = -dlog(t(lambda)), with c the coefficients rolled by the family's
    rotation.  W is computed for all v at once in O(p log p): the
    identity j v = C(j+v, 2) - C(j, 2) - C(v, 2) turns it into one linear
    correlation (_dft_mod), evaluated exactly by limbs and float FFTs
    (correlate_mod).  Any rounding residual >= 0.25 raises
    PrecisionExhaustedError, and every lifted value is checked against
    the Hasse bound floor(2 sqrt p).  A tilde family is its cached plain
    sweep with the entry at lambda = p-1 patched to -correction_term();
    ap comes from frobenius_sweep.  The result is a read-only int32
    array.
    """
    p = ctx.p
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    cached = ctx.sweeps.get(family)
    if cached is not None:
        return cached
    if family == "ap":
        return _cache_sweep(ctx, family, ctx.frobenius_sweep())
    if family.endswith("t"):
        out = family_sweep(ctx, family[:-1]).copy()
        out[p - 1] = -ctx.correction_term()
        return _cache_sweep(ctx, family, out)
    fam = _FAMILIES[family]
    _check_class(fam, p)
    pn = p * p
    s = _coefficients(GammaTable(ctx, 2), fam.upper, fam.lower, fam.p_shift)
    coeff = np.roll(s, int(fam.rotation * (p - 1)))
    teich_pow = powers_mod(_teichmuller_lift(p, ctx.g, 2), p - 1, p, 2)
    w_all = _dft_mod(coeff, teich_pow, p)

    lam = np.arange(1, p - 1)  # lambda != 0, -1
    k, a, b = fam.t_coeffs
    u = ctx.dlog[k % p] + a * ctx.dlog[lam] + b * ctx.dlog[lam + 1]
    w = w_all[-u % (p - 1)]

    bound = math.isqrt(4 * p)
    signed = np.where(w <= bound, w, w - pn)
    if np.any(np.abs(signed) > bound):
        raise NoRepresentativeError(
            "sweep produced a residue outside the integrality bound"
        )
    out = np.zeros(p, dtype=np.int32)
    out[1 : p - 1] = signed * ctx.legendre[fam.sign * (lam + 1) % p]
    return _cache_sweep(ctx, family, out)


def _cache_sweep(ctx: PrimeContext, family: str, arr: np.ndarray) -> np.ndarray:
    # cached arrays are shared between callers, so freeze them
    arr.flags.writeable = False
    ctx.sweeps[family] = arr
    return arr
