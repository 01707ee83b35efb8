"""Hypergeometric evaluators: definition sums, wrappers, lifts, sweeps."""

import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from padichg import (
    GnValue,
    NoRepresentativeError,
    ParameterNotPadicError,
    PrecisionExhaustedError,
    ResidueMod,
    WrongResidueClassError,
    eval_family,
    eval_gn,
    family_sweep,
    lift_signed,
)
from padichg import GammaTable, make_prime_ctx
from padichg.field import exact_rint
from padichg.hypergeo import (
    G2_LOWER,
    G2_UPPER,
    G6_LOWER,
    G6_UPPER,
    _coefficients,
    correlate_mod,
    integral_family,
    require_integral,
)

from oracles import (
    ap_point_count,
    hypergeometric_coefficients,
    hypergeometric_sum,
    legendre_2g2_literal,
    legendre_6g6_literal,
    legendre_euler,
    small_primes,
)


class TestLiftSigned:
    def test_pinned_examples(self):
        assert lift_signed(GnValue(ResidueMod(45, 7, 2), 5)) == -4
        assert lift_signed(GnValue(ResidueMod(0, 7, 2), 5)) == 0
        with pytest.raises(NoRepresentativeError):
            lift_signed(GnValue(ResidueMod(24, 7, 2), 5))

    def test_no_bound(self):
        with pytest.raises(NoRepresentativeError):
            lift_signed(GnValue(ResidueMod(1, 7, 2), None))

    def test_modulus_too_coarse(self):
        with pytest.raises(PrecisionExhaustedError):
            lift_signed(GnValue(ResidueMod(3, 5, 1), 4))

    def test_method_delegates(self):
        assert GnValue(ResidueMod(45, 7, 2), 5).lift() == -4


class TestDefinitionSum:
    def test_zero_argument(self, ctx_of, table_of):
        v = eval_gn(ctx_of(7), table_of(7), G2_UPPER, G2_LOWER, 0, p_shift=1)
        assert v == ResidueMod(0, 7, 3)

    def test_matches_literal_transcription(self, ctx_of, table_of):
        for p in (7, 13):
            ctx, tab = ctx_of(p), table_of(p)
            for t in range(1, p):
                got = eval_gn(ctx, tab, G2_UPPER, G2_LOWER, t, p_shift=1)
                want = hypergeometric_sum(p, 3, G2_UPPER, G2_LOWER, t, 1)
                assert got.value == want, (p, t)
        for p in (5, 11):
            ctx, tab = ctx_of(p), table_of(p)
            for t in range(1, p):
                got = eval_gn(ctx, tab, G6_UPPER, G6_LOWER, t)
                want = hypergeometric_sum(p, 3, G6_UPPER, G6_LOWER, t)
                assert got.value == want, (p, t)

    def test_negative_valuation_needs_shift(self, ctx_of, table_of):
        with pytest.raises(PrecisionExhaustedError):
            eval_gn(ctx_of(7), table_of(7), G2_UPPER, G2_LOWER, 3, p_shift=0)

    def test_row_validation(self, ctx_of, table_of):
        ctx, tab = ctx_of(7), table_of(7)
        with pytest.raises(ValueError):
            eval_gn(ctx, tab, (Fraction(1, 2),), (), 3)
        with pytest.raises(ParameterNotPadicError):
            eval_gn(ctx, tab, (Fraction(1, 7),), (Fraction(1, 2),), 3)


class TestLegendreWrappers:
    def test_g2_pinned_values(self, ctx_of, table_of):
        ctx, tab = ctx_of(7), table_of(7)
        assert eval_family(ctx, tab, "2g2", 3).lift() == -4
        assert eval_family(ctx, tab, "2g2", 1).lift() == -1  # phi(-2) at p = 7
        assert eval_family(ctx, tab, "2g2", 6).lift() == 0
        assert eval_family(ctx, tab, "2g2", 0).lift() == 0
        assert eval_family(ctx, tab, "2g2", -1).lift() == 0
        assert eval_family(ctx, tab, "2g2", 3).claimed_bound == 5

    def test_g2_equals_twisted_frobenius_trace(self, ctx_of, table_of):
        for p in (7, 13, 19):
            ctx, tab = ctx_of(p), table_of(p)
            s = legendre_euler(p, -2)
            assert eval_family(ctx, tab, "2g2", 1).lift() == s
            for lam in range(2, p - 1):
                want = s * ap_point_count(p, lam)
                assert eval_family(ctx, tab, "2g2", lam).lift() == want, (p, lam)

    def test_g2_wrong_residue_class(self, ctx_of, table_of):
        with pytest.raises(WrongResidueClassError):
            eval_family(ctx_of(11), table_of(11), "2g2", 3)

    def test_g6_pinned_values(self, ctx_of, table_of):
        ctx, tab = ctx_of(5), table_of(5)
        assert eval_family(ctx, tab, "6g6", 2).lift() == -2  # phi(-1) = +1, a_5(2) = -2
        assert eval_family(ctx, tab, "6g6", 4).lift() == 0
        v11 = eval_family(ctx_of(11), table_of(11), "6g6", 3)
        assert v11.lift() == -ap_point_count(11, 3)  # phi(-1) = -1 at p = 11
        assert v11.claimed_bound == 6

    def test_g6_equals_twisted_frobenius_trace(self, ctx_of, table_of):
        for p in (5, 11, 17, 23):
            ctx, tab = ctx_of(p), table_of(p)
            s = legendre_euler(p, -1)
            for lam in range(2, p - 1):
                want = s * ap_point_count(p, lam)
                assert eval_family(ctx, tab, "6g6", lam).lift() == want, (p, lam)

    def test_g6_outside_theorem_class(self, ctx_of, table_of):
        # p = 1 (mod 3): the residue is defined but carries no bound
        ctx, tab = ctx_of(13), table_of(13)
        v = eval_family(ctx, tab, "6g6", 3)
        assert v.claimed_bound is None
        with pytest.raises(NoRepresentativeError):
            v.lift()
        t6 = 64 * pow(3, 3, 13) * pow(4**6, -1, 13) % 13
        want = hypergeometric_sum(13, 3, G6_UPPER, G6_LOWER, t6)
        if legendre_euler(13, 4) < 0:
            want = (13**3 - want) % 13**3
        assert v.residue.value == want
        assert eval_family(ctx, tab, "6g6", 12).residue.value == 0


    @pytest.mark.parametrize(
        "fam, p",
        [("2g2", 7), ("2g2", 13), ("2g2", 19), ("6g6", 5), ("6g6", 11), ("6g6", 13)],
    )
    def test_residue_matches_literal_wrapper(self, ctx_of, table_of, fam, p):
        # the paper's psi6(2) psi3(4(1+lam)^2/lam) form, residue by residue;
        # p = 13 is outside the 6G6 class, where no bound pins the value
        literal = legendre_2g2_literal if fam == "2g2" else legendre_6g6_literal
        ctx, tab = ctx_of(p), table_of(p)
        for lam in range(p):
            got = eval_family(ctx, tab, fam, lam).residue
            assert (got.value, got.modulus) == (literal(p, 3, lam), p**3), lam


class TestTildeVariants:
    def test_regularized_at_minus_one(self, ctx_of, table_of):
        assert eval_family(ctx_of(5), table_of(5), "6g6t", 4).lift() == -2
        assert eval_family(ctx_of(7), table_of(7), "2g2t", 6).lift() == 0
        for p in (13, 17, 29, 37):
            ctx, tab = ctx_of(p), table_of(p)
            fam = "2g2t" if p % 3 == 1 else "6g6t"
            assert eval_family(ctx, tab, fam, p - 1).lift() == ap_point_count(p, p - 1)

    def test_plain_away_from_minus_one(self, ctx_of, table_of):
        ctx, tab = ctx_of(13), table_of(13)
        tilde = eval_family(ctx, tab, "2g2t", 5)
        assert tilde.lift() == eval_family(ctx, tab, "2g2", 5).lift()
        ctx, tab = ctx_of(11), table_of(11)
        tilde = eval_family(ctx, tab, "6g6t", 3)
        assert tilde.lift() == eval_family(ctx, tab, "6g6", 3).lift()

    def test_tilde_wrong_class_at_minus_one(self, ctx_of, table_of):
        with pytest.raises(WrongResidueClassError):
            eval_family(ctx_of(11), table_of(11), "2g2t", 10)


def test_eval_family_dispatch(ctx_of, table_of):
    ctx, tab = ctx_of(7), table_of(7)
    assert eval_family(ctx, tab, "2g2", 3).lift() == -4
    assert eval_family(ctx, tab, "2g2t", 3).lift() == -4
    with pytest.raises(ValueError):
        eval_family(ctx, tab, "9g9", 3)


class TestFamilySweep:
    def test_pinned_p7(self, ctx_of):
        assert family_sweep(ctx_of(7), "2g2").tolist() == [0, -1, 0, -4, 0, 4, 0]
        assert family_sweep(ctx_of(7), "2g2t").tolist() == [0, -1, 0, -4, 0, 4, 0]

    def test_matches_scalar_eval(self, ctx_of, table_of):
        for p, fams in ((13, ("2g2", "2g2t")), (11, ("6g6", "6g6t"))):
            ctx, tab = ctx_of(p), table_of(p)
            for fam in fams:
                sweep = family_sweep(ctx, fam)
                for lam in range(p):
                    want = eval_family(ctx, tab, fam, lam).lift()
                    assert int(sweep[lam]) == want, (p, fam, lam)

    def test_ap_family(self, ctx_of):
        ctx = ctx_of(13)
        assert np.array_equal(family_sweep(ctx, "ap"), ctx.frobenius_sweep())

    def test_cached_and_frozen(self, ctx_of):
        ctx = ctx_of(7)
        a = family_sweep(ctx, "2g2")
        assert family_sweep(ctx, "2g2") is a
        assert not a.flags.writeable

    def test_residue_class_gates(self, ctx_of):
        with pytest.raises(WrongResidueClassError):
            family_sweep(ctx_of(11), "2g2")
        with pytest.raises(WrongResidueClassError):
            family_sweep(ctx_of(13), "6g6")
        with pytest.raises(ValueError):
            family_sweep(ctx_of(7), "9g9")


def test_context_freed_by_refcount():
    # no reference cycle holds a context, its tables or its cached sweeps
    gc.disable()
    try:
        ctx = make_prime_ctx(1009)
        family_sweep(ctx, "2g2")
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_integral_family_follows_class_table():
    for p in small_primes(5, 200):
        fam = integral_family(p)
        require_integral(fam, p)
        assert fam == ("2g2" if p % 3 == 1 else "6g6")


class TestExactTransforms:
    """The O(p log p) sweeps against scalar evaluation and point counts."""

    @pytest.mark.parametrize("p, fam", [(1009, "2g2"), (1013, "6g6")])
    def test_sweeps_match_scalar_eval(self, ctx_of, table_of, p, fam):
        ctx, tab = ctx_of(p), table_of(p)
        plain = family_sweep(ctx, fam)
        tilde = family_sweep(ctx, fam + "t")
        for lam in range(p):
            assert int(plain[lam]) == eval_family(ctx, tab, fam, lam).lift(), lam
        assert np.array_equal(tilde[: p - 1], plain[: p - 1])
        assert int(tilde[p - 1]) == eval_family(ctx, tab, fam + "t", p - 1).lift()
        ap = ctx.frobenius_sweep()
        for lam in random.Random(p).sample(range(2, p), 30):
            assert int(ap[lam]) == ap_point_count(p, lam), lam

    def test_sweep_identity_past_plain_products(self, ctx_of):
        # p^4 > 2^63: the sweep multiplies residues mod p^2 through base-p
        # digits, and each residue takes 4 limbs in the correlation
        p = 100003
        assert p % 6 == 1 and p**4 > 2**63 and (p * p - 1).bit_length() > 33
        ctx = ctx_of(p)
        g = family_sweep(ctx, "2g2")
        ap = family_sweep(ctx, "ap")
        s = ctx.legendre_symbol(-2)
        assert np.array_equal(g[2 : p - 1], s * ap[2 : p - 1])
        for lam in random.Random(p).sample(range(2, p - 1), 20):
            a = ctx.trace_frobenius(lam)
            assert (int(ap[lam]), int(g[lam])) == (a, s * a), lam

    @pytest.mark.parametrize("p", [1451, 29581, 100003])
    def test_eval_precision_three_matches_sweep(self, ctx_of, table_of, p):
        # scalar digit dot products mod p^3 against the mod p^2 sweep
        ctx, tab = ctx_of(p), table_of(p, 3)
        fam = integral_family(p)
        sweep = family_sweep(ctx, fam)
        for lam in random.Random(p).sample(range(p), 20):
            assert eval_family(ctx, tab, fam, lam).lift() == int(sweep[lam]), lam

    def test_correlate_mod_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        modulus = 54983**2
        a = rng.integers(0, modulus, 37)
        b = rng.integers(0, modulus, 100)
        want = [
            sum(int(a[j]) * int(b[j + v]) for j in range(len(a))) % modulus
            for v in range(len(b) - len(a) + 1)
        ]
        assert correlate_mod(a, b, modulus).tolist() == want

    def test_rounding_guard(self):
        # products past 2^53: the float correlation no longer holds integers
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << 40, 4096).astype(float)
        b = rng.integers(0, 1 << 40, 4096).astype(float)
        c = np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b).conj(), 4096)
        with pytest.raises(PrecisionExhaustedError):
            exact_rint(c)
        assert exact_rint(np.array([2.2, -3.24, 0.0])).tolist() == [2, -3, 0]
        with pytest.raises(PrecisionExhaustedError):
            exact_rint(np.array([1.0, 5.25]))

    @pytest.mark.parametrize("p", [7, 11, 13, 101, 103])
    def test_coefficients_object_dtype(self, p):
        # the int64 coefficients against the Python-int transcription; it
        # reads the literal factorial oracle while that p^n-entry table is
        # small, and the scalar Python-int gamma_fraction above that
        rows = (G2_UPPER, G2_LOWER, 1) if p % 3 == 1 else (G6_UPPER, G6_LOWER, 0)
        ctx = make_prime_ctx(p)
        got = {}
        for n in (2, 3):
            table = GammaTable(ctx, n)
            gamma = None if p**n <= 13**3 else table.gamma_fraction
            got[n] = _coefficients(ctx, table, *rows)
            assert got[n].dtype == np.int64
            assert got[n].tolist() == hypergeometric_coefficients(p, n, *rows, gamma)
        assert (got[3] % p**2).tolist() == got[2].tolist()

    @pytest.mark.parametrize("p", [1451, 1453])
    def test_coefficients_wide_products(self, ctx_of, p):
        # p^6 > 2^63: the n = 3 residue products take base-p digits
        assert p**6 >= 2**63
        rows = (G2_UPPER, G2_LOWER, 1) if p % 3 == 1 else (G6_UPPER, G6_LOWER, 0)
        ctx = ctx_of(p)
        tab = GammaTable(ctx, 3)
        c2 = _coefficients(ctx, GammaTable(ctx, 2), *rows)
        c3 = _coefficients(ctx, tab, *rows)
        assert c3.tolist() == hypergeometric_coefficients(p, 3, *rows, tab.gamma_fraction)
        assert (c3 % p**2).tolist() == c2.tolist()
        r = np.array(random.Random(p).sample(range(p**3), 200), dtype=np.int64)
        assert tab.vectorized()(r).tolist() == [tab.gamma_residue(x) for x in r.tolist()]

    def test_tilde_leaves_plain_cache_intact(self):
        ctx = make_prime_ctx(1009)
        plain = family_sweep(ctx, "2g2")
        before = plain.copy()
        tilde = family_sweep(ctx, "2g2t")
        assert family_sweep(ctx, "2g2") is plain
        assert np.array_equal(plain, before)
        assert not plain.flags.writeable and not tilde.flags.writeable
        assert int(tilde[1008]) == -ctx.correction_term() != int(plain[1008])
