"""Truncated residues, Teichmuller lifts, and the p-adic gamma table."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from padichg import (
    BadPrecisionError,
    GammaTable,
    NotPrimeError,
    ParameterNotPadicError,
    PrimeTooSmallError,
    ResidueMod,
    build_gamma_table,
    floor_bracket,
    frac_bracket,
    gamma_p,
    gamma_p_integer,
    gamma_shift_check,
    product_formula_check,
    reflection_check,
    teichmuller,
)
from padichg.errors import ArgumentNotRepresentableError

from oracles import gamma_morita, gamma_tables_loop, teichmuller_limit


class TestResidueMod:
    def test_ring_operations(self):
        a = ResidueMod(20, 5, 3)
        b = ResidueMod(110, 5, 3)
        assert (a + b).value == 5
        assert (a - b).value == (20 - 110) % 125
        assert (a * b).value == 20 * 110 % 125
        assert (-a).value == 105
        assert (a**3).value == pow(20, 3, 125)
        assert (1 + a).value == 21 and (1 - a).value == (1 - 20) % 125
        assert 2 * a == ResidueMod(40, 5, 3)

    def test_inverse_and_units(self):
        a = ResidueMod(7, 5, 3)
        assert a.is_unit()
        assert (a * a.inverse()).value == 1
        with pytest.raises(ZeroDivisionError):
            ResidueMod(10, 5, 3).inverse()
        assert not ResidueMod(10, 5, 3).is_unit()

    def test_reduce_and_lift(self):
        a = ResidueMod(123, 5, 3)
        assert a.reduce(2) == ResidueMod(123 % 25, 5, 2)
        with pytest.raises(BadPrecisionError):
            a.reduce(4)
        assert ResidueMod(124, 5, 3).lift_centered() == -1
        assert ResidueMod(62, 5, 3).lift_centered() == 62
        assert ResidueMod(63, 5, 3).lift_centered() == 63 - 125

    def test_equality_and_mixing(self):
        assert ResidueMod(3, 5, 2) == ResidueMod(28, 5, 2)
        assert ResidueMod(3, 5, 2) == 28
        assert ResidueMod(3, 5, 2) != ResidueMod(3, 5, 3)
        assert hash(ResidueMod(3, 5, 2)) == hash(ResidueMod(28, 5, 2))
        with pytest.raises(ValueError):
            ResidueMod(1, 5, 2) + ResidueMod(1, 7, 2)
        with pytest.raises(BadPrecisionError):
            ResidueMod(1, 5, 0)


def test_brackets():
    assert frac_bracket(Fraction(5, 12)) == Fraction(5, 12)
    assert frac_bracket(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac_bracket(Fraction(7, 3)) == Fraction(1, 3)
    assert floor_bracket(Fraction(-1, 3)) == -1
    assert floor_bracket(Fraction(11, 12)) == 0
    assert floor_bracket(2) == 2


class TestTeichmuller:
    def test_pinned_values(self):
        assert teichmuller(5, 2, 2) == 7  # 7^2 = -1, 7^4 = 1 mod 25
        assert teichmuller(5, 1, 2) == 1
        assert teichmuller(5, 0, 2) == 0

    def test_against_limit_oracle(self):
        for p in (5, 7, 13, 31):
            for n in (2, 3):
                for t in range(p):
                    assert teichmuller(p, t, n) == teichmuller_limit(p, t, n)

    def test_digit_and_order(self):
        for p in (7, 11):
            pn = p**3
            for t in range(1, p):
                w = teichmuller(p, t, 3)
                assert w % p == t
                assert pow(w, p - 1, pn) == 1

    def test_errors(self):
        with pytest.raises(NotPrimeError):
            teichmuller(8, 2, 2)
        with pytest.raises(PrimeTooSmallError):
            teichmuller(3, 2, 2)
        with pytest.raises(BadPrecisionError):
            teichmuller(5, 2, 0)


class TestGammaTable:
    def test_integer_values(self, table_of):
        t = table_of(5)
        assert gamma_p_integer(t, 3) == ResidueMod(-2, 5, 3)
        assert gamma_p_integer(t, 0) == ResidueMod(1, 5, 3)
        assert gamma_p_integer(t, 6) == ResidueMod(24, 5, 3)
        with pytest.raises(ValueError):
            gamma_p_integer(t, -1)

    def test_residues_match_factorial_oracle(self, table_of):
        for p in (5, 7, 13):
            t = table_of(p)
            for m in range(p**2 + 2 * p):
                assert t.gamma_residue(m) == gamma_morita(p, 3, m)
            for m in (p**3 - 1, p**3 - p, p**3 - p - 1, 7 * p * p + 3):
                assert t.gamma_residue(m) == gamma_morita(p, 3, m)

    def test_fraction_arguments(self, table_of):
        for p in (7, 13, 31):
            t = table_of(p)
            for den in (3, 4, 6, 12):
                for num in range(den):
                    x = Fraction(num, den)
                    assert t.gamma_fraction(x) == gamma_morita(p, 3, x)
        assert gamma_p(table_of(7), Fraction(1, 2)) == ResidueMod(
            gamma_morita(7, 3, Fraction(1, 2)), 7, 3
        )

    def test_low_precision_and_naive_fallback(self, ctx_of):
        for n in (1, 2):
            t = GammaTable(ctx_of(5), n)
            for m in range(60):
                assert t.gamma_residue(m) == gamma_morita(5, n, m)
        # above n = 3 only the literal O(p^n) product would remain
        with pytest.raises(BadPrecisionError):
            GammaTable(ctx_of(5), 4)

    def test_entries(self, table_of):
        t = table_of(7)
        ent = t.entries()
        assert len(ent) == 6
        assert ent[0] == 1
        for k in range(6):
            assert t.entry(k) == gamma_morita(7, 3, Fraction(k, 6))

    @pytest.mark.parametrize("p", [7, 1447, 1451])
    def test_entries_match_entry(self, ctx_of, p):
        for n in (1, 2, 3):
            t = GammaTable(ctx_of(p), n)
            assert t.entries() == [t.entry(k) for k in range(p - 1)]

    @pytest.mark.parametrize("p", [5, 7, 1447, 1451, 10007, 55103, 55109])
    def test_tables_match_loop_recurrences(self, ctx_of, p):
        # 1447 | 1451 and 55103 | 55109 straddle the int64 edges at n = 3, 2
        for n in (1, 2, 3):
            t = GammaTable(ctx_of(p), n)
            want = gamma_tables_loop(p, n)
            for name in ("fact", "e2", "w_lo", "w_hi"):
                got = getattr(t, "_" + name)
                if want[name] is None:
                    assert got is None
                else:
                    assert got.dtype == np.int64
                    assert got.tolist() == want[name]
            if n >= 2:
                assert t._h1.dtype == np.int64
                assert t._h1.tolist() == [h % p ** (n - 1) for h in want["h1"]]

    def test_precision_consistency(self, ctx_of, table_of):
        t3, t2 = table_of(13), GammaTable(ctx_of(13), 2)
        for k in range(12):
            assert t3.entry(k) % 13**2 == t2.entry(k)

    def test_rejects_non_padic_argument(self, ctx_of, table_of):
        with pytest.raises(ParameterNotPadicError):
            table_of(5).fraction_residue(Fraction(1, 5))
        with pytest.raises(BadPrecisionError):
            GammaTable(ctx_of(5), 0)


def test_build_gamma_table_default_precision(ctx_of):
    ctx = ctx_of(7)
    assert build_gamma_table(ctx).n == ctx.precision
    assert build_gamma_table(ctx, 2).n == 2


def test_reflection(table_of):
    for p in (7, 13):
        t = table_of(p)
        for k in range(p - 1):
            assert reflection_check(t, Fraction(k, p - 1))
        assert reflection_check(t, 0)


def test_product_formula(table_of):
    assert product_formula_check(table_of(13), 2, 10)  # x = 5/6
    assert product_formula_check(table_of(7), 3, 0)
    assert product_formula_check(table_of(11), 2, 1)
    with pytest.raises(ArgumentNotRepresentableError):
        product_formula_check(table_of(5), 10, 1)


def test_shift_identity(table_of):
    assert gamma_shift_check(table_of(13), 12, 1)
    assert gamma_shift_check(table_of(7), 2, 0)
    assert gamma_shift_check(table_of(11), 3, 5)
    with pytest.raises(ArgumentNotRepresentableError):
        gamma_shift_check(table_of(7), 7, 1)


def test_residue_dtype_boundary(ctx_of):
    # the tables stay int64 on both sides of the plain-product edge
    # p^(2n) < 2^63, where vectorized() switches to base-p digit products;
    # the scalar gamma_residue, in Python ints, is the reference
    for p, n in ((1447, 3), (1451, 3), (55103, 2), (55109, 2)):
        pn = p**n
        tab = GammaTable(ctx_of(p), n)
        assert tab._fact.dtype == tab._h1.dtype == tab._w_lo.dtype == np.int64
        rng = random.Random(p)
        r = [pn - 1 - rng.randrange(p**2) for _ in range(100)]
        r += [rng.randrange(pn) for _ in range(200)]
        got = tab.vectorized()(np.array(r, dtype=np.int64))
        assert got.tolist() == [tab.gamma_residue(a) for a in r]


def test_precision_three_prime_limit():
    # residues mod p^3 must fit in int64: p < 2^21.  The check comes
    # before any table is read, so a bare namespace stands in for the
    # context of the first prime past the limit
    assert 2097143**3 < 2**63 <= 2097169**3
    with pytest.raises(BadPrecisionError):
        GammaTable(SimpleNamespace(p=2097169), 3)


def test_vectorized_gamma_at_int64_edge(ctx_of):
    # 1447 is the largest prime with int64 residues mod p^3; take q = r // p
    # near its top, where q * h1 and the products are largest
    p = 1447
    tab = GammaTable(ctx_of(p), 3)
    rng = random.Random(p)
    r = [p**3 - 1 - rng.randrange(p**2) for _ in range(300)]
    r += rng.sample(range(p**3), 300)
    got = tab.vectorized()(np.array(r, dtype=np.int64))
    assert got.tolist() == [tab.gamma_residue(x) for x in r]
