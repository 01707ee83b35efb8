"""Truncated residues, Teichmuller lifts, and the p-adic gamma table."""

import copy
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from padichg import (
    BadPrecisionError,
    GammaTable,
    NotPrimeError,
    ParameterNotPadicError,
    PrimeContext,
    PrimeTooSmallError,
    build_gamma_table,
    frac_bracket,
    jacobi_sum_check,
    product_formula_check,
    reflection_check,
    teichmuller,
)
from padichg import verify
from padichg.errors import ArgumentNotRepresentableError
from padichg.field import mulmod

from oracles import (
    gamma_block,
    gamma_morita,
    gamma_tables_loop,
    jacobi_sum_reference,
    product_formula_reference,
    reflection_reference,
    teichmuller_limit,
)

ORDERS = (2, 3, 4, 6, 12)


def test_brackets():
    assert frac_bracket(Fraction(5, 12)) == Fraction(5, 12)
    assert frac_bracket(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac_bracket(Fraction(7, 3)) == Fraction(1, 3)


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
        # 561 is a Carmichael number and 10007^2 a prime square: the
        # public lift checks primality before it lifts
        for n in (8, 561, 10007**2):
            with pytest.raises(NotPrimeError):
                teichmuller(n, 2, 2)
        with pytest.raises(PrimeTooSmallError):
            teichmuller(3, 2, 2)
        with pytest.raises(BadPrecisionError):
            teichmuller(5, 2, 0)


class TestGammaTable:
    def test_integer_values(self, table_of):
        t = table_of(5)
        assert t.gamma_residue(3) == 125 - 2
        assert t.gamma_residue(0) == 1
        assert t.gamma_residue(6) == 24

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
            x = Fraction(k, 6)
            assert t.gamma_fraction(x) == gamma_morita(7, 3, x)

    @pytest.mark.parametrize("p", [7, 1447, 1451])
    def test_entries_match_entry(self, ctx_of, p):
        for n in (1, 2, 3):
            t = GammaTable(ctx_of(p), n)
            assert t.entries() == [t.gamma_fraction(Fraction(k, p - 1)) for k in range(p - 1)]

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
            x = Fraction(k, 12)
            assert t3.gamma_fraction(x) % 13**2 == t2.gamma_fraction(x)

    def test_rejects_non_padic_argument(self, ctx_of, table_of):
        with pytest.raises(ParameterNotPadicError):
            table_of(5).fraction_residue(Fraction(1, 5))
        with pytest.raises(BadPrecisionError):
            GammaTable(ctx_of(5), 0)


def test_build_gamma_table_default_precision(ctx_of):
    ctx = ctx_of(7)
    assert build_gamma_table(ctx).n == 3
    assert build_gamma_table(ctx, 2).n == 2


def ints(*xs):
    return np.array(xs, dtype=np.int64)


def test_reflection(table_of):
    for p in (7, 13):
        t = table_of(p)
        x = [t.fraction_residue(Fraction(k, p - 1)) for k in range(p - 1)]
        ok = reflection_check(t, ints(*x, 0))
        assert ok.dtype == bool and ok.shape == (p,) and ok.all()


def test_product_formula(table_of):
    assert product_formula_check(table_of(13), 2, ints(10)).tolist() == [True]  # x = 5/6
    assert product_formula_check(table_of(7), 3, ints(0)).tolist() == [True]
    assert product_formula_check(table_of(11), 2, ints(1)).tolist() == [True]
    with pytest.raises(ArgumentNotRepresentableError):
        product_formula_check(table_of(5), 10, ints(1))


def _reflection_args(t: GammaTable) -> np.ndarray:
    # the residues of k/(p-1) mod p^n, k = 0 .. p-2, as the gamma suite takes them
    k = np.arange(t.p - 1, dtype=np.int64)
    return mulmod(k, pow(t.p - 1, -1, t.modulus), t.p, t.n)


def _jacobi_reference_grid(p, gamma=None):
    # jacobi_sum_reference at 0 < a, b < p-1 with a + b != p-1; True elsewhere
    return [
        [not (a and b and (a + b) % (p - 1)) or jacobi_sum_reference(p, 3, a, b, gamma)
         for b in range(p - 1)]
        for a in range(p - 1)
    ]


@pytest.mark.parametrize("p", [5, 7, 13, 97])
def test_array_checks_match_scalar_reference(ctx_of, table_of, p):
    t = table_of(p)
    ok = reflection_check(t, _reflection_args(t))
    assert ok.dtype == bool
    assert ok.tolist() == [reflection_reference(p, 3, Fraction(k, p - 1)) for k in range(p - 1)]
    r = np.arange(-2 * p, p * p, dtype=np.int64)
    assert reflection_check(t, r).tolist() == [reflection_reference(p, 3, x) for x in r.tolist()]
    for m in ORDERS:
        got = product_formula_check(t, m, np.arange(p, dtype=np.int64))
        assert got.tolist() == [product_formula_reference(p, 3, m, x) for x in range(p)]
    ok = jacobi_sum_check(ctx_of(p), t)
    assert ok.dtype == bool and ok.shape == (p - 1, p - 1)
    assert ok.tolist() == _jacobi_reference_grid(p)


@pytest.mark.parametrize("p", [1447, 1451])
def test_array_reflection_past_plain_products(table_of, p):
    # from 1451 on, p^6 > 2^63 and mulmod takes base-p digits at n = 3
    t = table_of(p)
    ok = reflection_check(t, _reflection_args(t))
    assert ok.tolist() == [reflection_reference(p, 3, Fraction(k, p - 1)) for k in range(p - 1)]


def test_corrupted_table_is_flagged(ctx_of, monkeypatch):
    # one wrong factorial entry, fact[i] = i!, touches exactly the
    # arguments whose Gamma_p reads it: r or 1 - r with digit i + 1 mod p
    p, i = 7, 1
    good = GammaTable(ctx_of(p), 3)
    bad = copy.copy(good)
    bad._fact = good._fact.copy()
    bad._fact[i] += 1
    # the same entry off by one in the oracle's own tables
    bad_loop = dict(gamma_tables_loop(p, 3))
    bad_loop["fact"] = list(bad_loop["fact"])
    bad_loop["fact"][i] += 1
    gamma = partial(gamma_block, p, 3, tables=bad_loop)
    r = np.arange(p**3, dtype=np.int64)
    assert reflection_check(good, r).all()
    touched = (r % p == i + 1) | ((1 - r) % p == i + 1)
    assert np.array_equal(~reflection_check(bad, r), touched)
    assert bad.gamma_residue(r).tolist() == [gamma(x) for x in r.tolist()]
    for m in ORDERS:
        got = product_formula_check(bad, m, np.arange(p, dtype=np.int64))
        assert got.tolist() == [product_formula_reference(p, 3, m, x, gamma) for x in range(p)]
    assert jacobi_sum_check(ctx_of(p), good).all()
    gk = jacobi_sum_check(ctx_of(p), bad)
    assert gk.tolist() == _jacobi_reference_grid(p, gamma)

    monkeypatch.setattr(
        verify, "build_gamma_table", lambda ctx, n: bad if n == 3 else GammaTable(ctx, n)
    )
    frag = verify._gamma_worker(p)
    # k/(p-1) = -k mod p, and 1 - k/(p-1) = 1 + k mod p
    assert frag["reflection"] == (1, p - 1, [f"p={p} k={i}", f"p={p} k={p - 1 - i}"])
    # Gamma_p(m) reads fact[i] where m = i + 1 mod p, and so does the
    # functional equation at m and at m - 1; the suite takes m = 1 .. p^2 - 1
    fe = frag["functional-equation"]
    assert fe[2] == [f"p={p} n={m}" for m in range(1, p * p) if m % p in (i, i + 1)]
    assert frag["product-formula"][2]
    bad_pairs = np.argwhere(~gk).tolist()
    assert bad_pairs and frag["gross-koblitz"][2] == [f"p={p} a={a} b={b}" for a, b in bad_pairs]
    failed = {res.name for res in verify.run_suite("gamma", p, p) if not res.ok}
    assert {"reflection", "functional-equation", "product-formula", "gross-koblitz"} <= failed


def test_swapped_dlog_is_flagged(ctx_of, table_of, monkeypatch):
    # dlog[2] and dlog[3] swapped: the Jacobi sums read a wrong character
    p = 13
    bad = PrimeContext(p)
    bad.dlog = bad.dlog.copy()
    bad.dlog[[2, 3]] = bad.dlog[[3, 2]]
    # with the true Gamma_p table only the left side is wrong
    assert jacobi_sum_check(ctx_of(p), table_of(p)).all()
    assert (~jacobi_sum_check(bad, table_of(p))).sum() == 104  # of 110 pairs
    monkeypatch.setattr(verify, "make_prime_ctx", lambda q: bad)
    (gk,) = [res for res in verify.run_suite("gamma", p, p) if res.name == "gross-koblitz"]
    assert not gk.ok
    # the context's dlog also feeds the table's inverses 1/c mod p
    assert " failures out of 110 cases across 1 primes: p=13 a=1 b=1;" in gk.detail


def test_jacobi_sum_check_int64_limit(ctx_of):
    # its int64 matmul is exact while (p-2) p^6 < 2^63 at n = 3: up to 509
    assert 507 * 509**6 < 2**63 <= 519 * 521**6
    with pytest.raises(BadPrecisionError):
        jacobi_sum_check(ctx_of(521), GammaTable(ctx_of(521), 3))


def test_residue_dtype_boundary(ctx_of):
    # the tables stay int64 on both sides of the plain-product edge
    # p^(2n) < 2^63, where gamma_residue switches to base-p digit products;
    # the oracle's block formula, in Python ints, is the reference
    for p, n in ((1447, 3), (1451, 3), (55103, 2), (55109, 2)):
        pn = p**n
        tab = GammaTable(ctx_of(p), n)
        assert tab._fact.dtype == tab._h1.dtype == tab._w_lo.dtype == np.int64
        rng = random.Random(p)
        r = [pn - 1 - rng.randrange(p**2) for _ in range(100)]
        r += [rng.randrange(pn) for _ in range(200)]
        got = tab.gamma_residue(np.array(r, dtype=np.int64))
        assert got.tolist() == [gamma_block(p, n, a) for a in r]


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
    got = tab.gamma_residue(np.array(r, dtype=np.int64))
    assert got.tolist() == [gamma_block(p, 3, x) for x in r]


@pytest.mark.parametrize("p", [7, 1447, 1451, 55109])
def test_int_and_array_arguments_agree(ctx_of, p):
    # one evaluator: an int gives an int, an int64 array gives an int64
    # array, entry by entry the same values
    for n in (1, 2, 3):
        tab = GammaTable(ctx_of(p), n)
        rng = random.Random(p + n)
        r = [0, 1, p - 1, p, p**n - 1] + [rng.randrange(p**n) for _ in range(50)]
        got = tab.gamma_residue(np.array(r, dtype=np.int64))
        assert got.dtype == np.int64
        scalars = [tab.gamma_residue(x) for x in r]
        assert all(type(v) is int for v in scalars)
        assert got.tolist() == scalars


@pytest.mark.parametrize("p", [7, 13, 1451])
def test_array_arguments_reduced_mod_modulus(ctx_of, p):
    # arguments outside [0, p^n) stand for their residues mod p^n
    for n in (1, 2, 3):
        pn = p**n
        tab = GammaTable(ctx_of(p), n)
        got = tab.gamma_residue(np.array([-1, -8, pn + 3], dtype=np.int64))
        want = [gamma_block(p, n, x) for x in (pn - 1, pn - 8, 3)]
        assert got.tolist() == want
        assert [tab.gamma_residue(x) for x in (-1, -8, pn + 3)] == want
