import pytest
from hypothesis import given
from hypothesis import strategies as st

from klhom.polynomials import (Polynomial, mono_div, mono_divides, mono_from_vars,
                               mono_mul, mono_sort_key)
from klhom.zmatrix import Cell

variables = st.sampled_from(["x1", "x2", "x3", "x4"])
monos = st.sets(variables, max_size=3).map(lambda s: mono_from_vars(s))
term_dicts = st.dictionaries(monos, st.integers(-4, 4), max_size=5)
polys = term_dicts.map(Polynomial)


class TestMonoOps:
    def test_mul_adds_exponents(self):
        a = mono_from_vars(["x1", "x2"])
        assert mono_mul(a, mono_from_vars(["x2"])) == (("x1", 1), ("x2", 2))

    def test_div_exact_only(self):
        a = mono_from_vars(["x1", "x2"])
        assert mono_div(a, mono_from_vars(["x2"])) == (("x1", 1),)
        with pytest.raises(ValueError):
            mono_div(a, mono_from_vars(["x3"]))

    def test_divides_respects_exponents(self):
        sq = mono_mul(mono_from_vars(["x1"]), mono_from_vars(["x1"]))
        assert mono_divides(mono_from_vars(["x1"]), sq)
        assert not mono_divides(sq, mono_from_vars(["x1"]))

    def test_squarefree_constructor_rejects_repeats(self):
        with pytest.raises(ValueError):
            mono_from_vars(["x1", "x1"])


class TestPolynomialAlgebra:
    @given(polys, polys)
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(polys, polys, polys)
    def test_multiplication_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(polys, polys, polys)
    def test_multiplication_associates(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys)
    def test_subtraction_cancels(self, f):
        assert (f - f).is_zero

    @given(polys)
    def test_components_recompose(self, f):
        total = Polynomial.zero()
        for d in f.degrees():
            total = total + f.degree_slice(d)
        assert total == f

    def test_zero_coefficients_dropped(self):
        f = Polynomial({mono_from_vars(["x1"]): 0})
        assert f.is_zero and len(f) == 0

    def test_unit_constant_detection(self):
        assert Polynomial.constant(1).is_unit_constant
        assert Polynomial.constant(-1).is_unit_constant
        assert not Polynomial.constant(2).is_unit_constant
        assert not Polynomial({mono_from_vars(["x1"]): 1}).is_unit_constant


class TestTermOrder:
    @given(term_dicts)
    def test_terms_match_a_fresh_sort(self, terms):
        f = Polynomial(terms)
        fresh = tuple(sorted(((m, c) for m, c in terms.items() if c),
                             key=lambda mc: mono_sort_key(mc[0]), reverse=True))
        assert f.terms() == fresh
        assert f.terms() == fresh   # the cached order

    @given(term_dicts)
    def test_cached_order_is_not_part_of_the_value(self, terms):
        cold = Polynomial(terms)
        warm = Polynomial(dict(reversed(list(terms.items()))))
        warm.terms()
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold)
        cold.terms()
        assert hash(warm) == hash(cold) and warm == cold


class TestRendering:
    def test_cells_render_in_subscript_form(self):
        f = Polynomial({mono_from_vars([Cell(1, 3), Cell(2, 1)]): -1})
        assert str(f) == "-z_{1,3}·z_{2,1}"

    def test_constant_and_coefficient_forms(self):
        assert str(Polynomial.zero()) == "0"
        assert str(Polynomial.constant(-1)) == "-1"
        f = Polynomial({mono_from_vars(["x1"]): 2, (): -3})
        assert str(f) == "2·x1 - 3"

