import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcforge.algebra import catalog
from qcforge.forms import KForm, exterior_d, format_form, parse_form
from qcforge.poly import Poly
from qcforge.scalars import Jet
from test_sparse_oracle import kform_max_abs


def e(*idx, dim=7):
    return KForm.basis(dim, *idx)


def v(i, dim=7):
    """Components of the frame basis vector e_i."""
    return tuple(Fraction(int(a == i)) for a in range(1, dim + 1))


def _permutation_sign(perm) -> int:
    inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                     for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def evaluate(form, vectors):
    """Reference pairing of a k-form with k vectors, each a tuple of
    components over the frame: the determinant of <e^{idx[i]}, v_j>, summed
    over all k! permutations for every monomial."""
    if len(vectors) != form.degree:
        raise ValueError(f"degree-{form.degree} form applied to {len(vectors)} vectors")
    total = 0
    for idx, coeff in form.terms.items():
        det = 0
        for perm in itertools.permutations(range(form.degree)):
            prod = _permutation_sign(perm)
            for i, j in enumerate(perm):
                prod = prod * vectors[j][idx[i] - 1]
            det = det + prod
        total = total + coeff * det
    return total


def contract(form, vec):
    """Reference interior product v . form: the (k-1)-form whose
    coefficient on e^I is form(v, e_I), from the permutation sum."""
    terms = {rest: evaluate(form, [vec] + [v(a, form.dim) for a in rest])
             for rest in itertools.combinations(range(1, form.dim + 1), form.degree - 1)}
    return KForm(form.dim, form.degree - 1, terms)


class TestWedge:
    def test_disjoint_monomials(self):
        assert e(1, 2).wedge(e(3, 4)) == e(1, 2, 3, 4)

    def test_square_of_sum_doubles_cross_terms(self):
        w1 = e(1, 2) + e(3, 4)
        assert w1.wedge(w1) == 2 * e(1, 2, 3, 4)

    def test_quaternionic_pair_wedges_to_zero(self):
        w1 = e(1, 2) + e(3, 4)
        w2 = e(1, 3) + e(4, 2)
        assert w1.wedge(w2).is_zero()
        # expanding by hand: every monomial repeats an index
        for a in (e(1, 2), e(3, 4)):
            for b in (e(1, 3), e(4, 2)):
                assert a.wedge(b).is_zero()

    def test_all_three_squares_give_the_volume(self):
        vol = 2 * e(1, 2, 3, 4)
        w2 = e(1, 3) + e(4, 2)
        w3 = e(1, 4) + e(2, 3)
        assert w2.wedge(w2) == vol
        assert w3.wedge(w3) == vol

    def test_frame_mismatch(self):
        with pytest.raises(ValueError, match="frame dimensions differ: 7 vs 5"):
            e(1, dim=7).wedge(e(1, dim=5))

    def test_over_top_degree_is_zero(self):
        a = e(1, 2, 3, dim=4)
        assert a.wedge(e(2, 4, dim=4)).is_zero()


_IDX = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3,
                unique=True)


@settings(max_examples=150, deadline=None)
@given(_IDX, _IDX, st.integers(-5, 5), st.integers(-5, 5))
def test_wedge_graded_commutativity(i1, i2, c1, c2):
    a = Fraction(c1) * KForm.basis(6, *i1)
    b = Fraction(c2) * KForm.basis(6, *i2)
    sign = (-1) ** (len(i1) * len(i2))
    assert a.wedge(b) == sign * b.wedge(a)


class TestEvaluate:
    """``KForm.coeff`` reads a form on frame basis vectors; ``evaluate`` is
    the reference for general vectors."""

    def test_identity_pairing(self):
        assert e(1, 2).coeff(1, 2) == 1
        assert evaluate(e(1, 2), [v(1), v(2)]) == 1

    def test_antisymmetry(self):
        assert e(1, 2).coeff(2, 1) == -1
        assert e(1, 2).coeff(1, 1) == 0

    def test_fundamental_form_normalization(self):
        w1 = e(1, 2) + e(3, 4)
        assert w1.coeff(1, 2) == 1

    def test_alternating_on_all_transpositions(self):
        rng = random.Random(7)
        form = KForm(7, 3)
        for _ in range(4):
            pick = rng.sample(range(1, 8), 3)
            form = form + Fraction(rng.randint(-4, 4)) * KForm.basis(7, *pick)
        vecs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(7)) for _ in range(3)]
        base = evaluate(form, vecs)
        for i in range(3):
            for j in range(i + 1, 3):
                swapped = list(vecs)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert evaluate(form, swapped) == -base

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            e(1, 2).coeff(1)


_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _form_and_indices(draw, min_degree=0):
    """A rational form of degree 0-3 over a 5-dim frame, and index tuples
    of its degree, in any order and with repeats allowed."""
    degree = draw(st.integers(min_degree, 3))
    monomials = draw(st.lists(st.tuples(*[st.integers(1, 5)] * degree), max_size=4))
    form = KForm(5, degree)
    for idx in monomials:
        form = form + draw(_COEFF) * KForm.basis(5, *idx)
    tuples = draw(st.lists(st.tuples(*[st.integers(1, 5)] * degree), min_size=1, max_size=4))
    return form, tuples


@settings(max_examples=200, deadline=None)
@given(_form_and_indices())
def test_coeff_matches_reference_at_basis_vectors(case):
    form, tuples = case
    for idx in tuples:
        assert form.coeff(*idx) == evaluate(form, [v(a, 5) for a in idx]), idx


@settings(max_examples=150, deadline=None)
@given(_form_and_indices(min_degree=1), st.integers(1, 5))
def test_interior_matches_reference_contraction(case, a):
    form, tuples = case
    inner = form.interior(a)
    assert inner == contract(form, v(a, 5))
    for idx in tuples:
        assert inner.coeff(*idx[1:]) == evaluate(form, [v(a, 5)] + [v(b, 5) for b in idx[1:]])


class TestInterior:
    def test_first_slot(self):
        assert e(1, 2).interior(1) == e(2)
        assert e(1, 2).interior(2) == -1 * e(1)

    def test_missing_index(self):
        assert e(1, 2).interior(3).is_zero()

    def test_antiderivation(self):
        rng = random.Random(11)
        for _ in range(40):
            ia = tuple(rng.sample(range(1, 8), rng.randint(1, 2)))
            ib = tuple(rng.sample(range(1, 8), rng.randint(1, 3)))
            a = KForm.basis(7, *ia)
            b = KForm.basis(7, *ib)
            c = rng.randint(1, 7)
            lhs = a.wedge(b).interior(c)
            rhs = a.interior(c).wedge(b) + ((-1) ** a.degree) * a.wedge(b.interior(c))
            assert lhs == rhs


class TestExteriorD:
    # the l1 structure equations on the product with a line, dx = e^8
    GENERATORS = [KForm(8, 2, g.terms) for g in catalog("l1").algebra.diff] + [KForm(8, 2)]

    @staticmethod
    def coeff_d(c):
        return c.derivative() * KForm.basis(8, 8)

    @staticmethod
    def random_jet_form(rng, x, degree):
        form = KForm(8, degree)
        for _ in range(4):
            pick = tuple(rng.sample(range(1, 9), degree))
            coeff = (x * rng.uniform(-1, 1)).exp() * rng.uniform(-2, 2)
            form = form + coeff * KForm.basis(8, *pick)
        return form

    def test_leibniz_rule_with_jet_coefficients(self):
        rng = random.Random(5)
        d = lambda form: exterior_d(form, self.GENERATORS, self.coeff_d)
        for _ in range(10):
            x = Jet.variable(rng.uniform(0.5, 1.5))
            a = self.random_jet_form(rng, x, rng.randint(1, 2))
            b = self.random_jet_form(rng, x, rng.randint(1, 2))
            lhs = d(a.wedge(b))
            rhs = d(a).wedge(b) + ((-1) ** a.degree) * a.wedge(d(b))
            assert kform_max_abs(lhs - rhs) < 1e-12
            assert not lhs.is_zero()

    def test_coefficient_derivative_times_dx(self):
        x = Jet.variable(0.7)
        form = KForm(8, 1, {(8,): x.exp()}) + KForm(8, 1, {(3,): x * x})
        d = exterior_d(form, self.GENERATORS, self.coeff_d)
        # d(x^2 e^3) = 2x dx ^ e^3 + x^2 d e^3; d(e^x dx) = 0
        assert abs(d.terms[(3, 8)].value + 1.4) < 1e-15
        want = exterior_d(KForm(8, 1, {(3,): Fraction(1)}), self.GENERATORS)
        for idx, c in want.terms.items():
            assert abs(d.terms[idx].value - 0.49 * float(c)) < 1e-15

    def test_generator_count_must_match(self):
        with pytest.raises(ValueError,
                           match="form lives on dim 7, 8 generator differentials given"):
            exterior_d(e(1), self.GENERATORS)


class TestHodge:
    def test_single_covector(self):
        orient = tuple(range(1, 8))
        assert e(1).hodge_star(orient) == e(2, 3, 4, 5, 6, 7)

    def test_volume_to_one(self):
        orient = tuple(range(1, 8))
        vol = KForm.basis(7, *range(1, 8))
        starred = vol.hodge_star(orient)
        assert starred.degree == 0 and starred.terms == {(): Fraction(1)}

    def test_star_star_sign(self):
        rng = random.Random(3)
        for dim in (5, 6, 7):
            orient = tuple(range(1, dim + 1))
            for degree in range(1, dim):
                pick = tuple(rng.sample(range(1, dim + 1), degree))
                form = Fraction(rng.randint(1, 5)) * KForm.basis(dim, *pick)
                sign = (-1) ** (degree * (dim - degree))
                assert form.hodge_star(orient).hodge_star(orient) == sign * form

    def test_defining_property(self):
        # a ^ *a = <a, a> vol for random monomial sums
        rng = random.Random(5)
        orient = tuple(range(1, 8))
        vol = KForm.basis(7, *range(1, 8))
        for _ in range(10):
            form = KForm(7, 2)
            for _ in range(3):
                pick = tuple(rng.sample(range(1, 8), 2))
                form = form + Fraction(rng.randint(-3, 3)) * KForm.basis(7, *pick)
            norm2 = sum(c * c for c in form.terms.values())
            assert form.wedge(form.hodge_star(orient)) == norm2 * vol

    def test_bad_orientation(self):
        with pytest.raises(ValueError, match=r"orientation \(1, 2, 3, 4, 5, 6, 6\) "
                                             r"is not a permutation of 1\.\.7"):
            e(1).hodge_star((1, 2, 3, 4, 5, 6, 6))


class TestLiterals:
    def test_parse_examples(self):
        form = parse_form("2 e1^e2 + 1/2 e3^e7", 7)
        assert form == 2 * e(1, 2) + Fraction(1, 2) * e(3, 7)

    def test_unordered_monomial_normalizes(self):
        assert parse_form("e4^e2", 7) == -1 * e(2, 4)

    def test_roundtrip(self):
        rng = random.Random(13)
        for _ in range(20):
            form = KForm(7, 2)
            for _ in range(4):
                pick = tuple(rng.sample(range(1, 8), 2))
                form = form + Fraction(rng.randint(-6, 6), rng.randint(1, 5)) \
                    * KForm.basis(7, *pick)
            assert parse_form(format_form(form), 7, degree=2) == form

    def test_zero_needs_degree(self):
        assert parse_form("0", 7, degree=2).is_zero()
        with pytest.raises(ValueError):
            parse_form("0", 7)

    def test_bad_literals(self):
        for text in ("e1^", "2 +", "e1^e9", "7", "e1 @ e2"):
            with pytest.raises(ValueError):
                parse_form(text, 7)

    @pytest.mark.parametrize("text,degree,message", [
        ("e1^e2 + e3 + e9^e1", None, "index e9 out of range"),
        ("e1^e2 + e3 + 5", None, "term without coframe indices near token '5'"),
        ("e1 + e2^e3", 2, "form has degree 1, expected 2"),
        ("e1^e2 + e3 + e4^e5^e6", 2, "mixed-degree form literal"),
        ("e1^e2 + e3 @", None, "bad form literal near ' @'"),
    ])
    def test_first_refusal_wins(self, text, degree, message):
        """Token errors first, then term errors left to right, then the
        stated degree, then mixed degrees."""
        with pytest.raises(ValueError, match=message):
            parse_form(text, 7, degree)


_MONOMIALS = st.lists(st.integers(1, 5), min_size=1, max_size=3)


@st.composite
def form_literals(draw):
    """A literal over a 5-dimensional coframe with its terms (coefficient,
    indices): monomials of one degree drawn from a small pool, so that
    repeats, reversed orders, repeated indices (e1^e1) and cancelling terms
    come up; coefficients zero, elided, signed or fractional."""
    degree = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(st.integers(1, 5), min_size=degree, max_size=degree),
                         min_size=1, max_size=4))
    terms, chunks = [], []
    for _ in range(draw(st.integers(1, 6))):
        indices = draw(st.sampled_from(pool))
        minus = draw(st.booleans())
        coeff = draw(st.none() | st.fractions(max_denominator=6).filter(lambda x: abs(x) < 10))
        mono = "^".join(f"e{a}" for a in indices)
        body = mono if coeff is None else f"{coeff} {mono}"
        chunks.append(("- " if minus else "+ " if chunks else "") + body)
        terms.append(((-1 if minus else 1) * (Fraction(1) if coeff is None else coeff), indices))
    return " ".join(chunks), terms, degree


@settings(max_examples=150, deadline=None)
@given(form_literals())
def test_parse_form_matches_sum_of_basis(case):
    """One pass over the terms builds what the sum of coefficient times
    basis monomial builds: the same keys in the same order, equal values."""
    text, terms, degree = case
    want = KForm(5, degree)
    for coeff, indices in terms:
        want = want + coeff * KForm.basis(5, *indices)
    have = parse_form(text, 5)
    assert have.degree == degree
    assert list(have.terms.items()) == list(want.terms.items())
    assert all(type(x) is Fraction for x in have.terms.values())
    assert parse_form("0", 5, degree) == KForm(5, degree)


@pytest.mark.parametrize("misuse,error,message", [
    (lambda: KForm(7, -1), ValueError, "negative form degree"),
    (lambda: KForm(7, 2, {(1,): 1}), ValueError, "wrong length for degree 2"),
    (lambda: KForm(7, 1, {(8,): 1}), ValueError, r"index out of range in \(8,\)"),
    (lambda: KForm(7, 2, {(2, 1): 1}), ValueError, "not strictly increasing"),
    (lambda: e(1) + e(1, 2), ValueError, "cannot add forms of different degree"),
    (lambda: e(1) * e(2), TypeError, "use wedge"),
    (lambda: KForm(7, 0).interior(1), ValueError, "interior product needs degree >= 1"),
], ids=["negative-degree", "index-length", "index-range", "index-order", "add-degrees",
        "form-product", "interior-of-scalar"])
def test_library_misuse_refused(misuse, error, message):
    with pytest.raises(error, match=message):
        misuse()


@pytest.mark.parametrize("value", [e(1, 2), Poly.symbol("f")], ids=["KForm", "Poly"])
def test_forms_and_polynomials_are_unhashable(value):
    """Both compare by their terms, which operations reassign or fill in
    after construction, so neither has a hash."""
    with pytest.raises(TypeError):
        hash(value)
