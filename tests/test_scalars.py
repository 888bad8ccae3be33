import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcforge.jetforms import JetForm
from qcforge.scalars import DomainError, Jet, _each, parse_rational


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestRational:
    def test_arithmetic_exact(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(-1, 2) * Fraction(-1, 2) == Fraction(1, 4)
        assert Fraction(2, 4) == Fraction(1, 2)

    def test_parse_and_print_roundtrip(self):
        for text in ("3/4", "-7/2", "5", "0", "-12"):
            q = parse_rational(text)
            assert parse_rational(str(q)) == q

    def test_division_by_zero(self):
        with pytest.raises((ZeroDivisionError, ValueError)):
            parse_rational("1/0")


class TestJet:
    def test_polynomial(self):
        j = Jet.variable(3.0).pow(2)
        assert j.c == (9.0, 6.0, 2.0)

    def test_fractional_power(self):
        j = Jet.variable(1.0).pow(Fraction(5, 3))
        assert close(j.c[0], 1.0)
        assert close(j.c[1], 5.0 / 3.0)
        assert close(j.c[2], 10.0 / 9.0)

    def test_cosh_at_zero(self):
        j = Jet.variable(0.0).cosh()
        assert j.c == (1.0, 0.0, 1.0)

    def test_division_and_log(self):
        u = Jet.variable(2.0)
        j = u.log() / u
        import math
        v = math.log(2.0)
        assert close(j.c[0], v / 2)
        assert close(j.c[1], (1 - v) / 4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            Jet.variable(-1.0).sqrt()
        with pytest.raises(DomainError):
            Jet.variable(0.0).log()
        with pytest.raises(DomainError):
            1 / Jet.variable(0.0)
        nan = Jet.const(float("nan"))
        with pytest.raises(DomainError, match="^division by a jet with value nan$"):
            nan.reciprocal()
        with pytest.raises(DomainError, match="^fractional power 1/2 of base nan$"):
            nan.sqrt()
        with pytest.raises(DomainError, match="^log of value nan$"):
            nan.log()

    def test_negative_base_integer_power_allowed(self):
        j = Jet.variable(-2.0).pow(3)
        assert j.c == (-8.0, 12.0, -12.0)

    def test_derivative_shift(self):
        j = Jet((1.0, 2.0, 3.0))
        assert j.derivative().c == (2.0, 3.0, 0.0)


_SMALL = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_SMALL, _SMALL, _SMALL, _SMALL, _SMALL, _SMALL)
def test_jet_ring_laws(a0, a1, b0, b1, c0, c1):
    a = Jet((a0, a1, 0.5))
    b = Jet((b0, b1, -1.5))
    c = Jet((c0, c1, 2.0))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert all(close(x, y, 1e-9) for x, y in zip(lhs.c, rhs.c))
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert all(close(x, y, 1e-9) for x, y in zip(lhs.c, rhs.c))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.4, max_value=2.5, allow_nan=False))
def test_jet_matches_finite_differences(x):
    fns = [
        lambda u: u.exp() * u.pow(2),
        lambda u: u.cosh() + u.sinh() / (1 + u.pow(2)),
        lambda u: u.pow(Fraction(5, 3)) * u.log(),
    ]
    step = 1e-5
    for fn in fns:
        base, plus, minus = (fn(Jet.variable(p)) for p in (x, x + step, x - step))
        for k in (1, 2):
            fd = (plus.c[k - 1] - minus.c[k - 1]) / (2 * step)
            assert abs(fd - base.c[k]) <= 1e-6 * max(1.0, abs(base.c[k]))


_POS = st.floats(min_value=0.25, max_value=2.5)
_ANY = st.floats(min_value=-2.0, max_value=2.0)
_SAMPLE = st.tuples(_POS, _ANY, _ANY)
_BATCH_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "reciprocal": lambda a, b: a.reciprocal(),
    "pow 3 of a negative base": lambda a, b: (-a).pow(3),
    "pow -2": lambda a, b: a.pow(-2),
    "pow 1/3": lambda a, b: a.pow(Fraction(1, 3)),
    "pow -3/4": lambda a, b: b.pow(Fraction(-3, 4)),
    "exp": lambda a, b: (a - b).exp(),
    "sinh": lambda a, b: b.sinh(),
    "cosh": lambda a, b: (a * b).cosh(),
    "log": lambda a, b: a.log(),
    "compose": lambda a, b: a.compose(b.c),
    "derivative": lambda a, b: (a * b).derivative(),
}


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_SAMPLE, _SAMPLE), min_size=1, max_size=6))
def test_batched_jets_match_scalar_jets_bit_for_bit(samples):
    """A jet with array components is the batch of its per-sample jets."""
    n = len(samples)
    a, b = (Jet(tuple(np.array([s[side][k] for s in samples]) for k in range(3)))
            for side in (0, 1))
    for name, op in _BATCH_OPS.items():
        batched = op(a, b)
        for i, (sa, sb) in enumerate(samples):
            single = op(Jet(sa), Jet(sb))
            for k in range(3):
                got = np.broadcast_to(batched.c[k], (n,))[i]
                assert _bits(got) == _bits(single.c[k]), (name, i, k)


def _stack(rows):
    """The jet whose components stack the rows' (N,) components as (rows, N)."""
    return Jet(tuple(np.array([[s[k] for s in row] for row in rows]) for k in range(3)))


def _row(row):
    return Jet(tuple(np.array([s[k] for s in row]) for k in range(3)))


def _outcome(op, *jets):
    """The components of ``op(*jets)`` as bits, or the type and message it raises."""
    try:
        out = op(*jets)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return [_bits(x).tolist() for x in out.c]


# values that fail the zero or NaN guard, or whose square overflows or underflows
_EDGY = st.one_of(_POS, _POS.map(lambda v: -v), st.sampled_from([0.0, math.nan, 1e200, 1e-200]))
_STACKS = st.integers(0, 3).flatmap(lambda n: st.lists(
    st.lists(st.tuples(_EDGY, _ANY, _ANY), min_size=n, max_size=n), min_size=1, max_size=4))
_STACKED_OPS = {
    "mul": lambda a, b: a * b,
    "reciprocal": lambda a, b: a.reciprocal(),
    "div": lambda a, b: b / a,
    "sqrt": lambda a, b: a.sqrt(),
    "pow -3/4": lambda a, b: a.pow(Fraction(-3, 4)),
    "log": lambda a, b: a.log(),
}


@settings(max_examples=200, deadline=None)
@given(_STACKS)
@example([[(1.0, 0.0, 0.0)], [(0.0, 1.0, 0.0)]])
@example([[(1.0, 0.0, 0.0)], [(math.nan, 1.0, 0.0)]])
@example([[(1.0, 0.0, 0.0), (1e200, 0.0, 0.0)], [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]])
@example([[(math.nan, 1.0, 0.0)], [(-1.0, 1.0, 0.0)]])
def test_stacked_jets_act_row_by_row(rows):
    """Products, reciprocals, fractional powers and logs of jets with
    (rows, N) components equal the row-by-row results bit for bit, and a
    stack on which one of them fails raises what its first failing row
    raises alone: the domain guard (a zero divisor, a non-positive base or
    log argument), the NaN guard, or an earlier row's power overflow.  The
    second operand holds the rows in reverse order."""
    others = rows[::-1]
    with np.errstate(all="ignore"):
        for name, op in _STACKED_OPS.items():
            singles = [_outcome(op, _row(a), _row(b)) for a, b in zip(rows, others)]
            failed = [single for single in singles if isinstance(single, tuple)]
            want = failed[0] if failed else [list(x) for x in zip(*singles)]
            assert _outcome(op, _stack(rows), _stack(others)) == want, name


_FINITE = st.floats(min_value=-1e6, max_value=1e6)
_COMPONENT = st.one_of(_FINITE, st.lists(_FINITE, min_size=3, max_size=3).map(np.array))
_NUMBER = st.one_of(st.sampled_from([0, 1, -1, 0.0, 1.0, -1.0, Fraction(0), Fraction(1),
                                     Fraction(-1)]),
                    st.integers(-10, 10), _FINITE, st.fractions(-10, 10, max_denominator=12))
_NUMBER_OPS = {  # (with the plain number q, with the constant jet c = Jet.const(q))
    "j * q": (lambda j, q: j * q, lambda j, c: j * c),
    "q * j": (lambda j, q: q * j, lambda j, c: c * j),
    "j + q": (lambda j, q: j + q, lambda j, c: j + c),
    "q + j": (lambda j, q: q + j, lambda j, c: c + j),
    "j - q": (lambda j, q: j - q, lambda j, c: j - c),
    "q - j": (lambda j, q: q - j, lambda j, c: c - j),
    "-j": (lambda j, q: -j, lambda j, c: j * Jet.const(-1)),
}


@settings(max_examples=300, deadline=None)
@given(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT), _NUMBER)
def test_plain_numbers_act_as_constant_jets(components, q):
    """A plain number acts as its constant jet, at every sample.  The value
    component agrees bit for bit; a derivative component agrees as a float:
    the constant's zero derivatives may only have changed the sign of a
    zero there, or broadcast a float component to the batch."""
    j = Jet(components)
    for name, (fast, reference) in _NUMBER_OPS.items():
        got, want = fast(j, q), reference(j, Jet.const(q))
        for k in range(3):
            x, y = np.broadcast_arrays(got.c[k], want.c[k])
            if k == 0:
                assert _bits(x).tolist() == _bits(y).tolist(), name
            assert np.array_equal(x, y), (name, k)


class TestBatchedJets:
    def test_variable_at_an_array_of_points(self):
        j = Jet.variable(1.0).pow(2)
        batch = Jet.variable(np.array([1.0, 3.0])).pow(2)
        assert list(batch.c[0]) == [1.0, 9.0] and list(batch.c[1]) == [2.0, 6.0]
        assert j.c == (1.0, 2.0, 2.0)

    def test_is_zero_means_every_sample(self):
        assert not Jet((np.array([0.0, 1e-300]), 0.0, 0.0)).is_zero()
        assert Jet((np.zeros(3), 0.0, np.zeros(3))).is_zero()
        assert not Jet((np.zeros(2), np.array([0.0, np.nan]), 0.0)).is_zero()
        assert Jet((np.array([-0.0, 0.0]), -0.0, np.array([0.0, -0.0]))).is_zero()

    def test_guards_fail_when_any_sample_fails(self):
        with pytest.raises(DomainError, match="base -1.0$"):
            Jet.variable(np.array([4.0, -1.0, -2.0])).sqrt()
        with pytest.raises(DomainError, match="log of non-positive value 0.0"):
            Jet.variable(np.array([1.0, 0.0])).log()
        with pytest.raises(DomainError, match="division by a jet with zero value"):
            1 / Jet.variable(np.array([1.0, 0.0]))
        nan = Jet.variable(np.array([1.0, np.nan]))
        with pytest.raises(DomainError, match="^division by a jet with value nan$"):
            1 / nan
        with pytest.raises(DomainError, match="^fractional power 1/2 of base nan$"):
            nan.sqrt()
        with pytest.raises(DomainError, match="^log of value nan$"):
            nan.log()

    def test_guards_name_the_first_entry_of_a_stack_in_row_major_order(self):
        with pytest.raises(DomainError, match="base -2.0$"):
            Jet((np.array([[1.0, -2.0], [-3.0, 4.0]]), 1.0, 0.0)).sqrt()

    def test_take_selects_samples(self):
        j = Jet.variable([1.0, 2.0, 3.0]).take(np.array([True, False, True]))
        assert list(j.c[0]) == [1.0, 3.0] and j.c[1:] == (1.0, 0.0)


def list_each(fn, x, *args):
    """The per-element form ``_each`` replaced: a list comprehension with a
    lambda frame per entry."""
    if not isinstance(x, np.ndarray):
        return (lambda v: fn(v, *args))(x)
    return np.array([(lambda v: fn(v, *args))(v) for v in x.ravel().tolist()]).reshape(x.shape)


_EACH_CALLS = {"pow 2": (math.pow, 2), "pow 3": (math.pow, 3), "pow 0.6": (math.pow, 0.6),
               "pow -1.4": (math.pow, -1.4), "log": (math.log,), "exp": (math.exp,),
               "sinh": (math.sinh,), "cosh": (math.cosh,)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(4,), (3, 4)]),
       st.lists(st.floats(min_value=1e-300, max_value=700.0), min_size=12, max_size=12))
@example((3, 4), [5e-300, 1e-100, 0.5, 1.0, 2.0, 3.0, 7.5, 1e2, 1.5e2, 300.0, 699.0, 700.0])
def test_each_maps_like_the_list_comprehension(shape, values):
    """``_each(fn, x, *args)`` on (N,) and (rows, N) arrays and on a float
    equals the list comprehension bit for bit, or raises what it raises."""
    x = np.array(values[:math.prod(shape)]).reshape(shape)
    for name, (fn, *args) in _EACH_CALLS.items():
        for point in (x, values[0]):
            try:
                want = list_each(fn, point, *args)
            except OverflowError as exc:
                with pytest.raises(OverflowError, match=str(exc)):
                    _each(fn, point, *args)
                continue
            got = _each(fn, point, *args)
            assert np.shape(got) == np.shape(want), name
            assert (_bits(got) == _bits(want)).all(), name


def test_a_stacked_reciprocal_overflows_before_a_later_rows_zero_guard():
    """1e200 squared overflows in the second row, and the third row divides
    by zero: the rows before the first failing one are evaluated first, so
    the overflow is raised."""
    stack = Jet((np.array([[2.0, 3.0], [1e200, 1.0], [0.0, 1.0]]), 1.0, 0.0))
    with pytest.raises(OverflowError, match="^math range error$"):
        stack.reciprocal()
    with pytest.raises(DomainError, match="division by a jet with zero value"):
        stack.take(np.array([True, False, True])).reciprocal()


def test_jet_needs_three_components():
    with pytest.raises(ValueError, match="jet needs 3 components, got 2"):
        Jet((1.0, 0.0))


# the floats a product with +-1 could disturb: signed zeros, infinities,
# subnormals and NaNs of either sign
_EDGE_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                         2.2e-308, math.nan, -math.nan]), st.floats())
_UNITS = (1, -1, 1.0, -1.0, Fraction(1), Fraction(-1))


@st.composite
def edge_jets(draw):
    """A jet whose components are floats, (N,) arrays or (rows, N) arrays."""
    shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    size = math.prod(shape)

    def component():
        values = draw(st.lists(_EDGE_FLOAT, min_size=size, max_size=size))
        return np.array(values).reshape(shape) if shape else values[0]

    return Jet(tuple(component() for _ in range(3)))


def assert_same_floats(got, want):
    """Equal bit for bit, except that a NaN only has to stay a NaN: a
    product keeps a NaN's sign and a negation flips it."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (_bits(got)[~nan] == _bits(want)[~nan]).all()


@settings(max_examples=200, deadline=None)
@given(edge_jets())
@example(Jet((np.array([0.0, -0.0, math.inf]), np.array([-math.inf, 5e-324, -5e-324]),
              np.array([math.nan, -math.nan, 2.2e-308]))))
def test_units_scale_jets_exactly(j):
    """A jet times +1 or -1, as an int, a float or a Fraction, on either
    side, is the jet or its negation; and a form in rows times 1 keeps its
    rows."""
    for q in _UNITS:
        want = j if q > 0 else -j
        for got in (j * q, q * j):
            for x, y in zip(got.c, want.c):
                assert_same_floats(x, y)
    if np.ndim(j.value) == 2:
        form = JetForm(4, 2, ((1, 2), (3, 4)), np.array(j.c))
        for got in (form * 1, 1 * form):
            assert got.keys == form.keys
            assert_same_floats(got.c, form.c)
