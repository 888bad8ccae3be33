from fractions import Fraction

import pytest

from qcforge.algebra import (FrameAlgebra, catalog, format_algebra, jacobi_check,
                             parse_algebra)
from qcforge.forms import KForm
from qcforge.scalars import InputError
from test_sparse_oracle import dense


def test_parse_l1_spot_values():
    spec = catalog("l1")
    alg = spec.algebra
    assert alg.diff[4].coeff(6, 7) == Fraction(-1, 2)
    de2 = alg.diff[1].terms
    assert de2[(3, 4)] == -2
    assert de2[(3, 7)] == Fraction(-1, 2)
    assert de2[(4, 6)] == Fraction(1, 2)


def test_parse_l2_spot_values():
    alg = catalog("l2").algebra
    assert alg.diff[1].terms == {(1, 2): Fraction(-1), (3, 4): Fraction(1)}


def test_abelian_dim4():
    src = "algebra ab dim 4\n" + "\n".join(f"d e{a} = 0" for a in range(1, 5))
    alg, spec = parse_algebra(src)
    assert spec is None
    assert all(f.is_zero() for f in alg.diff)
    assert jacobi_check(alg).ok


def test_heisenberg_family_differentials():
    spec = catalog("heis(2)")
    alg = spec.algebra
    want = 2 * (KForm.basis(11, 1, 2) + KForm.basis(11, 3, 4)
                + KForm.basis(11, 5, 6) + KForm.basis(11, 7, 8))
    assert alg.diff[8] == want
    # two-step nilpotency: every horizontal coframe element is closed
    for a in range(1, 9):
        assert alg.mc_differential(KForm.basis(11, a)).is_zero()


def test_l0_parameter_substitution():
    for c in (Fraction(1), Fraction(-2, 3), Fraction(5, 4)):
        spec = catalog(f"l0({c})")
        alg = spec.algebra
        assert alg.diff[1].terms == {(3, 4): -c}
        assert alg.diff[2].terms == {(2, 4): c}
        assert alg.diff[4].terms[(4, 6)] == c
        assert jacobi_check(alg).ok


def test_mc_differential_is_antiderivation():
    alg = catalog("l1").algebra
    a = KForm.basis(7, 5)
    b = KForm.basis(7, 6)
    lhs = alg.mc_differential(a.wedge(b))
    rhs = alg.mc_differential(a).wedge(b) - a.wedge(alg.mc_differential(b))
    assert lhs == rhs


def test_jacobi_violation_detected():
    # d e1 = e2^e3 with d e2 = e1^e2 fails: d(d e1) = e1^e2^e3
    src = "algebra bad dim 3\nd e1 = e2^e3\nd e2 = e1^e2\nd e3 = 0\n"
    alg, _ = parse_algebra(src)
    rep = jacobi_check(alg)
    assert not rep.ok
    assert (1, (1, 2, 3), Fraction(1)) in rep.violations


def test_jacobi_passes_on_catalog():
    for name in ("heis(1)", "heis(2)", "l0(1)", "l1", "l2", "l3"):
        assert jacobi_check(catalog(name).algebra).ok


def test_roundtrip_through_format():
    for name in ("heis(1)", "l0(1)", "l1", "l2", "l3"):
        spec = catalog(name)
        text = format_algebra(spec.algebra, spec)
        alg2, spec2 = parse_algebra(text)
        assert format_algebra(alg2, spec2) == text
        assert all(alg2.diff[a] == spec.algebra.diff[a] for a in range(7))


def test_complex_structures_quaternionic():
    for name in ("heis(1)", "heis(2)", "l1", "l2", "l3", "l0(1)"):
        spec = catalog(name)
        spec.validate()
        k = len(spec.horizontal)
        i1, i2, i3 = (dense(spec.complex_structure(s), k) for s in (1, 2, 3))

        def mul(a, b):
            return [[sum(a[r][m] * b[m][c] for m in range(k)) for c in range(k)]
                    for r in range(k)]

        minus_id = [[-Fraction(r == c) for c in range(k)] for r in range(k)]
        assert mul(i1, i1) == minus_id
        assert mul(i1, i2) == i3
        assert mul(i2, i3) == i1
        assert mul(i3, i1) == i2


def test_parser_errors():
    with pytest.raises(InputError) as err:
        parse_algebra("algebra x dim 3\nd e1 = e2 & e3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(InputError, match="line 3: d e1 defined twice"):
        parse_algebra("algebra x dim 3\nd e1 = 0\nd e1 = 0\n")
    with pytest.raises(InputError,
                       match="line 2: d e7: index out of range for dim 3"):
        parse_algebra("algebra x dim 3\nd e7 = 0\n")
    with pytest.raises(InputError):
        parse_algebra("not a header\n")
    with pytest.raises(InputError, match="unknown catalog name 'l9'"):
        catalog("l9")
    with pytest.raises(InputError, match="l1 takes no parameter"):
        catalog("l1(3)")


def test_bracket_convention():
    # <e^c, [e_a, e_b]> = -(d e^c)(e_a, e_b): the Heisenberg brackets point
    # along the vertical directions with coefficient -2 per fundamental pair
    alg = catalog("heis(1)").algebra
    assert alg.bracket_coeff(5, 1, 2) == -2
    assert alg.bracket_coeff(5, 2, 1) == 2
    assert alg.bracket_coeff(6, 1, 3) == -2
    assert alg.bracket_coeff(7, 1, 4) == -2
    assert alg.bracket_coeff(5, 1, 3) == 0


def test_frame_algebra_misuse_refused():
    with pytest.raises(ValueError, match="expected 3 differentials, got 2"):
        FrameAlgebra("short", 3, [KForm(3, 2)] * 2)
    with pytest.raises(ValueError, match="d e2 must be a 2-form over the 3-dim coframe"):
        FrameAlgebra("wrong", 3, [KForm(3, 2), KForm(4, 2), KForm(3, 2)])
