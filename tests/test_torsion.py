import pytest

from tatestar.errors import AmbientMismatchError
from tatestar.torsion import (
    TorsionPoint,
    all_points,
    basis,
    clock_shift_phases,
    epsilon_exponent,
    generates,
    index_shear,
    index_shift,
    point_tables,
    validate_odd_prime,
    weil_exponent,
)


def test_validate_odd_prime_accepts_supported_range():
    for p in (3, 5, 7, 11, 13):
        assert validate_odd_prime(p) == p


def test_validate_odd_prime_rejects_bad_input():
    for bad in (1, 2, 4, 9, 15, -3):
        with pytest.raises(ValueError):
            validate_odd_prime(bad)
    with pytest.raises(ValueError, match="exceeds the guard bound 13"):
        validate_odd_prime(17)


def test_point_coordinates_reduce_mod_p():
    pt = TorsionPoint(5, 7, -1)
    assert (pt.a, pt.b) == (2, 4)
    assert str(pt) == "2,4"


def test_point_group_operations():
    p = 7
    s = TorsionPoint(p, 2, 3)
    t = TorsionPoint(p, 6, 5)
    assert s + t == TorsionPoint(p, 1, 1)
    assert s - t == TorsionPoint(p, 3, 5)
    assert -s == TorsionPoint(p, 5, 4)
    assert 3 * s == TorsionPoint(p, 6, 2)
    assert s * 7 == TorsionPoint.zero(p)
    assert (s + (-s)).is_zero


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_point_tables_agree_with_point_arithmetic(p):
    tables = point_tables(p)
    points = [TorsionPoint(p, a, b) for a in range(p) for b in range(p)]
    assert list(all_points(p)) == points
    assert list(tables.points) == points
    assert [point.index for point in points] == list(range(p * p))
    n = p * p
    assert len(tables.sums) == len(tables.eps) == n * n
    for i, s in enumerate(points):
        for j, t in enumerate(points):
            assert points[tables.sums[i * n + j]] == s + t
            assert tables.eps[i * n + j] == epsilon_exponent(s, t)
    assert point_tables(p) is tables


def test_mixed_primes_raise():
    with pytest.raises(AmbientMismatchError):
        TorsionPoint(3, 1, 0) + TorsionPoint(5, 1, 0)
    with pytest.raises(AmbientMismatchError):
        weil_exponent(TorsionPoint(3, 1, 0), TorsionPoint(5, 0, 1))


def test_weil_orientation_convention():
    # e(Q, P) = zeta is the fixed convention
    P, Q = basis(3)
    assert weil_exponent(Q, P) == 1
    assert weil_exponent(P, Q) == 2


def test_weil_example_p5():
    assert weil_exponent(TorsionPoint(5, 1, 2), TorsionPoint(5, 3, 4)) == 2


def test_weil_is_bilinear_and_alternating():
    p = 3
    for s in all_points(p):
        assert weil_exponent(s, s) == 0
        for t in all_points(p):
            assert (weil_exponent(s, t) + weil_exponent(t, s)) % p == 0
            for u in all_points(p):
                left = weil_exponent(s + u, t)
                right = (weil_exponent(s, t) + weil_exponent(u, t)) % p
                assert left == right


def test_weil_nondegenerate():
    for p in (3, 5):
        for s in [point for point in all_points(p) if not point.is_zero]:
            assert any(weil_exponent(s, t) != 0 for t in all_points(p))


def test_epsilon_is_square_root_of_weil():
    for p in (3, 5, 7):
        P, Q = basis(p)
        for s in all_points(p):
            for t in all_points(p):
                assert (2 * epsilon_exponent(s, t)) % p == weil_exponent(s, t)
        assert epsilon_exponent(Q, P) == (p + 1) // 2


def test_epsilon_on_opposite_points_is_one():
    p = 5
    for s in all_points(p):
        assert epsilon_exponent(s, -s) == 0


def test_w_map_of_P_is_zeta_to_minus_b():
    p = 3
    P, _ = basis(p)
    # the character w_P: T -> e(P, T)
    for t in all_points(p):
        assert weil_exponent(P, t) == -t.b % p


def test_index_shift_fixes_P_and_moves_Q():
    p = 5
    P, Q = basis(p)
    assert index_shift(P) == P
    assert index_shift(Q) == Q + P
    # the shift is symplectic: it preserves the pairing
    for s in all_points(p):
        for t in all_points(p):
            assert weil_exponent(index_shift(s), index_shift(t)) == weil_exponent(s, t)


def test_index_shear_fixes_Q_and_moves_P():
    p = 5
    P, Q = basis(p)
    assert index_shear(P) == P + Q
    assert index_shear(Q) == Q
    for s in all_points(p):
        for t in all_points(p):
            assert weil_exponent(index_shear(s), index_shear(t)) == weil_exponent(s, t)


def test_generates():
    p = 5
    P, Q = basis(p)
    assert generates(P, Q)
    assert generates(TorsionPoint(p, 1, 2), TorsionPoint(p, 3, 4))
    assert not generates(P, 2 * P)
    assert not generates(P, TorsionPoint.zero(p))



@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_clock_shift_matrices_multiply_with_the_eps_twist(p):
    # W(T) sends e_c to zeta^phases[T][c] e_(c + b_T), so W(S) W(T) sends e_c
    # to zeta^(phases[T][c] + phases[S][c + b_T]) e_(c + b_S + b_T); the law
    # W(S) W(T) = eps(S, T) W(S + T) is then an identity of exponents mod p
    phases = clock_shift_phases(p)
    points = list(all_points(p))
    for s in points:
        phase_s = phases[s.index]
        for t in points:
            phase_t, e = phases[t.index], epsilon_exponent(s, t)
            lhs = [(phase_t[c] + phase_s[(c + t.b) % p]) % p for c in range(p)]
            assert lhs == [(e + k) % p for k in phases[(s + t).index]], (s, t)
