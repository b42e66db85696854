import time

import pytest

from posheaf.errors import InputError, SizeCapExceeded
from posheaf.field import MODULUS_BOUND, NotPrimeError, PrimeField, _is_prime


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if _is_prime(n) != _trial_division(n)] == []


def test_mersenne_61_accepted_fast():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("n", [
    561,  # Carmichael number
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
])
def test_pseudoprimes_refused(n):
    with pytest.raises(NotPrimeError):
        PrimeField(n)
    # a non-prime modulus is bad input, and stays a ValueError
    with pytest.raises(InputError, match=f"modulus {n} is not prime"):
        PrimeField(n)
    with pytest.raises(ValueError):
        PrimeField(n)


def test_prime_near_the_bound_accepted():
    assert PrimeField(10**24 + 7).inv(2) * 2 % (10**24 + 7) == 1


def test_modulus_at_the_bound_is_a_size_cap():
    with pytest.raises(SizeCapExceeded):
        PrimeField(MODULUS_BOUND)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError, match="^0 is not invertible$"):
        PrimeField(5).inv(10)
