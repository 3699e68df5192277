"""Pure-Python and compiled kernels must be observationally identical."""
import random

import pytest

from cyclosum import _kernel
from cyclosum.cyclotomic import _reduction_rows
from cyclosum.arith import euler_phi

pytestmark = pytest.mark.skipif(
    "compiled" not in _kernel.available_backends(),
    reason="compiled kernel not built",
)


# looked up inside fixtures, not at import: get_backend("compiled") raises
# when the kernel is not built, before the skip marker above can apply
@pytest.fixture(scope="module")
def pure():
    return _kernel.get_backend("python")


@pytest.fixture(scope="module")
def fast():
    return _kernel.get_backend("compiled")


def rand_vec(rng, size, bound=10 ** 6):
    return [rng.randint(-bound, bound) for _ in range(size)]


def test_conv_parity(pure, fast):
    rng = random.Random(2024)
    for _ in range(50):
        a = rand_vec(rng, rng.randint(0, 8))
        b = rand_vec(rng, rng.randint(0, 8))
        assert pure.conv(a, b) == fast.conv(a, b)


def test_conv_bigint_parity(pure, fast):
    a = [10 ** 40, -(10 ** 35)]
    b = [3, 10 ** 50]
    assert pure.conv(a, b) == fast.conv(a, b)


def test_reduce_cyclo_parity(pure, fast):
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 8, 12, 15):
        d = euler_phi(n)
        rows = _reduction_rows(n)
        for _ in range(20):
            c = rand_vec(rng, rng.randint(1, 2 * d - 1))
            assert pure.reduce_cyclo(c, rows, d) == fast.reduce_cyclo(c, rows, d)


def test_lincomb_scale_parity(pure, fast):
    rng = random.Random(55)
    for _ in range(30):
        size = rng.randint(0, 10)
        a, b = rand_vec(rng, size), rand_vec(rng, size)
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        assert pure.vec_lincomb(a, b, x, y) == fast.vec_lincomb(a, b, x, y)
        assert pure.vec_scale(a, x) == fast.vec_scale(a, x)


def test_content_parity(pure, fast):
    cases = [
        ([6, -9, 12], 15),
        ([0, 0], 7),
        ([5], 1),
        ([], 4),
        ([10 ** 30, 10 ** 20], 10 ** 10),
    ]
    for nums, den in cases:
        assert pure.vec_content(nums, den) == fast.vec_content(nums, den)


def test_backend_swap_is_transparent():
    from cyclosum.appell import apostol_bernoulli

    baseline = apostol_bernoulli(6, 2)
    previous = _kernel.use_backend("python")
    try:
        assert _kernel.BACKEND == "python"
        # fresh arithmetic through the swapped kernel, bypassing caches
        from cyclosum.cyclotomic import zeta_pow

        z = zeta_pow(7, 3)
        assert z * z.inverse() == 1
        assert apostol_bernoulli(6, 2) == baseline
    finally:
        _kernel.use_backend(previous)
    assert _kernel.BACKEND == previous
