import numpy as np
import pytest

from nrpa import rng as rng_module
from nrpa.rng import SplitMix64

# first outputs of the reference splitmix64 stream seeded with 0
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_matches_reference_stream():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_FIRST3


def test_seed_determinism():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_vectorized_uniform_equals_scalar_stream():
    a = SplitMix64(99)
    b = SplitMix64(99)
    scalars = np.array([a.next_float() for _ in range(50)])
    vec = b.uniform(0.0, 1.0, (50,))
    assert np.array_equal(scalars, vec)
    assert a.state == b.state


@pytest.mark.parametrize("n", [1, 6, 7, 8, 15, 21])
def test_blocked_uniform_equals_scalar_stream(monkeypatch, n):
    """Blocks of 7 words: one short block, exactly one, and across boundaries."""
    monkeypatch.setattr(rng_module, "_UNIFORM_BLOCK", 7)
    a = SplitMix64(2024)
    b = SplitMix64(2024)
    scalars = np.array([-1.0 + 3.0 * a.next_float() for _ in range(n)])
    assert np.array_equal(b.uniform(-1.0, 2.0, (n,)), scalars)
    assert a.state == b.state


def test_uniform_range_and_shape():
    arr = SplitMix64(5).uniform(-2.0, 3.0, (7, 11))
    assert arr.shape == (7, 11)
    assert arr.min() >= -2.0 and arr.max() < 3.0


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(100))
    a, b = list(items), list(items)
    SplitMix64(77).shuffle(a)
    SplitMix64(77).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_derive_gives_independent_stream():
    base = SplitMix64(11)
    child = base.derive(0)
    assert child.next_u64() != SplitMix64(11).next_u64()


def scalar_shuffle(rng: SplitMix64, items: list) -> None:
    """Reference Fisher-Yates: back to front, one next_below per position."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, rng_module._UNIFORM_BLOCK - 1,
                               rng_module._UNIFORM_BLOCK + 1,
                               3 * rng_module._UNIFORM_BLOCK + 5])
def test_blocked_shuffle_equals_scalar_loop(n, seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    want, got = list(range(n)), list(range(n))
    scalar_shuffle(a, want)
    b.shuffle(got)
    assert got == want
    assert b.state == a.state
    assert b.derive(3).next_u64() == a.derive(3).next_u64()


@pytest.mark.parametrize("n", [0, 1, rng_module._UNIFORM_BLOCK - 1, rng_module._UNIFORM_BLOCK,
                               rng_module._UNIFORM_BLOCK + 1,
                               3 * rng_module._UNIFORM_BLOCK + 5])
def test_uniform_into_out_equals_uniform_and_scalar_stream(n):
    a, b, c = SplitMix64(31), SplitMix64(31), SplitMix64(31)
    scalars = np.array([-0.5 + 1.25 * a.next_float() for _ in range(n)])
    fresh = b.uniform(-0.5, 0.75, (n,))
    out = np.full(n, np.nan)
    assert c.uniform(-0.5, 0.75, (n,), out=out) is out
    assert np.array_equal(fresh, scalars) and np.array_equal(out, scalars)
    assert a.state == b.state == c.state


@pytest.mark.parametrize("shape, words", [(0, 0), ((0,), 0), ((3, 0), 0), ((), 1), (5, 5)])
def test_uniform_draws_one_word_per_element_of_the_shape(shape, words):
    a, b = SplitMix64(8), SplitMix64(8)
    want = [a.next_float() for _ in range(words)]
    got = b.uniform(0.0, 1.0, shape)
    assert got.shape == np.empty(shape).shape
    assert got.ravel().tolist() == want
    assert b.state == a.state


def test_uniform_into_a_view_leaves_its_neighbours_alone():
    n = rng_module._UNIFORM_BLOCK + 3
    buf = np.full(n + 20, -7.0)
    SplitMix64(4).uniform(1.0, 2.0, (n,), out=buf[10:10 + n])
    assert np.array_equal(buf[10:10 + n], SplitMix64(4).uniform(1.0, 2.0, (n,)))
    assert (buf[:10] == -7.0).all() and (buf[10 + n:] == -7.0).all()
    grid = np.full(40, -7.0)
    SplitMix64(4).uniform(1.0, 2.0, (3, 4), out=grid[5:17].reshape(3, 4))
    assert np.array_equal(grid[5:17], SplitMix64(4).uniform(1.0, 2.0, 12))
    assert (grid[:5] == -7.0).all() and (grid[17:] == -7.0).all()


def _read_only(shape):
    arr = np.zeros(shape)
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("out", [
    np.zeros((3, 4), dtype=np.float32),
    np.zeros((4, 3)),
    np.zeros(12),
    np.zeros((3, 8))[:, ::2],
    np.zeros((3, 4), order="F"),
    _read_only((3, 4)),
    [[0.0] * 4] * 3,
], ids=["float32", "transposed-shape", "flat", "strided", "fortran", "read-only", "list"])
def test_uniform_rejects_a_bad_out_before_drawing(out):
    rng = SplitMix64(6)
    with pytest.raises(ValueError):
        rng.uniform(0.0, 1.0, (3, 4), out=out)
    assert rng.state == SplitMix64(6).state
