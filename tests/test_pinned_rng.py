import random

import pytest

from pinned_rng import PinnedRandom


def test_pins_come_first_then_the_rest_rng():
    rng = PinnedRandom(random.Random(4), randrange=[2], shuffle=[(3, 1, 2)], random=[0.5])
    ref = random.Random(4)
    x = [1, 2, 3]
    rng.shuffle(x)
    assert (rng.randrange(1, 3), x, rng.random()) == (2, [3, 1, 2], 0.5)
    rng.check_consumed()
    y, z = [1, 2, 3], [1, 2, 3]
    rng.shuffle(y)
    ref.shuffle(z)
    assert (rng.randrange(9), y, rng.choice("abc")) == (ref.randrange(9), z, ref.choice("abc"))


def test_bad_pins_and_unpinned_draws_fail():
    with pytest.raises(AssertionError, match="outside randrange"):
        PinnedRandom(randrange=[3]).randrange(1, 3)
    with pytest.raises(AssertionError, match="not a permutation"):
        PinnedRandom(shuffle=[(1, 1)]).shuffle([1, 2])
    with pytest.raises(AssertionError, match="outside"):
        PinnedRandom(random=[1.0]).random()
    left = PinnedRandom(randrange=[1, 2])
    left.randrange(1, 3)
    with pytest.raises(AssertionError, match="never drawn"):
        left.check_consumed()
    empty = PinnedRandom(shuffle=[(1, 2)])
    with pytest.raises(AssertionError, match="unpinned"):
        empty.randrange(5)
    empty.shuffle([2, 1])
    with pytest.raises(AssertionError, match="unpinned"):
        empty.shuffle([1, 2])
    with pytest.raises(AssertionError, match="unpinned"):
        empty.choice([1, 2])
