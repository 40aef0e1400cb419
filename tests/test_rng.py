"""Deterministic RNG unit tests."""

from repro.simkernel.rng import DeterministicRng


def test_same_seed_same_sequence():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_fork_is_deterministic():
    a = DeterministicRng(42).fork("scheduler")
    b = DeterministicRng(42).fork("scheduler")
    assert a.random() == b.random()


def test_forks_are_independent_streams():
    root = DeterministicRng(42)
    a = root.fork("a")
    b = root.fork("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_fork_does_not_perturb_parent():
    one = DeterministicRng(42)
    two = DeterministicRng(42)
    one.fork("x")  # derivation must not consume parent state
    assert one.random() == two.random()


def test_fork_path_recorded():
    assert DeterministicRng(1).fork("a").fork("b").path == "root/a/b"


def test_uniform_range():
    rng = DeterministicRng(7)
    for _ in range(100):
        value = rng.uniform(2.0, 5.0)
        assert 2.0 <= value < 5.0


def test_randint_inclusive_bounds():
    rng = DeterministicRng(7)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_chance_extremes():
    rng = DeterministicRng(7)
    assert rng.chance(0.0) is False
    assert rng.chance(1.0) is True
    assert rng.chance(-0.5) is False
    assert rng.chance(1.5) is True


def test_chance_probability_roughly_respected():
    rng = DeterministicRng(7)
    hits = sum(1 for _ in range(10_000) if rng.chance(0.25))
    assert 2200 <= hits <= 2800


def test_binomial_edge_cases():
    rng = DeterministicRng(7)
    assert rng.binomial(0, 0.5) == 0
    assert rng.binomial(10, 0.0) == 0
    assert rng.binomial(10, 1.0) == 10


def test_binomial_small_n_within_bounds():
    rng = DeterministicRng(7)
    for _ in range(100):
        value = rng.binomial(20, 0.3)
        assert 0 <= value <= 20


def test_binomial_large_n_approximation_reasonable():
    rng = DeterministicRng(7)
    samples = [rng.binomial(100_000, 0.1) for _ in range(50)]
    mean = sum(samples) / len(samples)
    assert 9_500 <= mean <= 10_500
    assert all(0 <= s <= 100_000 for s in samples)


def test_exponential_mean():
    rng = DeterministicRng(7)
    samples = [rng.exponential(10.0) for _ in range(5000)]
    mean = sum(samples) / len(samples)
    assert 9.0 <= mean <= 11.0


def test_choice_and_shuffle():
    rng = DeterministicRng(7)
    items = [1, 2, 3, 4, 5]
    assert rng.choice(items) in items
