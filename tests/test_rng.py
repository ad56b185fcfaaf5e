"""The pure-Python generator and the regression metrics against NumPy.

Scene synthesis must stay byte-identical to the NumPy-backed code it
replaced, so every draw is compared for exact equality. The regression
metrics sum with `math.fsum`, so they match NumPy's formulas to 1e-12 and,
rounded as reports round them, exactly. Skipped when NumPy is not installed.
"""

import math
import random

import pytest

np = pytest.importorskip("numpy")

from aerial3d._rng import Generator  # noqa: E402
from aerial3d.evaluation import EvalReport, eval_regression  # noqa: E402
from aerial3d.synth import COLORS  # noqa: E402

SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 3]


def test_uniform_matches():
    for seed in SEEDS:
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for low, high in [(0.0, 1.0), (-math.pi / 2, math.pi / 2), (120.0, 880.0), (50, 80)]:
            for _ in range(5):
                assert ours.uniform(low, high) == ref.uniform(low, high)


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 16, 31, 32])
def test_bounded_integers_match_on_both_sides_of_a_power_of_two(bits):
    for n in (2**bits - 1, 2**bits, 2**bits + 1):
        if not 1 <= n <= 2**32:
            continue
        for seed in range(25):
            ours, ref = Generator(seed), np.random.default_rng(seed)
            # An odd count leaves a spare 32-bit half in the buffer for the
            # uniform draw that follows, which must skip it.
            assert ours.choice(n, size=7) == ref.choice(n, size=7).tolist()
            assert ours.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
            assert ours.choice(n, size=2) == ref.choice(n, size=2).tolist()


def test_choice_without_replacement_matches():
    for seed in range(60):
        for n in (1, 2, 7, 8, 31, 33, 100):
            for size in sorted({0, 1, n // 3, n - 1, n}):
                ours, ref = Generator(seed), np.random.default_rng(seed)
                got = ours.choice(n, size=size, replace=False)
                assert got == ref.choice(n, size=size, replace=False).tolist()
                assert sorted(got) == sorted(set(got))
                assert ours.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)


def test_choice_without_replacement_matches_the_tail_shuffle():
    # Above 10,000 items and past n/50 draws NumPy shuffles instead of Floyd.
    for seed in range(3):
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for size in (100, 201, 500):
            got = ours.choice(10_050, size=size, replace=False)
            assert got == ref.choice(10_050, size=size, replace=False).tolist()


def test_choice_with_replacement_matches():
    for seed in range(60):
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for n in (1, 5, 31, 32, 1000):
            assert ours.choice(n, size=40, replace=True) == ref.choice(n, size=40).tolist()


def test_choice_of_a_sequence_matches():
    for seed in range(100):
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for _ in range(10):
            assert ours.choice(COLORS) == str(ref.choice(COLORS))


def _scene_draws(gen, seed, rows=31):
    """generate_scene's draw sequence, with a seeded count of rejections."""
    n_vehicles = 6 + seed % 40  # past the table size, draws use replacement
    log = [gen.uniform(0.5, math.pi / 2), gen.uniform(50.0, 80.0)]
    log += [int(i) for i in gen.choice(rows, size=n_vehicles, replace=n_vehicles > rows)]
    attempts = random.Random(seed)
    for _ in range(n_vehicles):
        for _ in range(attempts.randint(1, 6)):  # rejected candidates, then the accepted one
            log += [gen.uniform(120.0, 880.0), gen.uniform(120.0, 880.0),
                    gen.uniform(-math.pi / 2, math.pi / 2)]
        log.append(str(gen.choice(COLORS)))
    return log


def test_draws_interleaved_as_generate_scene_makes_them():
    for seed in range(40):
        ours = _scene_draws(Generator(seed), seed)
        assert ours == _scene_draws(np.random.default_rng(seed), seed)


def test_invalid_arguments_raise_like_numpy():
    for call in (
        lambda gen: gen.uniform(50.0, math.inf),
        lambda gen: gen.uniform(math.inf, math.inf),
        lambda gen: gen.choice(0, size=3),
        lambda gen: gen.choice((), size=None),
    ):
        with pytest.raises(Exception) as ours:
            call(Generator(0))
        with pytest.raises(Exception) as ref:
            call(np.random.default_rng(0))
        assert ours.type is ref.type
    with pytest.raises(ValueError):
        Generator(-1)


def _numpy_regression(preds, gts):
    """The NumPy expressions the report metrics were computed with."""
    p, g = np.asarray(preds, dtype=float), np.asarray(gts, dtype=float)
    residuals = p - g
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    return (
        float(np.mean(np.abs(residuals))),
        float(math.sqrt(np.mean(residuals**2))),
        1.0 - float(np.sum(residuals**2)) / ss_tot,
        float(np.mean([abs(a - b) <= 0.05 * abs(b) for a, b in zip(p, g)])),
    )


@pytest.mark.parametrize("n", [2, 7, 9, 20, 130, 1000])
def test_eval_regression_matches_the_numpy_formulas(n):
    draws = random.Random(1000 + n)
    gts = [draws.uniform(1.0, 80.0) for _ in range(n)]
    preds = [g * (1.0 + draws.gauss(0.0, 0.04)) for g in gts]
    ours, ref = eval_regression(preds, gts), _numpy_regression(preds, gts)
    assert tuple(ours) == pytest.approx(ref, rel=1e-12, abs=0)

    def reported(mae, rmse, r_squared, acc_5pct):
        return EvalReport("sqa", n, 0, mae=mae, rmse=rmse, r_squared=r_squared,
                          acc_5pct=acc_5pct).to_dict()

    assert reported(*ours) == reported(*ref)
