"""Population-Based Training scheduler and toy trainable tests."""

import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chi2

from labelcal._util import derive_rng
from labelcal.core import LabelcalError, quantile
from labelcal.losses import confidence_penalty, focal_loss, ldam_loss, ldam_margins
from labelcal.metrics import UndefinedMetricError, balanced_accuracy, mean_roc_auc, roc_auc
from labelcal.pbt import (
    ELITE_FRACTION,
    EVAL_FRACTION,
    POSITIVE_RATE,
    STEPS_PER_EPOCH,
    LinearTrainable,
    PbtConfig,
    ToyDataSpec,
    make_toy_dataset,
    pbt_run,
    perturb,
    roulette_select,
    warmup_steps,
)


class QuadraticToy:
    """score = -(h - 3)^2 with h the only hyperparameter, no parameters."""

    def __init__(self):
        self.hyperparameters = {"h": 1.0}
        self.bounds = {"h": (1e-6, 100.0)}
        self.copied_in_at = []  # generations when selection overwrote us

    def init(self, seed):
        self.hyperparameters = {"h": float(derive_rng(seed).uniform(0.1, 10.0))}

    def train_one_epoch(self):
        pass

    def evaluate(self):
        return -((self.hyperparameters["h"] - 3.0) ** 2)

    def copy_from(self, other):
        self.hyperparameters = dict(other.hyperparameters)


class TestWarmupSteps:
    @pytest.mark.parametrize("beta2,steps", [(0.999, 2000), (0.99, 200), (0.9, 20)])
    def test_reference_values(self, beta2, steps):
        assert warmup_steps(beta2) == steps

    def test_rounds_up(self):
        assert warmup_steps(0.3) == math.ceil(2.0 / 0.7)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(LabelcalError):
            warmup_steps(bad)


class TestRouletteSelect:
    def test_single_member(self):
        rng = np.random.default_rng(0)
        assert all(roulette_select(np.array([0.7]), rng) == 0 for _ in range(10))

    def test_dominant_score_wins_almost_always(self):
        rng = np.random.default_rng(1)
        draws = [roulette_select(np.array([1.0, 0.0]), rng) for _ in range(10_000)]
        assert draws.count(0) >= 9_900

    def test_equal_scores_are_uniform(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(5)
        for _ in range(10_000):
            counts[roulette_select(np.zeros(5), rng)] += 1
        stat = ((counts - 2000.0) ** 2 / 2000.0).sum()
        assert stat < chi2.ppf(0.999, df=4)

    def test_non_finite_rejected(self):
        with pytest.raises(LabelcalError):
            roulette_select(np.array([1.0, np.nan]), np.random.default_rng(0))


class TestPerturb:
    def test_result_within_multiplicative_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            out = perturb({"x": 1.0}, rng)["x"]
            assert 0.8 <= out <= 1.2

    def test_zero_is_a_fixed_point(self):
        rng = np.random.default_rng(4)
        assert perturb({"x": 0.0}, rng)["x"] == 0.0

    def test_mean_multiplier_is_one(self):
        rng = np.random.default_rng(5)
        values = [perturb({"x": 1.0}, rng)["x"] for _ in range(10_000)]
        assert abs(np.mean(values) - 1.0) < 0.01

    def test_bounds_clip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            out = perturb({"x": 1.0}, rng, bounds={"x": (0.95, 1.05)})["x"]
            assert 0.95 <= out <= 1.05


class TestPbtRun:
    def test_population_of_one_never_selects(self):
        instances = []

        def factory():
            t = QuadraticToy()
            instances.append(t)
            return t

        config = PbtConfig(population_size=1, min_generations=4, seed=0, mode="fixed")
        result = pbt_run(factory, config)
        assert len(instances) == 1  # no snapshots were ever needed
        assert result.generations == 4

    def test_constant_score_stops_at_min_plus_patience(self):
        config = PbtConfig(
            population_size=3, min_generations=5, patience=3, seed=1, mode="patience"
        )
        result = pbt_run(QuadraticToy, config)
        assert result.generations == 5 + 3

    def test_fixed_mode_runs_exact_count(self):
        config = PbtConfig(population_size=3, min_generations=6, seed=2, mode="fixed")
        assert pbt_run(QuadraticToy, config).generations == 6

    def test_one_generation_and_patience_of_one_are_honoured(self):
        fixed = PbtConfig(population_size=3, min_generations=1, seed=2, mode="fixed")
        assert pbt_run(QuadraticToy, fixed).generations == 1
        # one member is never perturbed, so its score never improves after the first
        patient = PbtConfig(population_size=1, min_generations=1, patience=1, seed=1)
        assert pbt_run(QuadraticToy, patient).generations == 1 + 1

    @pytest.mark.parametrize("field", ["population_size", "min_generations", "patience"])
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("mode", ["fixed", "patience"])
    def test_counts_below_one_are_rejected(self, field, value, mode):
        with pytest.raises(LabelcalError, match=f"^{field} must be >= 1, got {value}$"):
            PbtConfig(mode=mode, **{field: value})

    def test_deterministic_history(self):
        config = PbtConfig(population_size=6, min_generations=5, seed=7, mode="fixed")
        a = pbt_run(QuadraticToy, config)
        b = pbt_run(QuadraticToy, config)
        assert a.history == b.history
        assert a.best_hyperparameters == b.best_hyperparameters

    def test_elite_members_untouched_by_selection(self):
        instances, overwrites = [], []

        class Logged(QuadraticToy):
            def copy_from(self, other):
                overwrites.append(self)
                super().copy_from(other)

        def factory():
            t = Logged()
            instances.append(t)
            return t

        config = PbtConfig(
            population_size=20, min_generations=6, seed=3, mode="fixed",
        )
        result = pbt_run(factory, config)
        members = instances[: config.population_size]
        member_id = {id(t): i for i, t in enumerate(members)}
        # selection runs after every generation but the last and overwrites
        # exactly the non-elite members, in population order
        events = [member_id[id(t)] for t in overwrites if id(t) in member_id]
        n_elite = math.ceil(ELITE_FRACTION * config.population_size)
        assert n_elite == 2
        per_generation = config.population_size - n_elite
        assert len(events) == (result.generations - 1) * per_generation
        for g, record in enumerate(result.history[:-1]):
            chunk = set(events[g * per_generation : (g + 1) * per_generation])
            assert chunk == set(range(20)) - set(record["elite"])
        # and their hyperparameters are bitwise identical at the next evaluation
        for g, record in enumerate(result.history[:-1]):
            following = result.history[g + 1]
            for mid in record["elite"]:
                assert record["hyperparameters"][mid] == following["hyperparameters"][mid]

    def test_best_so_far_never_decreases(self):
        config = PbtConfig(population_size=8, min_generations=12, seed=4, mode="fixed")
        result = pbt_run(QuadraticToy, config)
        best = -math.inf
        for record in result.history:
            best = max(best, max(record["scores"]))
        assert result.best_score == best

    def test_hyperparameters_respect_bounds(self):
        config = PbtConfig(population_size=8, min_generations=15, seed=5, mode="fixed")
        result = pbt_run(QuadraticToy, config)
        for record in result.history:
            for hypers in record["hyperparameters"]:
                assert 1e-6 <= hypers["h"] <= 100.0

    def test_pbt_beats_random_search_on_quadratic(self):
        population, generations = 12, 15
        pbt_bests, random_bests = [], []
        for seed in range(20):
            config = PbtConfig(
                population_size=population, min_generations=generations,
                seed=seed, mode="fixed",
            )
            pbt_bests.append(pbt_run(QuadraticToy, config).best_score)
            rng = derive_rng(seed, 999)
            draws = rng.uniform(0.1, 10.0, size=population * generations)
            random_bests.append(float(-((draws - 3.0) ** 2).min()))
        assert np.mean(pbt_bests) > np.mean(random_bests)

    def test_final_best_at_least_initial_best(self):
        config = PbtConfig(population_size=10, min_generations=8, seed=6, mode="fixed")
        result = pbt_run(QuadraticToy, config)
        assert result.best_score >= max(result.history[0]["scores"])


class TestBatchedMulticlassLoss:
    def test_matches_per_item_losses(self):
        rng = np.random.default_rng(71)
        k, n = 4, 12
        logits = rng.normal(size=(n, k))
        classes = rng.integers(0, k, size=n)
        margins = ldam_margins(np.array([40, 10, 5, 2]), max_margin=0.5)
        beta = 0.3
        ldam = ldam_loss(logits, classes, margins)
        pen = confidence_penalty(logits, beta)
        per_row = [
            (ldam_loss(logits[i], int(classes[i]), margins),
             confidence_penalty(logits[i], beta))
            for i in range(n)
        ]
        np.testing.assert_allclose(ldam.value, sum(l.value for l, _ in per_row), rtol=1e-12)
        np.testing.assert_allclose(pen.value, sum(p.value for _, p in per_row), rtol=1e-12)
        for i, (row_ldam, row_pen) in enumerate(per_row):
            # one row of a batch is computed as the row alone: the same bits
            assert ldam.gradient[i].tobytes() == row_ldam.gradient.tobytes()
            assert pen.gradient[i].tobytes() == row_pen.gradient.tobytes()


class TestToyTrainable:
    def test_separable_multilabel_data_reaches_high_auc(self):
        spec = ToyDataSpec(
            n_items=400, n_labels=4, n_features=8, mode="multilabel",
            noise=0.0, seed=0,
        )
        t = LinearTrainable(spec)
        t.init(seed=0)
        t.hyperparameters = {"learning_rate": 0.5, "gamma": 2.0}
        for _ in range(80):
            t.train_one_epoch()
        assert t.evaluate() >= 0.99

    def test_multiclass_mode_learns(self):
        spec = ToyDataSpec(
            n_items=400, n_labels=3, n_features=6, mode="multiclass",
            noise=0.0, seed=1,
        )
        t = LinearTrainable(spec)
        t.init(seed=0)
        t.hyperparameters = {"learning_rate": 0.3, "max_margin": 0.5, "beta": 0.1}
        before = t.evaluate()
        for _ in range(60):
            t.train_one_epoch()
        after = t.evaluate()
        assert after > before
        assert after >= 0.9

    def test_searched_gamma_beats_gamma_zero_baseline(self):
        spec = ToyDataSpec(
            n_items=300, n_labels=3, n_features=6, mode="multilabel", noise=0.05, seed=2,
        )
        generations = 6
        searched, fixed = [], []
        for seed in range(10):
            config = PbtConfig(
                population_size=6, min_generations=generations, seed=seed, mode="fixed",
            )
            searched.append(pbt_run(lambda: LinearTrainable(spec), config).best_score)
            baseline = LinearTrainable(spec)
            baseline.init(seed=seed)
            baseline.hyperparameters = {"learning_rate": 0.1, "gamma": 0.0}
            for _ in range(generations):
                baseline.train_one_epoch()
            fixed.append(baseline.evaluate())
        assert np.mean(searched) > np.mean(fixed)

    def test_multilabel_score_is_the_per_label_auc_loop(self):
        # the eval split of label 5 (rate 0.5 / 2**5) has no positive
        spec = ToyDataSpec(n_items=100, n_labels=6, n_features=4, noise=0.0, seed=0)
        t = LinearTrainable(spec)
        t.init(seed=1)
        t.train_one_epoch()
        logits, truth = t.x_eval @ t.weights + t.bias, t.y_eval
        assert not truth[:, 5].any()
        aucs = []
        for j in range(spec.n_labels):
            try:
                aucs.append(roc_auc(logits[:, j], truth[:, j]))
            except UndefinedMetricError:
                continue
        assert t.evaluate() == float(np.mean(aucs))

    def test_copy_from_is_a_deep_state_copy(self):
        spec = ToyDataSpec(n_items=100, n_labels=2, n_features=4, seed=3)
        a = LinearTrainable(spec)
        b = LinearTrainable(spec)
        a.init(seed=1)
        b.init(seed=2)
        b.copy_from(a)
        assert b.hyperparameters == a.hyperparameters
        b.weights[0, 0] += 1.0
        assert a.weights[0, 0] != b.weights[0, 0]

    def test_trainables_on_one_spec_share_read_only_data(self):
        spec = ToyDataSpec(n_items=100, n_labels=2, n_features=4, seed=3)
        a, b = LinearTrainable(spec), LinearTrainable(spec)
        for name in ("x", "y", "x_eval", "y_eval"):
            assert getattr(a, name) is getattr(b, name)
            with pytest.raises(ValueError):
                getattr(a, name)[0] = 0
        a.init(seed=1)
        a.hyperparameters = {"learning_rate": 0.5, "gamma": 2.0}
        a.train_one_epoch()
        shared = (a.x, a.y, a.x_eval, a.y_eval)
        fresh = make_toy_dataset.__wrapped__(spec)  # the uncached build
        assert all(np.array_equal(x, y) for x, y in zip(fresh, shared))

    @pytest.mark.parametrize("tied", [False, True])
    def test_multilabel_score_equals_auc_of_sigmoid(self, tied):
        # the score ranks logits; the sigmoid keeps their order and ties
        spec = ToyDataSpec(n_items=300, n_labels=4, n_features=6, seed=5)
        t = LinearTrainable(spec)
        t.init(seed=2)
        t.hyperparameters = {"learning_rate": 0.5, "gamma": 2.0}
        t.train_one_epoch()
        if tied:  # one logit per label column: every item ties
            t.weights[:] = 0.0
        probs = expit(t.x_eval @ t.weights + t.bias)
        truth = t.y_eval
        expected = np.mean([roc_auc(probs[:, j], truth[:, j]) for j in range(4)])
        assert t.evaluate() == float(expected)
        if tied:
            assert t.evaluate() == 0.5

    def test_invalid_spec_rejected(self):
        with pytest.raises(LabelcalError):
            ToyDataSpec(mode="other")
        with pytest.raises(LabelcalError):
            ToyDataSpec(noise=0.9)


def toy_dataset_reference(spec):
    """The toy data as built before the split was gathered once: all
    features, all targets, eval rows and train rows."""
    rng = derive_rng(spec.seed)
    x = rng.normal(size=(spec.n_items, spec.n_features))
    if spec.mode == "multilabel":
        rates = POSITIVE_RATE / 2.0 ** np.arange(spec.n_labels)
        w = rng.normal(size=(spec.n_features, spec.n_labels))
        raw = x @ w
        cuts = np.array([quantile(raw[:, j], 1.0 - rate) for j, rate in enumerate(rates)])
        y = (raw > cuts).astype(np.int8)
        flips = rng.random(y.shape) < spec.noise
        y = np.where(flips, 1 - y, y)
    else:
        weights = 0.5 ** np.arange(spec.n_labels)
        y = rng.choice(spec.n_labels, size=spec.n_items, p=weights / weights.sum())
        means = rng.normal(scale=3.0, size=(spec.n_labels, spec.n_features))
        x = means[y] + x
        if spec.noise > 0:
            flips = rng.random(spec.n_items) < spec.noise
            y = np.where(flips, rng.integers(spec.n_labels, size=spec.n_items), y)
    n_eval = max(1, int(round(EVAL_FRACTION * spec.n_items)))
    split = derive_rng(spec.seed, 1).permutation(spec.n_items)
    return x, y, split[:n_eval], split[n_eval:]


class GatheringTrainable(LinearTrainable):
    """The toy trainable's step loop before the split was gathered once:
    each step gathers the train rows again and, in multiclass mode,
    rebuilds the LDAM margins."""

    def __init__(self, data_spec):
        super().__init__(data_spec)
        self.x_all, self.y_all, self.eval_idx, self.train_idx = toy_dataset_reference(data_spec)

    def _logits(self, idx):
        return self.x_all[idx] @ self.weights + self.bias

    def train_one_epoch(self):
        idx = self.train_idx
        lr = self.hyperparameters["learning_rate"]
        for _ in range(STEPS_PER_EPOCH):
            logits = self._logits(idx)
            if self.spec.mode == "multilabel":
                loss = focal_loss(logits, self.y_all[idx], gamma=self.hyperparameters["gamma"])
                grad = loss.gradient / idx.size
            else:
                counts = np.bincount(self.y_all[idx], minlength=self.spec.n_labels)
                margins = ldam_margins(
                    np.maximum(counts, 1), max_margin=self.hyperparameters["max_margin"])
                ldam = ldam_loss(logits, self.y_all[idx], margins)
                penalty = confidence_penalty(logits, self.hyperparameters["beta"])
                grad = (ldam.gradient + penalty.gradient) / idx.size
            self.weights -= lr * (self.x_all[idx].T @ grad)
            self.bias -= lr * grad.sum(axis=0)

    def evaluate(self):
        logits = self._logits(self.eval_idx)
        if self.spec.mode == "multilabel":
            return mean_roc_auc(logits, self.y_all[self.eval_idx])[0]
        return balanced_accuracy(np.argmax(logits, axis=1), self.y_all[self.eval_idx])


# the two pbt-demo runs of the bench: (data spec, scheduler) keyword arguments
BENCH_PBT_DEMOS = {
    "multilabel": ({"n_items": 400, "n_labels": 5, "n_features": 8, "mode": "multilabel"},
                   {"population_size": 16, "min_generations": 5, "patience": 10,
                    "mode": "fixed"}),
    "multiclass": ({"n_items": 200, "n_labels": 4, "n_features": 8, "mode": "multiclass"},
                   {"population_size": 8, "min_generations": 5, "patience": 3,
                    "mode": "patience"}),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", ["multilabel", "multiclass"])
def test_pbt_run_equals_the_gathering_step_loop(mode, seed):
    data, scheduler = BENCH_PBT_DEMOS[mode]
    spec = ToyDataSpec(**data, seed=seed)
    config = PbtConfig(**scheduler, seed=seed)

    def run(trainable):
        made = []  # the population first, then the selection snapshots

        def factory():
            made.append(trainable(spec))
            return made[-1]

        return pbt_run(factory, config), [(t.weights.tobytes(), t.bias.tobytes()) for t in made]

    got, got_state = run(LinearTrainable)
    want, want_state = run(GatheringTrainable)
    assert len(want.history) >= config.min_generations
    # repr prints each float to the bit, every history entry included
    assert repr(got) == repr(want)
    # a score can hide a small change in the weights; the final state cannot
    assert got_state == want_state
