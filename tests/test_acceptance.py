"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Oracles used here are written fresh in this module (plain-loop
transcriptions, union-find clustering, pair counting) so that every
dual-route check keeps two independent sides.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import functools
import json
import math

import numpy as np
from scipy.stats import spearmanr

from labelcal._util import derive_rng
from labelcal.calibration import grid_search_thresholds, threshold_at_half
from labelcal.cli import dispatch
from labelcal.core import LabelMatrix, ProbMatrix
from labelcal.folds import candidate_partition, partition_score, stratified_kfold
from labelcal.losses import confidence_penalty, focal_loss, ldam_loss
from labelcal.metrics import (
    label_count_error_rate,
    tendency_error,
    tendency_values,
)
from labelcal.pbt import PbtConfig, pbt_run
from labelcal.relnet import (
    RelationNetwork,
    kamada_kawai_layout,
    layout_stress,
    network_from_annotations,
    network_from_probabilities,
    target_distances,
)
from labelcal.sampling import importance_weights, sizing_curve
from labelcal.segmentation import (
    LineBox,
    ParagraphRecord,
    classify_paragraphs,
    dbscan,
    merge_cross_page,
    merge_decision,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number:02d} {name}: PASS")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. Loss gradients and reductions
# ---------------------------------------------------------------------------


def finite_difference(f, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


@criterion(1, "loss gradient suite")
def test_criterion_01_loss_gradients():
    rng = np.random.default_rng(101)
    for _ in range(100):
        z = rng.uniform(-5, 5, size=6)
        t = rng.integers(0, 2, size=6)
        gamma = rng.uniform(0, 4)
        out = focal_loss(z, t, gamma=gamma)
        fd = finite_difference(lambda x: focal_loss(x, t, gamma=gamma).value, z)
        np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        z = rng.uniform(-5, 5, size=k)
        y = int(rng.integers(k))
        margins = rng.uniform(0, 1, size=k)
        out = ldam_loss(z, y, margins)
        fd = finite_difference(lambda x: ldam_loss(x, y, margins).value, z)
        np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        z = rng.uniform(-5, 5, size=k)
        beta = rng.uniform(0.05, 3.0)
        out = confidence_penalty(z, beta=beta)
        fd = finite_difference(lambda x: confidence_penalty(x, beta=beta).value, z)
        np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)
    # reductions
    for _ in range(100):
        z = rng.uniform(-8, 8, size=5)
        t = rng.integers(0, 2, size=5)
        bce = np.where(t == 1, np.logaddexp(0, -z), np.logaddexp(0, z)).sum()
        assert abs(focal_loss(z, t, gamma=0.0).value - bce) < 1e-12
        y = int(rng.integers(5))
        m = z.max()
        ce = m + math.log(np.exp(z - m).sum()) - z[y]
        assert abs(ldam_loss(z, y, np.zeros(5)).value - ce) < 1e-12


# ---------------------------------------------------------------------------
# 2. Calibration superiority on rare labels
# ---------------------------------------------------------------------------


def rare_label_corpus(seed, n=3000, l=38):
    """y ~ Bernoulli with rare rates; probabilities are noisy versions of y
    with many small nonzero values on the negatives."""
    rng = np.random.default_rng(seed)
    rates = np.linspace(0.005, 0.30, l)
    y = (rng.random((n, l)) < rates).astype(int)
    y[0] = 1
    probs = np.where(
        y == 1, rng.beta(6, 2, size=(n, l)), rng.beta(1, 12, size=(n, l))
    )
    names = tuple(f"l{j}" for j in range(l))
    return ProbMatrix(names, probs), LabelMatrix(names, y)


@criterion(2, "calibration beats baselines on rare labels")
def test_criterion_02_calibration_superiority():
    wins = 0
    for seed in range(10):
        probs, truth = rare_label_corpus(200 + seed)
        _, err = grid_search_thresholds(probs, truth, grid_step=0.01)
        no_trunc = label_count_error_rate(probs, truth).value
        half = label_count_error_rate(threshold_at_half(probs), truth).value
        if err < no_trunc and err < half:
            wins += 1
    assert wins >= 9, f"truncation won only {wins}/10 seeds"


# ---------------------------------------------------------------------------
# 3. Grid search == exhaustive oracle
# ---------------------------------------------------------------------------


@criterion(3, "grid search equals exhaustive oracle")
def test_criterion_03_grid_search_oracle():
    def oracle(values, y, step, low_range, high_range):
        true_counts = y.sum(axis=0).astype(float)
        defined = true_counts > 0
        best = None
        n_low = int(np.floor((low_range[1] - low_range[0]) / step + 1e-9)) + 1
        n_high = int(np.floor((high_range[1] - high_range[0]) / step + 1e-9)) + 1
        for i in range(n_low):
            lo = low_range[0] + i * step
            for j in range(n_high):
                hi = high_range[0] + j * step
                if lo > hi:
                    continue
                trunc = values.copy()
                trunc[trunc < lo] = 0.0
                trunc[trunc > hi] = 1.0
                sums = trunc.sum(axis=0)
                rel = np.abs(sums[defined] - true_counts[defined]) / true_counts[defined]
                e = float(rel.mean())
                if best is None or e < best[0]:
                    best = (e, lo, hi)
        return best

    rng = np.random.default_rng(103)
    for _ in range(30):
        n, l = int(rng.integers(2, 21)), int(rng.integers(1, 4))
        y = rng.integers(0, 2, size=(n, l))
        y[0] = 1
        values = np.round(rng.random((n, l)), 3)
        names = tuple(f"l{j}" for j in range(l))
        t, err = grid_search_thresholds(
            ProbMatrix(names, values), LabelMatrix(names, y), grid_step=0.1
        )
        e, lo, hi = oracle(values, y, 0.1, (0.0, 0.5), (0.5, 1.0))
        assert (t.p_low, t.p_high) == (lo, hi), "tie-break or argmin mismatch"
        assert err == e


# ---------------------------------------------------------------------------
# 4. Importance weights == formula transcription
# ---------------------------------------------------------------------------


@criterion(4, "importance weights match formula transcription")
def test_criterion_04_importance_weights():
    def transcription(p):
        n_items, n_labels = p.shape
        w = np.zeros(n_items)
        for label in range(n_labels):
            column = p[:, label]
            p_max = column.max()
            if p_max == 0.0:
                w += 1.0 / n_items
                continue
            bin_of = {}
            for i in range(n_items):
                x = column[i]
                for b in range(5):
                    lower = b * p_max / 5
                    upper = p_max if b == 4 else (b + 1) * p_max / 5
                    inside = (x >= lower and x <= upper) if b == 4 else (x >= lower and x < upper)
                    if inside:
                        bin_of[i] = b
                        break
            counts = {b: sum(1 for v in bin_of.values() if v == b) for b in range(5)}
            for i in range(n_items):
                w[i] += 1.0 / counts[bin_of[i]]
        return w

    rng = np.random.default_rng(104)
    for _ in range(50):
        n, l = int(rng.integers(1, 51)), int(rng.integers(1, 6))
        values = rng.random((n, l))
        if rng.random() < 0.25:
            values[:, rng.integers(l)] = 0.0
        probs = ProbMatrix(tuple(f"l{j}" for j in range(l)), values)
        np.testing.assert_allclose(
            importance_weights(probs), transcription(values), rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------------------
# 5. Fold-search quality
# ---------------------------------------------------------------------------


@criterion(5, "fold search beats the median random partition")
def test_criterion_05_fold_search_quality():
    rng = np.random.default_rng(105)
    labels = LabelMatrix(
        tuple(f"l{j}" for j in range(10)), (rng.random((200, 10)) < 0.08).astype(int)
    )
    winner_max, random_max = [], []
    for trial in range(100):
        winner = stratified_kfold(labels, k=10, candidates=10_000, seed=trial)
        winner_max.append(winner.score[0])
        fresh = candidate_partition(50_000 + trial, 0, 200, 10)
        random_max.append(partition_score(labels, fresh, 10)[0])
    median_random = float(np.median(random_max))
    losses = sum(1 for w in winner_max if w > median_random)
    assert losses == 0, f"winner exceeded the median random deviation {losses} times"


# ---------------------------------------------------------------------------
# 6. Sizing-curve shape
# ---------------------------------------------------------------------------


@criterion(6, "sizing curve follows 1/sqrt(s)")
def test_criterion_06_sizing_curve():
    rng = np.random.default_rng(106)
    scores = rng.normal(size=3000)
    curve = sizing_curve(
        scores, sizes=range(50, 301, 10), reps=100, seed=6
    )
    for s, std in zip(curve.sizes, curve.mean_std):
        target = 1.0 / math.sqrt(s)
        assert abs(std - target) / target < 0.15, f"size {s}: {std} vs {target}"
    rho, p_value = spearmanr(curve.sizes, curve.mean_std)
    assert rho < 0 and p_value < 0.01


# ---------------------------------------------------------------------------
# 7. DBSCAN == brute-force reference
# ---------------------------------------------------------------------------


def dbscan_union_find(points, eps, min_pts):
    """Independent reference: union-find over cores, borders to nearest core."""
    m = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    core = (dist <= eps).sum(axis=1) >= min_pts
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        if not core[i]:
            continue
        for j in range(i + 1, m):
            if core[j] and dist[i, j] <= eps:
                parent[find(i)] = find(j)
    labels = np.full(m, -1)
    numbering = {}
    for i in range(m):
        if core[i]:
            root = find(i)
            if root not in numbering:
                numbering[root] = len(numbering)
            labels[i] = numbering[root]
    for i in range(m):
        if core[i]:
            continue
        within = [(dist[i, j], j) for j in range(m) if core[j] and dist[i, j] <= eps]
        if within:
            labels[i] = labels[min(within)[1]]
    return labels


def relabel_by_first_occurrence(labels):
    mapping, out = {}, []
    for l in labels:
        if l == -1:
            out.append(-1)
        else:
            mapping.setdefault(l, len(mapping))
            out.append(mapping[l])
    return np.array(out)


@criterion(7, "DBSCAN equals brute-force reference")
def test_criterion_07_dbscan_oracle():
    rng = np.random.default_rng(107)
    for _ in range(500):
        m = int(rng.integers(2, 201))
        points = rng.random((m, 2)) * rng.uniform(1, 5)
        eps = float(rng.uniform(0.05, 0.8))
        min_pts = int(rng.integers(1, 7))
        mine = relabel_by_first_occurrence(dbscan(points, eps, min_pts))
        ref = relabel_by_first_occurrence(dbscan_union_find(points, eps, min_pts))
        np.testing.assert_array_equal(mine, ref)


# ---------------------------------------------------------------------------
# 8. Segmentation fixtures
# ---------------------------------------------------------------------------


def fixture_paragraph(pid, height, width, n_chars, page=1, left=100,
                      right=700, cls="body", last_right=None):
    text = "x" * (n_chars // 2)
    lines = (
        LineBox(page, left, 100, right, 112, text),
        LineBox(page, left, 120, last_right if last_right is not None else right,
                132, text),
    )
    return ParagraphRecord(pid, page, page, lines, text + " " + text, cls,
                           height, width)


@criterion(8, "segmentation classes and merge decisions")
def test_criterion_08_segmentation():
    rng = np.random.default_rng(108)
    paragraphs, expected = [], []
    for i in range(50):
        paragraphs.append(fixture_paragraph(
            f"b{i}", 10 + rng.normal(0, 0.2), 5 + rng.normal(0, 0.1), 400))
        expected.append("body")
    for i in range(15):
        paragraphs.append(fixture_paragraph(
            f"f{i}", 8 + rng.normal(0, 0.2), 4 + rng.normal(0, 0.1), 100))
        expected.append("footnote")
    for i in range(10):
        paragraphs.append(fixture_paragraph(
            f"h{i}", 14 + rng.normal(0, 0.2), 7 + rng.normal(0, 0.1), 40))
        expected.append("heading")
    got = classify_paragraphs(paragraphs, min_pts=3)
    accuracy = np.mean([g == e for g, e in zip(got, expected)])
    assert accuracy >= 0.95, f"class accuracy {accuracy}"

    # 20 boundary fixtures: 10 that must merge, 10 that must not.
    # body margins 100/700, char width 5 -> right_tol 7.5, indent_tol 5.
    margin_pair = (100.0, 700.0)
    decisions = []
    for k in range(10):  # flush right end, un-indented continuation
        last = fixture_paragraph("last", 10, 5, 200, last_right=693 + (k % 8))
        first = fixture_paragraph("first", 10, 5, 200, left=100 + (k % 5))
        decisions.append(
            (merge_decision(last, first, margin_pair, margin_pair), True)
        )
    for k in range(10):
        if k < 5:  # short last line
            last = fixture_paragraph("last", 10, 5, 200, last_right=400 + 20 * k)
            first = fixture_paragraph("first", 10, 5, 200)
        else:  # indented next-page first line
            last = fixture_paragraph("last", 10, 5, 200, last_right=699)
            first = fixture_paragraph("first", 10, 5, 200, left=140 + 10 * k)
        decisions.append(
            (merge_decision(last, first, margin_pair, margin_pair), False)
        )
    assert all(got == want for got, want in decisions), decisions

    # the full pass agrees with the decision rule on a flush boundary
    page1 = [fixture_paragraph("a", 10, 5, 200, page=1, last_right=699)]
    page2 = [fixture_paragraph("b", 10, 5, 200, page=2)]
    merged = merge_cross_page([page1, page2])
    assert len(merged) == 1 and merged[0].last_page == 2


# ---------------------------------------------------------------------------
# 9. Relation-network reduction
# ---------------------------------------------------------------------------


@criterion(9, "probability network reduces to annotation network")
def test_criterion_09_network_reduction():
    rng = np.random.default_rng(109)
    for _ in range(100):
        n, l = int(rng.integers(1, 40)), int(rng.integers(2, 8))
        y = rng.integers(0, 2, size=(n, l))
        names = tuple(f"l{j}" for j in range(l))
        a = network_from_probabilities(ProbMatrix(names, y.astype(float)))
        b = network_from_annotations(LabelMatrix(names, y))
        np.testing.assert_array_equal(
            np.nan_to_num(a.weights, nan=-1.0), np.nan_to_num(b.weights, nan=-1.0)
        )
        diag = np.diag(a.weights)
        assert np.all(diag[a.support > 0] == 1.0)


# ---------------------------------------------------------------------------
# 10. Layout stress
# ---------------------------------------------------------------------------


def _circular_init(n: int, radius: float, seed: int) -> np.ndarray:
    """The seeded circular arrangement the layout once started from: the
    reference whose stress every layout must beat."""
    order = derive_rng(seed).permutation(n)
    angles = 2.0 * np.pi * np.argsort(order) / n
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


@criterion(10, "layout stress below initialization; geometric cases exact")
def test_criterion_10_layout():
    def equal_distance_network(n):
        weights = np.full((n, n), 0.05)
        np.fill_diagonal(weights, 1.0)
        return RelationNetwork(tuple(f"l{j}" for j in range(n)), weights, np.ones(n))

    two = kamada_kawai_layout(equal_distance_network(2))
    assert abs(np.linalg.norm(two.positions[0] - two.positions[1]) - 1.0) < 1e-6

    three = kamada_kawai_layout(equal_distance_network(3))
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(three.positions[i] - three.positions[j])
            assert abs(d - 1.0) < 1e-3

    rng = np.random.default_rng(110)
    for trial in range(50):
        l = int(rng.integers(2, 31))
        values = rng.random((25, l))
        net = network_from_probabilities(
            ProbMatrix(tuple(f"l{j}" for j in range(l)), values)
        )
        dists = target_distances(net)
        init = _circular_init(l, radius=float(dists.max()) / 2.0, seed=trial)
        layout = kamada_kawai_layout(net, iterations=300)
        assert layout.stress < layout_stress(init, dists), f"trial {trial}"


# ---------------------------------------------------------------------------
# 11. PBT
# ---------------------------------------------------------------------------


class Quadratic:
    def __init__(self):
        self.hyperparameters = {"h": 1.0}
        self.bounds = {"h": (1e-6, 100.0)}

    def init(self, seed):
        self.hyperparameters = {"h": float(derive_rng(seed).uniform(0.1, 10.0))}

    def train_one_epoch(self):
        pass

    def evaluate(self):
        return -((self.hyperparameters["h"] - 3.0) ** 2)

    def copy_from(self, other):
        self.hyperparameters = dict(other.hyperparameters)


@criterion(11, "PBT elitism, search quality, stopping rules")
def test_criterion_11_pbt():
    # elitism is bitwise invariant: no selection event ever targets an elite
    overwrites, instances = [], []

    class Logged(Quadratic):
        def copy_from(self, other):
            overwrites.append(self)
            super().copy_from(other)

    def factory():
        t = Logged()
        instances.append(t)
        return t

    config = PbtConfig(population_size=10, min_generations=8, seed=11, mode="fixed")
    result = pbt_run(factory, config)
    members = {id(t): i for i, t in enumerate(instances[:10])}
    events = [members[id(t)] for t in overwrites if id(t) in members]
    per_gen = 10 - 1  # ceil(0.1 * 10) elite
    assert len(events) == (result.generations - 1) * per_gen
    for g, record in enumerate(result.history[:-1]):
        targeted = set(events[g * per_gen:(g + 1) * per_gen])
        assert not targeted & set(record["elite"]), f"elite written in gen {g + 1}"
        follow = result.history[g + 1]
        for mid in record["elite"]:
            assert record["hyperparameters"][mid] == follow["hyperparameters"][mid]

    # mean final best over 50 seeds beats random search at equal budget
    population, generations = 12, 15
    pbt_best, random_best = [], []
    for seed in range(50):
        cfg = PbtConfig(population_size=population, min_generations=generations,
                        seed=seed, mode="fixed")
        pbt_best.append(pbt_run(Quadratic, cfg).best_score)
        draws = derive_rng(seed, 12345).uniform(0.1, 10.0, size=population * generations)
        random_best.append(float(-((draws - 3.0) ** 2).min()))
    assert np.mean(pbt_best) > np.mean(random_best)

    # stopping rules on a constant-score population
    fixed = pbt_run(Quadratic, PbtConfig(population_size=3, min_generations=7,
                                         seed=1, mode="fixed"))
    assert fixed.generations == 7
    patience = pbt_run(Quadratic, PbtConfig(population_size=3, min_generations=6,
                                            patience=4, seed=1, mode="patience"))
    assert patience.generations == 6 + 4


# ---------------------------------------------------------------------------
# 12. Tendency metric
# ---------------------------------------------------------------------------


@criterion(12, "tendency values and tendency error")
def test_criterion_12_tendency():
    def step(move, total):
        return int(tendency_values([0.0, move], total)[0])

    # ticks max(5/40, 1) = 1 and max(400/40, 1) = 10, pinned exactly: a
    # move equal to the tick counts, one a ulp smaller does not
    for total, tick in [(5.0, 1.0), (400.0, 10.0)]:
        below = math.nextafter(tick, 0.0)
        assert (step(tick, total), step(below, total)) == (1, 0)
        assert (step(-tick, total), step(-below, total)) == (-1, 0)
    assert step(5.0, 5.0) == 1 and list(tendency_values([100.0, 105.0], 400.0)) == [0]

    rng = np.random.default_rng(112)
    for _ in range(100):
        values = tendency_values(rng.uniform(0, 40, size=12), float(rng.uniform(1, 1500)))
        assert set(np.unique(values)).issubset({-1, 0, 1})

    def staircase(direction):
        counts = [100.0 + direction * 60.0 * i for i in range(6)]
        return tendency_values(counts, sum(counts))

    up, down = staircase(+1), staircase(-1)
    assert tendency_error(up, up) == 0.0
    assert tendency_error(up, down) == 200.0


# ---------------------------------------------------------------------------
# 13. CLI determinism
# ---------------------------------------------------------------------------


@criterion(13, "CLI byte-identical under reruns")
def test_criterion_13_cli_determinism(tmp_path):
    rng = np.random.default_rng(113)

    probs = tmp_path / "probs.csv"
    values = rng.random((40, 3))
    probs.write_text(
        "a,b,c\n" + "\n".join(",".join("%.17g" % v for v in row) for row in values) + "\n"
    )
    truth = tmp_path / "truth.csv"
    y = rng.integers(0, 2, size=(40, 3))
    y[0] = 1
    truth.write_text(
        "a,b,c\n" + "\n".join(",".join(str(v) for v in row) for row in y) + "\n"
    )
    classes = tmp_path / "classes.csv"
    classes.write_text(
        "a,b\n" + "\n".join("1,0" if i % 3 else "0,1" for i in range(12)) + "\n"
    )
    scores = tmp_path / "scores.txt"
    scores.write_text("\n".join("%.17g" % v for v in rng.normal(size=200)) + "\n")
    years = tmp_path / "years.txt"
    years.write_text("\n".join(str(1980 + i % 4) for i in range(40)) + "\n")
    quotes = tmp_path / "quotes.jsonl"
    texts = tmp_path / "texts.jsonl"
    texts.write_text(
        json.dumps({"id": 1, "text": "a fordítás szép"}) + "\n"
        + json.dumps({"id": 2, "text": "alma"}) + "\n"
    )
    header = "level\tpage_num\tblock_num\tpar_num\tline_num\tword_num\tleft\ttop\twidth\theight\tconf\ttext"
    rows = [header]
    for page in (1, 2):
        for par in (1, 2):
            for line in (1, 2):
                for word in (1, 2, 3):
                    rows.append(
                        f"5\t{page}\t1\t{par}\t{line}\t{word}\t{100 + 60 * (word - 1)}"
                        f"\t{100 + 20 * line}\t50\t12\t95\tszo{par}{line}{word}"
                    )
    tsv = tmp_path / "pages.tsv"
    tsv.write_text("\n".join(rows) + "\n")
    paragraphs = tmp_path / "paragraphs.jsonl"

    def out(name):
        return str(tmp_path / name)

    runs = {
        "segment": ["segment", "--tsv", str(tsv), "--min-pts", "2",
                    "--out", out("seg.jsonl")],
        "match": None,  # filled in after segment ran once
        "filter": ["filter", "--texts", str(texts), "--needle", "fordí",
                   "--out", out("kept.jsonl")],
        "folds": ["folds", "--labels", str(truth), "--k", "4", "--candidates",
                  "300", "--seed", "3", "--out", out("folds.csv")],
        "folds-multiclass": ["folds", "--labels", str(classes), "--kind",
                             "multiclass", "--k", "2", "--seed", "3",
                             "--out", out("cfolds.csv")],
        "metrics": ["metrics", "--probs", str(probs), "--truth", str(truth),
                    "--out", out("metrics.json")],
        "calibrate": ["calibrate", "--oof", str(probs), "--truth", str(truth),
                      "--step", "0.05", "--years", str(years),
                      "--out", out("cal.json")],
        "truncate": ["truncate", "--probs", str(probs), "--p-low", "0.2",
                     "--p-high", "0.54", "--out", out("trunc.csv")],
        "sample": ["sample", "--probs", str(probs), "--n", "12", "--seed", "5",
                   "--out", out("sample.json")],
        "size-curve": ["size-curve", "--scores", str(scores), "--sizes", "50",
                       "100", "50", "--reps", "4", "--resamples", "80",
                       "--seed", "4", "--out", out("curve.json")],
        "relnet": ["relnet", "--probs", str(probs), "--min-weight", "0.2",
                   "--out", out("graph.dot"),
                   "--json-out", out("weights.json")],
        "pbt-demo": ["pbt-demo", "--mode", "multilabel", "--population", "4",
                     "--generations", "3", "--items", "100", "--labels", "3",
                     "--features", "5", "--seed", "1", "--out", out("pbt.json")],
    }
    assert dispatch(runs["segment"]) == 0
    (tmp_path / "seg0.jsonl").write_bytes((tmp_path / "seg.jsonl").read_bytes())
    quotes.write_text(json.dumps(
        {"id": "q", "text": json.loads((tmp_path / "seg.jsonl").read_text().splitlines()[0])["text"]}
    ) + "\n")
    runs["match"] = ["match", "--quotes", str(quotes), "--paragraphs",
                     out("seg0.jsonl"), "--out", out("matches.json")]

    outputs = {
        "segment": ["seg.jsonl"], "match": ["matches.json"],
        "filter": ["kept.jsonl"],
        "folds": ["folds.csv", "folds.csv.score.json"],
        "folds-multiclass": ["cfolds.csv", "cfolds.csv.score.json"],
        "metrics": ["metrics.json"], "calibrate": ["cal.json"],
        "truncate": ["trunc.csv"], "sample": ["sample.json"],
        "size-curve": ["curve.json"],
        "relnet": ["graph.dot", "weights.json"], "pbt-demo": ["pbt.json"],
    }
    for name, argv in runs.items():
        snapshots = []
        for v in (argv, argv):
            assert dispatch(v) == 0, name
            snapshots.append([
                (tmp_path / f).read_bytes() for f in outputs[name]
            ])
        assert all(s == snapshots[0] for s in snapshots), f"{name} not deterministic"
