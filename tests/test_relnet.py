"""Relation network estimation, layout, and export tests."""

import numpy as np
import pytest

from labelcal._util import derive_rng
from labelcal.core import LabelMatrix, ProbMatrix
from labelcal.relnet import (
    DisconnectedGraphError,
    Layout,
    RelationNetwork,
    export_dot,
    export_weights_json,
    kamada_kawai_layout,
    layout_stress,
    network_from_annotations,
    network_from_probabilities,
    target_distances,
)


def uniform_distance_network(labels):
    """All symmetrized strengths 0.05, so every target distance is exactly 1."""
    n = len(labels)
    weights = np.full((n, n), 0.05)
    np.fill_diagonal(weights, 1.0)
    return RelationNetwork(tuple(labels), weights, np.ones(n))


def _circular_init(n: int, radius: float, seed: int) -> np.ndarray:
    """The seeded circular arrangement the layout once started from: the
    reference whose stress every layout must beat."""
    order = derive_rng(seed).permutation(n)
    angles = 2.0 * np.pi * np.argsort(order) / n
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestNetworkFromAnnotations:
    def test_hand_count(self):
        truth = LabelMatrix(("a", "b"), np.array([[1, 1], [1, 0]]))
        net = network_from_annotations(truth)
        assert net.weights[0, 1] == 0.5  # P(b|a) = 1/2
        assert net.weights[1, 0] == 1.0  # P(a|b) = 1
        np.testing.assert_array_equal(np.diag(net.weights), [1.0, 1.0])

    def test_disjoint_labels(self):
        truth = LabelMatrix(("a", "b"), np.array([[1, 0], [0, 1]]))
        net = network_from_annotations(truth)
        assert net.weights[0, 1] == 0.0
        assert net.weights[1, 0] == 0.0

    def test_zero_support_rows_are_nan_not_zero(self):
        truth = LabelMatrix(("a", "b"), np.array([[1, 0], [1, 0]]))
        net = network_from_annotations(truth)
        assert not net.defined[1]
        assert np.all(np.isnan(net.weights[1]))
        assert net.weights[0, 1] == 0.0  # defined row keeps its zero


class TestNetworkFromProbabilities:
    def test_single_row_product_formula(self):
        probs = ProbMatrix(("a", "b"), np.array([[0.5, 0.5]]))
        net = network_from_probabilities(probs)
        # sum p_a p_b / sum p_a = 0.25 / 0.5
        assert net.weights[0, 1] == 0.5

    def test_binary_input_reduces_to_annotation_counts(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n, l = int(rng.integers(2, 30)), int(rng.integers(2, 6))
            y = rng.integers(0, 2, size=(n, l))
            names = tuple(f"l{j}" for j in range(l))
            from_probs = network_from_probabilities(ProbMatrix(names, y.astype(float)))
            from_truth = network_from_annotations(LabelMatrix(names, y))
            np.testing.assert_array_equal(
                np.nan_to_num(from_probs.weights, nan=-1),
                np.nan_to_num(from_truth.weights, nan=-1),
            )
            np.testing.assert_array_equal(from_probs.support, from_truth.support)

    def test_zero_column_is_undefined(self):
        probs = ProbMatrix(("a", "b"), np.array([[0.4, 0.0], [0.8, 0.0]]))
        net = network_from_probabilities(probs)
        assert not net.defined[1]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(62)
        values = rng.random((20, 3))
        names = tuple("abc")
        perm = rng.permutation(20)
        a = network_from_probabilities(ProbMatrix(names, values))
        b = network_from_probabilities(ProbMatrix(names, values[perm]))
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)


class TestKamadaKawaiLayout:
    def test_two_nodes_reach_target_distance(self):
        net = uniform_distance_network(("a", "b"))
        np.testing.assert_allclose(target_distances(net), [[0, 1], [1, 0]])
        layout = kamada_kawai_layout(net)
        dist = np.linalg.norm(layout.positions[0] - layout.positions[1])
        assert abs(dist - 1.0) < 1e-6

    def test_equilateral_triangle_is_realizable(self):
        net = uniform_distance_network(("a", "b", "c"))
        layout = kamada_kawai_layout(net)
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(layout.positions[i] - layout.positions[j])
                assert abs(d - 1.0) < 1e-3

    def test_k4_stress_positive_but_below_initialization(self):
        net = uniform_distance_network(("a", "b", "c", "d"))
        dists = target_distances(net)
        init = _circular_init(4, radius=float(dists.max()) / 2.0, seed=2)
        init_stress = layout_stress(init, dists)
        layout = kamada_kawai_layout(net)
        assert layout.stress > 0  # K4 with equal edges has no flat embedding
        assert layout.stress < init_stress

    def test_stress_never_exceeds_initialization(self):
        rng = np.random.default_rng(63)
        for trial in range(20):
            l = int(rng.integers(2, 12))
            values = rng.random((30, l))
            names = tuple(f"l{j}" for j in range(l))
            net = network_from_probabilities(ProbMatrix(names, values))
            dists = target_distances(net)
            init = _circular_init(l, radius=float(dists.max()) / 2.0, seed=trial)
            layout = kamada_kawai_layout(net)
            assert layout.stress <= layout_stress(init, dists) + 1e-12

    def test_disconnected_graph_reported(self):
        # two strong pairs, no cross edges above the weight floor
        weights = np.array(
            [
                [1.0, 0.9, 0.0, 0.0],
                [0.9, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.8],
                [0.0, 0.0, 0.8, 1.0],
            ]
        )
        net = RelationNetwork(tuple("abcd"), weights, np.ones(4))
        with pytest.raises(DisconnectedGraphError):
            kamada_kawai_layout(net, min_weight=0.5)

    def test_single_label_rejected(self):
        net = RelationNetwork(("a",), np.array([[1.0]]), np.ones(1))
        with pytest.raises(Exception, match="at least 2"):
            kamada_kawai_layout(net)


# Positions of a 30-label layout, as float.hex strings.  They come from
# numpy's LAPACK eigensolver, pseudo-inverse and matrix products, so a
# different BLAS or LAPACK build may round them differently.  The stress
# bound is the one the per-node Newton layout this module used before
# stress majorization reached on the same network.
GOLDEN_POSITIONS = (
    ("0x1.4be8124ad60a6p-1", "-0x1.e21babe72ea98p-3"),
    ("0x1.0a1fd42828b3ap-1", "-0x1.a41a5cf097d0ep-2"),
    ("-0x1.b60d4c2294b51p-2", "0x1.1e51c71827a66p-1"),
    ("0x1.5868e761afe85p-2", "-0x1.16316b44c9610p-3"),
    ("-0x1.542a01996d02cp-3", "0x1.4e7bd9ec9fc54p-1"),
    ("0x1.46b093e87df36p-1", "0x1.2ef8587b8d54cp-2"),
    ("-0x1.12b1679a1b6f4p-5", "-0x1.45b232bc82d86p-1"),
    ("0x1.50727338eb8bap-5", "0x1.ac9276ce5f8efp-2"),
    ("-0x1.3392e04a63989p-1", "-0x1.25bec69c430d5p-2"),
    ("0x1.0ffcc82e3fdf5p-1", "0x1.d1d54327b1022p-4"),
    ("-0x1.55e05d7b3de3cp-1", "0x1.0be730aee009ep-3"),
    ("0x1.57b5e82fa9cbap-1", "-0x1.dc671b2d9c68fp-6"),
    ("0x1.537d81fcf4aaep-3", "-0x1.5288143c4fc24p-1"),
    ("0x1.05b497477a468p-3", "0x1.73cc0383a9ae4p-4"),
    ("0x1.1765f5169f315p-2", "0x1.32daec3a5523ap-1"),
    ("-0x1.08d2474ee7894p-2", "-0x1.4f3ef03eebc9fp-1"),
    ("0x1.8408ce6d1342bp-2", "-0x1.21bb8621d2b41p-1"),
    ("-0x1.f8f6ebeebfa18p-2", "-0x1.f6a29988b09d6p-2"),
    ("0x1.ec52581edb8efp-5", "0x1.5eedf18253400p-1"),
    ("-0x1.5baa78973b480p-3", "0x1.90a456de3bbbcp-4"),
    ("-0x1.0534bd86f4a31p-2", "-0x1.cf6d22097f47dp-2"),
    ("-0x1.2a83eec0cc6c1p-1", "0x1.7a1c8994bc96ap-2"),
    ("-0x1.5137c877deca8p-1", "-0x1.4e1f522754630p-4"),
    ("0x1.9c237e4f3727dp-3", "-0x1.974b0da33a97fp-2"),
    ("-0x1.7cbbdca126d9ap-2", "-0x1.654ce53cfc305p-3"),
    ("-0x1.0ca5411c28d24p-2", "0x1.bfd8864165949p-2"),
    ("0x1.527540345d1e6p-2", "0x1.43a78df2be937p-2"),
    ("-0x1.b59614111ff20p-2", "0x1.4a7e474e6d712p-3"),
    ("-0x1.507edd774d9ecp-5", "-0x1.dd097b15c1dafp-3"),
    ("0x1.f949f8ab62a95p-2", "0x1.08926dbd5beefp-1"),
)
GOLDEN_STRESS = "0x1.064264eea2bc9p+6"


def test_golden_thirty_label_layout_is_bit_stable():
    rng = np.random.default_rng(2024)
    probs = rng.beta(0.3, 2.0, size=(300, 30))
    names = tuple(f"l{j:02d}" for j in range(30))
    layout = kamada_kawai_layout(network_from_probabilities(ProbMatrix(names, probs)))
    got = tuple((float(x).hex(), float(y).hex()) for x, y in layout.positions)
    assert got == GOLDEN_POSITIONS
    assert layout.stress <= float.fromhex(GOLDEN_STRESS)


def pair_loop_stress(positions, dists):
    """Kamada-Kawai stress summed pair by pair, the reference for
    ``layout_stress``."""
    total = 0.0
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            actual = float(np.linalg.norm(positions[i] - positions[j]))
            total += (actual - dists[i, j]) ** 2 / dists[i, j] ** 2
    return total


def test_layout_stress_equals_pair_loop():
    rng = np.random.default_rng(65)
    for trial in range(200):
        n = int(rng.integers(2, 20))
        pos = rng.normal(size=(n, 2))
        if trial % 3 == 0:  # coincident nodes
            pos[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = pos[0]
        names = tuple(f"l{j}" for j in range(n))
        dists = target_distances(network_from_probabilities(ProbMatrix(names, rng.random((9, n)))))
        want = pair_loop_stress(pos, dists)
        assert layout_stress(pos, dists) == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestExportDot:
    def two_label_net(self, w_ab=0.5, w_ba=0.1):
        weights = np.array([[1.0, w_ab], [w_ba, 1.0]])
        return RelationNetwork(("a", "b"), weights, np.ones(2))

    def test_golden_two_label_export(self):
        net = self.two_label_net()
        layout = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]), stress=0.0)
        expected = (
            "digraph label_relations {\n"
            "  node [shape=ellipse];\n"
            '  "a" [pos="0,0!"];\n'
            '  "b" [pos="1,0!"];\n'
            '  "a" -> "b" [penwidth=3, label="0.500"];\n'
            "}\n"
        )
        assert export_dot(net, layout, min_weight=0.3) == expected

    def test_everything_below_min_weight_gives_nodes_only(self):
        net = self.two_label_net(0.05, 0.05)
        layout = Layout(np.zeros((2, 2)), stress=0.0)
        text = export_dot(net, layout, min_weight=0.5)
        assert "->" not in text
        assert '"a"' in text and '"b"' in text

    def test_weight_one_gets_maximum_width(self):
        net = self.two_label_net(1.0, 0.0)
        layout = Layout(np.zeros((2, 2)), stress=0.0)
        text = export_dot(net, layout, min_weight=0.5, width_base=1.0, width_scale=4.0)
        assert "penwidth=5" in text  # 1.0 + 4.0 * 1.0

    def test_reexport_is_stable(self):
        rng = np.random.default_rng(64)
        values = rng.random((15, 4))
        net = network_from_probabilities(ProbMatrix(tuple("abcd"), values))
        layout = kamada_kawai_layout(net)
        assert export_dot(net, layout, 0.1) == export_dot(net, layout, 0.1)

    def test_edges_equal_pair_loop(self):
        """Edge lines against a pair-by-pair loop over the weights, with
        weights equal to ``min_weight`` and rows without support."""
        rng = np.random.default_rng(66)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            weights = rng.choice([0.0, 0.1, 0.3, 1.0], size=(n, n))
            np.fill_diagonal(weights, 1.0)
            net = RelationNetwork(tuple(f"l{j}" for j in range(n)), weights,
                                  rng.choice([0.0, 1.0], size=n))
            min_weight = float(rng.choice([0.0, 0.1, 0.3]))
            want = [
                f'  "l{a}" -> "l{b}" [penwidth={1.0 + 4.0 * net.weights[a, b]:.6g}, '
                f'label="{net.weights[a, b]:.3f}"];'
                for a in range(n) if net.defined[a]
                for b in range(n) if a != b and net.weights[a, b] >= min_weight
            ]
            text = export_dot(net, Layout(np.zeros((n, 2)), 0.0), min_weight)
            assert [line for line in text.splitlines() if "->" in line] == want

    def test_undefined_rows_have_no_out_edges(self):
        weights = np.array([[1.0, 0.9], [np.nan, np.nan]])
        net = RelationNetwork(("a", "b"), weights, np.array([2.0, 0.0]))
        layout = Layout(np.zeros((2, 2)), stress=0.0)
        text = export_dot(net, layout, min_weight=0.0)
        assert '"b" ->' not in text

    def test_label_names_are_quoted(self):
        net = RelationNetwork(
            ('needs "quotes"', "x y"), np.array([[1.0, 0.7], [0.2, 1.0]]), np.ones(2)
        )
        layout = Layout(np.zeros((2, 2)), stress=0.0)
        text = export_dot(net, layout, min_weight=0.0)
        assert '"needs \\"quotes\\""' in text


class TestExportJson:
    def test_nan_becomes_null(self):
        weights = np.array([[1.0, 0.5], [np.nan, np.nan]])
        net = RelationNetwork(("a", "b"), weights, np.array([1.0, 0.0]))
        text = export_weights_json(net)
        assert "null" in text
        assert "NaN" not in text
