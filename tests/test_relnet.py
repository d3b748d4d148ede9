"""Relation network estimation, layout, and export tests."""

import numpy as np
import pytest

from labelcal.core import LabelMatrix, ProbMatrix
from labelcal.relnet import (
    DisconnectedGraphError,
    Layout,
    RelationNetwork,
    _circular_init,
    _gradients,
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
        layout = kamada_kawai_layout(net, seed=0)
        dist = np.linalg.norm(layout.positions[0] - layout.positions[1])
        assert abs(dist - 1.0) < 1e-6

    def test_equilateral_triangle_is_realizable(self):
        net = uniform_distance_network(("a", "b", "c"))
        layout = kamada_kawai_layout(net, seed=1)
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(layout.positions[i] - layout.positions[j])
                assert abs(d - 1.0) < 1e-3

    def test_k4_stress_positive_but_below_initialization(self):
        net = uniform_distance_network(("a", "b", "c", "d"))
        dists = target_distances(net)
        init = _circular_init(4, radius=float(dists.max()) / 2.0, seed=2)
        init_stress = layout_stress(init, dists)
        layout = kamada_kawai_layout(net, seed=2)
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
            layout = kamada_kawai_layout(net, seed=trial)
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


def node_gradient(pos, m, dists, springs):
    """The per-node gradient formula that ``_gradients`` replaced."""
    delta = pos[m] - pos
    dist = np.sqrt((delta**2).sum(axis=1))
    dist[m] = 1.0
    factor = springs[m] * (1.0 - dists[m] / np.maximum(dist, 1e-12))
    factor[m] = 0.0
    return (factor[:, None] * delta).sum(axis=0)


def test_gradients_equal_per_node_formula_bit_for_bit():
    rng = np.random.default_rng(64)
    for trial in range(300):
        n = int(rng.integers(2, 40))
        pos = rng.normal(size=(n, 2))
        if trial % 3 == 0:  # coincident nodes: zero deltas and distances
            pos[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = pos[n - 1]
        dists = rng.uniform(0.05, 2.0, size=(n, n))
        dists = (dists + dists.T) / 2.0
        np.fill_diagonal(dists, 0.0)
        with np.errstate(divide="ignore"):
            springs = 1.0 / dists**2
        np.fill_diagonal(springs, 0.0)
        every = _gradients(pos, np.arange(n), dists, springs)
        for m in range(n):
            want = node_gradient(pos, m, dists, springs).tobytes()
            assert every[m].tobytes() == want
            assert _gradients(pos, np.array([m]), dists, springs)[0].tobytes() == want


# Positions and stress of a seeded 30-label layout, as float.hex strings,
# recorded from the per-node gradient loop this module used before its
# gradients were computed as one array.
GOLDEN_POSITIONS = (
    ("-0x1.3a2945caa2de7p-1", "0x1.1d57b9f248f0dp-2"),
    ("-0x1.c5957850936eep-4", "-0x1.ecec0ba3ab58dp-2"),
    ("0x1.942b1514ea76ap-3", "-0x1.8b03a0ed0b5bap-2"),
    ("0x1.d3fa5552c11f0p-3", "0x1.8379969494daep-2"),
    ("0x1.79e762d110679p-2", "0x1.22ae5b68341b8p-1"),
    ("0x1.fbaeeaedf5616p-7", "-0x1.611712024337bp-1"),
    ("-0x1.ea6e90f0b862ep-3", "-0x1.53ba884e67219p-1"),
    ("-0x1.6665db2b84542p-2", "-0x1.0fc4939e8fd3fp-2"),
    ("-0x1.6a8df9da20035p-2", "0x1.394b94461e520p-2"),
    ("0x1.25385b408ff22p-1", "-0x1.a486d7796e06dp-2"),
    ("-0x1.a896e3aa5b637p-2", "0x1.01e4919d9f011p-1"),
    ("0x1.598fa7c804ed7p-1", "-0x1.ba7d2c693e41dp-3"),
    ("0x1.a7ae1f95a0d0bp-2", "-0x1.b77a7d98275b7p-3"),
    ("-0x1.06a2032526e09p-4", "0x1.03fb013a4999bp-2"),
    ("0x1.5a2a6fb727414p-1", "0x1.b1d81d4b8fe0bp-3"),
    ("-0x1.2d6f64802ac98p-1", "-0x1.5d99c201935dcp-2"),
    ("0x1.c087cd28e78bdp-3", "-0x1.52e16e5ee0634p-1"),
    ("0x1.02b5b4491726ep-3", "0x1.5ca2b1d792e12p-1"),
    ("-0x1.af56c4048b742p-3", "0x1.37c1de4af800cp-1"),
    ("-0x1.48ade93132738p-2", "0x1.2c7d4bd009983p-7"),
    ("-0x1.b8010a1375a4ap-2", "-0x1.04b03de50fac2p-1"),
    ("0x1.5f334b0509572p-1", "0x1.ebc5415d60c26p-10"),
    ("0x1.c4970497d67d4p-2", "0x1.4725179a1a0e2p-3"),
    ("-0x1.499fc38ed590bp-1", "-0x1.eef4cdbca8325p-4"),
    ("0x1.88c62822d9daap-3", "0x1.3e05421cb5218p-5"),
    ("-0x1.2f230c14f2deep-1", "0x1.42e135fddf28dp-4"),
    ("-0x1.102c622a64c90p-5", "-0x1.529c5cc0cf3b3p-3"),
    ("-0x1.39cd39d7b4c19p-6", "0x1.137566c393757p-1"),
    ("0x1.13a9058f10f6dp-1", "0x1.a45464278a8b7p-2"),
    ("0x1.b5a56fb56fb6bp-2", "-0x1.2d35a9f416bedp-1"),
)
GOLDEN_STRESS = "0x1.064264eea2bc9p+6"


def test_golden_thirty_label_layout_is_bit_stable():
    rng = np.random.default_rng(2024)
    probs = rng.beta(0.3, 2.0, size=(300, 30))
    names = tuple(f"l{j:02d}" for j in range(30))
    layout = kamada_kawai_layout(
        network_from_probabilities(ProbMatrix(names, probs)), seed=7
    )
    got = tuple((float(x).hex(), float(y).hex()) for x, y in layout.positions)
    assert got == GOLDEN_POSITIONS
    assert float(layout.stress).hex() == GOLDEN_STRESS


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
        layout = kamada_kawai_layout(net, seed=9)
        assert export_dot(net, layout, 0.1) == export_dot(net, layout, 0.1)

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
