"""Tests for MLlib-style algorithms and the property graph."""

import numpy as np
import pytest

from repro.compute import (
    Graph,
    KMeans,
    LogisticRegression,
    SparkContext,
    StandardScaler,
    TfIdf,
    tokenize,
)
from repro.compute.mllib import cosine_similarity


class TestKMeans:
    def _blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal([0, 0], 0.2, (50, 2))
        b = rng.normal([5, 5], 0.2, (50, 2))
        return np.vstack([a, b])

    def test_separates_two_blobs(self):
        points = self._blobs()
        model = KMeans(k=2, seed=1).fit(points)
        labels = model.predict(points)
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_centers_near_blob_means(self):
        model = KMeans(k=2, seed=1).fit(self._blobs())
        centers = sorted(model.centers.tolist())
        np.testing.assert_allclose(centers[0], [0, 0], atol=0.2)
        np.testing.assert_allclose(centers[1], [5, 5], atol=0.2)

    def test_accepts_rdd_input(self):
        context = SparkContext()
        rdd = context.parallelize(self._blobs().tolist())
        model = KMeans(k=2, seed=0).fit(rdd)
        assert model.centers.shape == (2, 2)

    def test_validates(self):
        with pytest.raises(ValueError):
            KMeans(k=0)
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.zeros((2, 2)))
        with pytest.raises(RuntimeError):
            KMeans(k=1).predict(np.zeros((1, 2)))

    def test_deterministic_given_seed(self):
        points = self._blobs()
        a = KMeans(k=2, seed=7).fit(points).centers
        b = KMeans(k=2, seed=7).fit(points).centers
        np.testing.assert_allclose(a, b)


class TestLogisticRegression:
    def _data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (n, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        return x, y

    def test_learns_linear_boundary(self):
        x, y = self._data()
        model = LogisticRegression(lr=0.5, iterations=300).fit(x, y)
        assert model.accuracy(x, y) > 0.95

    def test_predict_proba_in_unit_interval(self):
        x, y = self._data()
        model = LogisticRegression().fit(x, y)
        probs = model.predict_proba(x)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_accepts_rdd_of_pairs(self):
        x, y = self._data(50)
        context = SparkContext()
        rdd = context.parallelize(list(zip(x.tolist(), y.tolist())))
        model = LogisticRegression(lr=0.5, iterations=100).fit(rdd)
        assert model.accuracy(x, y) > 0.8

    def test_validates(self):
        with pytest.raises(ValueError):
            LogisticRegression(lr=0)
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((1, 2)))


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 3, (100, 4))
        scaled = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(scaled.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1, atol=1e-10)

    def test_constant_column_safe(self):
        x = np.ones((10, 2))
        scaled = StandardScaler().fit_transform(x)
        assert np.isfinite(scaled).all()

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestTfIdf:
    def test_tokenize(self):
        assert tokenize("Shots fired near 3rd St! #BR @user") == \
            ["shots", "fired", "near", "3rd", "st", "#br", "@user"]

    def test_rare_terms_weighted_higher(self):
        docs = [tokenize(t) for t in
                ["traffic jam downtown", "traffic jam highway",
                 "gunshot reported downtown"]]
        tfidf = TfIdf().fit(docs)
        matrix = tfidf.transform(docs)
        gunshot = matrix[2, tfidf.vocabulary["gunshot"]]
        traffic = matrix[0, tfidf.vocabulary["traffic"]]
        assert gunshot > traffic

    def test_max_features_caps_vocabulary(self):
        docs = [tokenize("a b c d e f g")]
        tfidf = TfIdf(max_features=3).fit(docs)
        assert len(tfidf.vocabulary) == 3

    def test_unknown_terms_ignored(self):
        tfidf = TfIdf().fit([["known"]])
        matrix = tfidf.transform([["unseen", "words"]])
        assert matrix.sum() == 0.0

    def test_validates(self):
        with pytest.raises(ValueError):
            TfIdf().fit([])
        with pytest.raises(RuntimeError):
            TfIdf().transform([["x"]])

    def test_cosine_similarity(self):
        a = np.array([1.0, 0.0])
        assert cosine_similarity(a, a) == pytest.approx(1.0)
        assert cosine_similarity(a, np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert cosine_similarity(a, np.zeros(2)) == 0.0


class TestGraph:
    def triangle_graph(self):
        return Graph({1: "a", 2: "b", 3: "c", 4: "d"},
                     [(1, 2), (2, 3), (1, 3), (3, 4)])

    def test_basic_counts(self):
        g = self.triangle_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_edge_endpoints_validated(self):
        with pytest.raises(KeyError):
            Graph({1: None}, [(1, 99)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError):
            Graph({1: None}, [(1,)])

    def test_neighbors_undirected(self):
        g = self.triangle_graph()
        assert g.neighbors(3) == {1, 2, 4}
        with pytest.raises(KeyError):
            g.neighbors(99)

    def test_degrees_and_mean(self):
        g = self.triangle_graph()
        assert g.degrees() == {1: 2, 2: 2, 3: 3, 4: 1}
        assert g.mean_degree() == pytest.approx(2.0)

    def test_first_degree_neighborhood(self):
        g = self.triangle_graph()
        assert g.n_degree_neighborhood(4, 1) == {3}

    def test_second_degree_neighborhood(self):
        g = self.triangle_graph()
        assert g.n_degree_neighborhood(4, 2) == {1, 2, 3}

    def test_neighborhood_excludes_self_by_default(self):
        g = self.triangle_graph()
        assert 1 not in g.n_degree_neighborhood(1, 2)

    def test_neighborhood_validates(self):
        g = self.triangle_graph()
        with pytest.raises(ValueError):
            g.n_degree_neighborhood(1, -1)
        with pytest.raises(KeyError):
            g.n_degree_neighborhood(99, 1)

    def test_pagerank_sums_to_one(self):
        ranks = self.triangle_graph().pagerank()
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_pagerank_hub_ranks_highest(self):
        ranks = self.triangle_graph().pagerank()
        assert max(ranks, key=ranks.get) == 3

    def test_pagerank_matches_networkx(self):
        import networkx as nx
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 1)]
        ours = Graph({i: None for i in range(1, 6)}, edges).pagerank()
        theirs = nx.pagerank(nx.Graph(edges), alpha=0.85)
        for vertex in ours:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-4)

    def test_connected_components(self):
        g = Graph({i: None for i in range(6)},
                  [(0, 1), (1, 2), (3, 4)])
        components = g.connected_components()
        assert components[0] == components[2]
        assert components[3] == components[4]
        assert components[0] != components[3]
        assert len(set(components.values())) == 3  # {0,1,2}, {3,4}, {5}

    def test_triangle_count(self):
        assert self.triangle_graph().triangle_count() == 1

    def test_aggregate_messages_degree_count(self):
        g = self.triangle_graph()

        def send(src, dst, attr):
            yield (src, 1)
            yield (dst, 1)

        inbox = g.aggregate_messages(send, lambda a, b: a + b)
        assert inbox == g.degrees()

    def test_empty_graph(self):
        g = Graph({}, [])
        assert g.pagerank() == {}
        assert g.connected_components() == {}
        assert g.mean_degree() == 0.0
