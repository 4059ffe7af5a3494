import numpy as np
import pytest

from nbrattack.errors import DataError
from nbrattack.io import (load_edge_list, load_features, load_graph,
                          load_labels, load_set_cover, read_blob, read_json,
                          save_edge_list, save_features, save_labels,
                          write_blob, write_json)
from tests.conftest import make_graph, save_set_cover


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.tsv"
        g = make_graph(6, [(0, 1), (2, 5), (1, 4)])
        save_edge_list(path, g)
        assert sorted(load_edge_list(path)) == sorted(g.edges())

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n0\t1\n\n2\t3\n")
        assert load_edge_list(path) == [(0, 1), (2, 3)]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\textra\n")
        with pytest.raises(DataError):
            load_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\tx\n")
        with pytest.raises(DataError):
            load_edge_list(path)


class TestFeaturesLabels:
    def test_features_round_trip(self, tmp_path):
        path = tmp_path / "feat.txt"
        x = np.random.default_rng(0).normal(size=(4, 3))
        save_features(path, x)
        assert np.allclose(load_features(path), x)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "feat.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(DataError):
            load_features(path)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        y = np.array([0, 2, 1, 1])
        save_labels(path, y)
        assert np.array_equal(load_labels(path), y)


class TestLoadGraph:
    def test_assembles_graph(self, tmp_path):
        g = make_graph(4, [(0, 1), (2, 3)], labels=[0, 1, 0, 1])
        save_edge_list(tmp_path / "e.tsv", g)
        save_features(tmp_path / "f.txt", g.features)
        save_labels(tmp_path / "l.txt", g.labels)
        g2 = load_graph(tmp_path / "e.tsv", tmp_path / "f.txt", tmp_path / "l.txt")
        assert g2.node_count == 4
        assert set(g2.edges()) == set(g.edges())
        assert np.allclose(g2.features, g.features)
        assert np.array_equal(g2.labels, g.labels)

    def test_edge_out_of_feature_range(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t9\n")
        save_features(tmp_path / "f.txt", np.zeros((3, 2)))
        with pytest.raises(DataError):
            load_graph(tmp_path / "e.tsv", tmp_path / "f.txt")

    def test_label_count_mismatch(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n")
        save_features(tmp_path / "f.txt", np.zeros((3, 2)))
        save_labels(tmp_path / "l.txt", np.array([0, 1]))
        with pytest.raises(DataError):
            load_graph(tmp_path / "e.tsv", tmp_path / "f.txt", tmp_path / "l.txt")


class TestSetCoverFile:
    def test_round_trip(self, tmp_path):
        sets = [frozenset({0, 1}), frozenset({2, 3}), frozenset()]
        save_set_cover(tmp_path / "sc.txt", 4, sets, 2)
        n, sets2, b = load_set_cover(tmp_path / "sc.txt")
        assert (n, b) == (4, 2)
        assert sets2 == sets

    def test_blank_line_is_empty_set(self, tmp_path):
        (tmp_path / "sc.txt").write_text("2 2 1\n0 1\n\n")
        n, subsets, b = load_set_cover(tmp_path / "sc.txt")
        assert subsets == [frozenset({0, 1}), frozenset()]

    def test_element_out_of_range(self, tmp_path):
        (tmp_path / "sc.txt").write_text("2 1 1\n0 5\n")
        with pytest.raises(DataError):
            load_set_cover(tmp_path / "sc.txt")

    def test_bad_header(self, tmp_path):
        (tmp_path / "sc.txt").write_text("2 1\n0 1\n")
        with pytest.raises(DataError):
            load_set_cover(tmp_path / "sc.txt")


class TestJson:
    def test_round_trip_sorted_keys(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 2, "a": [1, 2]})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert read_json(path) == {"b": 2, "a": [1, 2]}


class TestBlob:
    def test_round_trip_types_and_order(self, tmp_path):
        path = tmp_path / "x.bin"
        arrays = {
            "z": np.arange(6, dtype=np.int64).reshape(2, 3),
            "a": np.random.default_rng(0).normal(size=(3,)),
        }
        write_blob(path, {"kind": "test", "n": 3}, arrays)
        meta, out = read_blob(path)
        assert meta["kind"] == "test" and meta["n"] == 3
        assert set(out) == {"a", "z"}
        assert np.array_equal(out["z"], arrays["z"])
        assert np.allclose(out["a"], arrays["a"])
        assert out["z"].dtype == np.int64
        assert out["a"].dtype == np.float64

    def test_zero_d_array_keeps_shape(self, tmp_path):
        path = tmp_path / "x.bin"
        write_blob(path, {"kind": "t"}, {"eps": np.asarray(0.25)})
        _, out = read_blob(path)
        assert out["eps"].shape == ()
        assert float(out["eps"]) == 0.25

    def test_byte_identical_across_writes(self, tmp_path):
        arrays = {"w": np.linspace(0, 1, 7)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_blob(p1, {"kind": "t"}, arrays)
        write_blob(p2, {"kind": "t"}, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(DataError):
            write_blob(tmp_path / "x.bin", {"kind": "t"},
                       {"a": np.zeros(2, dtype=np.float32)})

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "x.bin"
        write_blob(path, {"kind": "t"}, {"a": np.zeros(4)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            read_blob(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "x.bin"
        write_blob(path, {"kind": "t"}, {"a": np.zeros(4)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError):
            read_blob(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTBLOB\n{}\n[]\n")
        with pytest.raises(DataError):
            read_blob(path)
