import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nbrattack
from nbrattack.cli import (RunConfig, UsageError, emit_config, load_config,
                           main, parse_config_text)
from nbrattack.io import read_blob, read_json


def run(*argv):
    return main(list(argv))


TINY = [
    "--set", "sbm_blocks=8,8",
    "--set", "sbm_p_in=0.6",
    "--set", "sbm_p_out=0.05",
    "--set", "embed_hidden=4",
    "--set", "embed_epochs=2",
    "--set", "walk_length=5",
    "--set", "context_size=2",
    "--set", "walks_per_node=2",
    "--set", "dqn_episodes=2",
    "--set", "dqn_steps=3",
    "--set", "dqn_batch=4",
    "--set", "dqn_capacity=16",
    "--set", "dqn_hidden=4",
    "--set", "dqn_mlp_hidden=4",
    "--set", "budget=2",
    "--set", "budgets=1,2",
    "--set", "num_targets=3",
    "--set", "train_frac=0.3",
    "--set", "val_frac=0.2",
    "--set", "test_frac=0.5",
    "--set", "victim_hidden=4",
    "--set", "victim_epochs=25",
    "--set", "victim_patience=10",
    "--set", "oracle_targets=2",
    "--set", "oracle_budget=1",
    "--set", "analyze_targets=2",
]


class TestConfigParsing:
    def test_key_value_comments_blanks(self):
        text = "# a comment\nseed = 7\n\nbudget=3   # trailing\n"
        assert parse_config_text(text) == {"seed": 7, "budget": 3}

    def test_unknown_key(self):
        with pytest.raises(UsageError):
            parse_config_text("no_such_knob = 1\n")

    def test_missing_equals(self):
        with pytest.raises(UsageError):
            parse_config_text("seed 7\n")

    def test_type_coercion(self):
        got = parse_config_text(
            "seed = 5\nembed_lr = 0.5\nuse_lcc = true\nattackers = dqn\n")
        assert got == {"seed": 5, "embed_lr": 0.5, "use_lcc": True,
                       "attackers": "dqn"}

    def test_bad_types(self):
        with pytest.raises(UsageError):
            parse_config_text("seed = lots\n")
        with pytest.raises(UsageError):
            parse_config_text("use_lcc = maybe\n")

    def test_emit_parse_round_trip(self, tmp_path):
        cfg = RunConfig(seed=9, embed_lr=0.125, use_lcc=True,
                        sbm_blocks="4,4", out_dir=str(tmp_path))
        emit_config(cfg, tmp_path / "config.txt")
        parsed = parse_config_text((tmp_path / "config.txt").read_text())
        rebuilt = RunConfig(**parsed)
        assert rebuilt == cfg

    def test_precedence_file_env_set_flag(self, tmp_path, monkeypatch):
        conf = tmp_path / "c.txt"
        conf.write_text("seed = 1\nout_dir = from_file\n")
        monkeypatch.setenv("NBRATTACK_OUT_DIR", "from_env")
        cfg = load_config(str(conf), ["seed=2"], None)
        assert cfg.seed == 2
        assert cfg.out_dir == "from_env"
        cfg2 = load_config(str(conf), ["out_dir=from_set"], "from_flag")
        assert cfg2.out_dir == "from_flag"

    def test_set_rejects_unknown_and_malformed(self):
        with pytest.raises(UsageError):
            load_config(None, ["bogus=1"], None)
        with pytest.raises(UsageError):
            load_config(None, ["seed"], None)


class TestExitCodes:
    def test_no_dataset_is_usage_error(self, tmp_path):
        assert run("train-embed", "-o", str(tmp_path)) == 2

    def test_missing_prerequisite_is_data_error(self, tmp_path):
        code = run("train-attack", "-o", str(tmp_path), *TINY)
        assert code == 3

    def test_unknown_attacker_is_usage_error(self, tmp_path):
        code = run("evaluate", "-o", str(tmp_path), *TINY,
                   "--set", "attackers=voodoo")
        assert code == 2

    def test_gen_sbm_without_blocks(self, tmp_path):
        assert run("gen-sbm", "-o", str(tmp_path)) == 2

    def test_bad_config_file_missing(self, tmp_path):
        assert run("gen-sbm", "-c", str(tmp_path / "nope.txt"),
                   "-o", str(tmp_path)) == 3


def _subprocess_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nbrattack.__file__)))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(tmp_path):
    env = _subprocess_env()

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "nbrattack.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    helped = module_run("--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: nbrattack")
    bad = module_run("gen-sbm", "--set", "bogus=1")
    assert bad.returncode == 2
    assert "unknown config key 'bogus'" in bad.stderr


def test_cli_import_leaves_scipy_stats_unloaded():
    # every stage imports the CLI; scipy.stats would add ~40 MB of RSS and
    # most of a second to each of them, scipy.sparse.csgraph ~8 MB
    code = ("import sys, nbrattack.cli; print(*[m for m in ('scipy.stats', "
            "'scipy.sparse.csgraph') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full pipeline run shared by the artifact tests below."""
    out = tmp_path_factory.mktemp("pipeline")
    argv = ["-o", str(out), *TINY]
    assert main(["gen-sbm", *argv]) == 0
    assert main(["train-embed", *argv]) == 0
    assert main(["train-attack", *argv]) == 0
    assert main(["attack", *argv]) == 0
    assert main(["evaluate", *argv, "--set", "attackers=dqn,random,degree"]) == 0
    assert main(["analyze", *argv]) == 0
    assert main(["oracle", *argv]) == 0
    return out


class TestPipeline:
    def test_dataset_files(self, pipeline_dir):
        edges = (pipeline_dir / "edges.tsv").read_text().strip().splitlines()
        assert all(len(line.split("\t")) == 2 for line in edges)
        feats = np.loadtxt(pipeline_dir / "features.txt")
        assert feats.shape == (16, 2)
        labels = np.loadtxt(pipeline_dir / "labels.txt", dtype=int)
        assert labels.tolist() == [0] * 8 + [1] * 8

    def test_embedding_artifacts(self, pipeline_dir):
        meta, arrays = read_blob(pipeline_dir / "embedding.bin")
        assert meta["kind"] == "embedding"
        assert arrays["values"].shape == (16, 4)
        meta2, _ = read_blob(pipeline_dir / "embed_model.bin")
        assert meta2["kind"] == "embed-model"
        lines = (pipeline_dir / "embed_losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3  # header + 2 epochs

    def test_attacker_artifacts(self, pipeline_dir):
        meta, _ = read_blob(pipeline_dir / "attacker.bin")
        assert meta["kind"] == "attacker"
        rewards = (pipeline_dir / "episode_rewards.csv").read_text().splitlines()
        assert len(rewards) == 3  # header + 2 episodes

    def test_attack_edits(self, pipeline_dir):
        doc = read_json(pipeline_dir / "attack_edits.json")
        assert doc["budget"] == 2
        assert len(doc["targets"]) == 3
        for row in doc["targets"]:
            assert row["graph_distance"] <= 2
            assert all(sign in ("add", "delete") for _, _, sign in row["edits"])

    def test_report_and_curves(self, pipeline_dir):
        report = read_json(pipeline_dir / "report.json")
        assert {c["attacker"] for c in report["cells"]} == \
            {"dqn", "random", "degree"}
        assert {c["budget"] for c in report["cells"]} == {1, 2}
        assert "timings" not in report
        timings = read_json(pipeline_dir / "timings.json")
        assert all(v >= 0 for v in timings.values())
        curves = (pipeline_dir / "da_curves.csv").read_text().splitlines()
        assert curves[0] == "victim,attacker,budget,da_percent"
        assert len(curves) == 1 + 6  # 3 attackers x 2 budgets

    def test_correlations(self, pipeline_dir):
        doc = read_json(pipeline_dir / "correlations.json")
        names = [row["property"] for row in doc["properties"]]
        assert names == ["feature_similarity", "degree", "local_clustering",
                         "reverse_knn_rank"]
        assert len(doc["per_target"]) == 2

    def test_oracle_comparison(self, pipeline_dir):
        doc = read_json(pipeline_dir / "oracle_comparison.json")
        methods = [row["method"] for row in doc["rows"]]
        assert methods == sorted(methods)
        assert {"brute_force", "greedy", "random", "degree", "dqn"} <= set(methods)
        brute = next(r for r in doc["rows"] if r["method"] == "brute_force")
        others = [r for r in doc["rows"] if r["method"] != "brute_force"]
        # the exhaustive search bounds every other method in graph space
        for row in others:
            assert row["mean_graph_distortion"] <= \
                brute["mean_graph_distortion"] + 1e-12
        timings = read_json(pipeline_dir / "oracle_timings.json")
        assert set(timings) == set(methods)

    def test_config_snapshot_reproduces_run(self, pipeline_dir):
        parsed = parse_config_text((pipeline_dir / "config.txt").read_text())
        cfg = RunConfig(**parsed)
        assert cfg.sbm_blocks == "8,8"
        assert cfg.out_dir == str(pipeline_dir)
        # every field survives the round trip
        assert len(parsed) == len(dataclasses.fields(RunConfig))


class TestReproducibility:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train-embed", "-o", str(out), *TINY]) == 0
        assert (a / "embedding.bin").read_bytes() == \
            (b / "embedding.bin").read_bytes()
        assert (a / "embed_model.bin").read_bytes() == \
            (b / "embed_model.bin").read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train-embed", "-o", str(a), *TINY]) == 0
        assert main(["train-embed", "-o", str(b), *TINY,
                     "--set", "seed=1"]) == 0
        assert (a / "embedding.bin").read_bytes() != \
            (b / "embedding.bin").read_bytes()


class TestAttackTargets:
    def test_explicit_targets(self, pipeline_dir, tmp_path):
        out = tmp_path / "explicit"
        code = main(["attack", "-o", str(out), *TINY, "--targets", "1,5"])
        # attacker.bin lives in the pipeline dir, not the fresh one
        assert code == 3
        code = main(["attack", "-o", str(pipeline_dir), *TINY,
                     "--targets", "1,5"])
        assert code == 0
        doc = read_json(pipeline_dir / "attack_edits.json")
        assert [row["target"] for row in doc["targets"]] == [1, 5]

    def test_out_of_range_target(self, pipeline_dir):
        code = main(["attack", "-o", str(pipeline_dir), *TINY,
                     "--targets", "99"])
        assert code == 3
