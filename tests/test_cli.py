"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.io import load_mvag


class TestProfilesCommand:
    def test_lists_paper_datasets(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("rm", "yelp", "mag_phy"):
            assert name in out

    def test_all_flag_includes_small(self, capsys):
        main(["profiles", "--all"])
        out = capsys.readouterr().out
        assert "yelp_small" in out


class TestGenerateCommand:
    def test_writes_npz(self, tmp_path, capsys):
        out_path = tmp_path / "data.npz"
        code = main(
            ["generate", "--profile", "yelp_small", "--out", str(out_path)]
        )
        assert code == 0
        mvag = load_mvag(out_path)
        assert mvag.n_nodes == 400

    def test_unknown_profile_errors(self, tmp_path, capsys):
        code = main(
            ["generate", "--profile", "nope", "--out", str(tmp_path / "x.npz")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_profile_by_name(self, capsys):
        code = main(["cluster", "rm", "--method", "equal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "acc" in out
        assert "view weights" in out

    def test_cluster_from_file_with_output(self, tmp_path, capsys):
        data = tmp_path / "data.npz"
        labels_path = tmp_path / "labels.npy"
        main(["generate", "--profile", "yelp_small", "--out", str(data)])
        code = main(
            ["cluster", str(data), "--method", "sgla+", "--out",
             str(labels_path)]
        )
        assert code == 0
        labels = np.load(labels_path)
        assert labels.shape == (400,)

    def test_graph_agg_has_no_weights_line(self, capsys):
        code = main(["cluster", "rm", "--method", "graph-agg"])
        assert code == 0
        assert "view weights" not in capsys.readouterr().out

    def test_lanczos_backend_and_tol_ladder(self, capsys):
        """The tolerance ladder is on by default: an iterative-backend
        run goes through it without any flag."""
        code = main(
            ["cluster", "rm", "--method", "sgla",
             "--eigen-backend", "lanczos"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "view weights" in out
        assert "eigensolves" in out  # solver stats line

    def test_tol_ladder_flag_removed(self):
        with pytest.raises(SystemExit):
            main(["cluster", "rm", "--method", "sgla", "--tol-ladder"])

    def test_shard_backend_flag_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "rm", "--shard-backend", "process"])
        assert excinfo.value.code == 2

    def test_batch_eigen_backend_removed(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "rm", "--eigen-backend", "batch"])
        assert excinfo.value.code == 2


class TestEmbedCommand:
    def test_embed_profile(self, tmp_path, capsys):
        emb_path = tmp_path / "emb.npy"
        code = main(
            ["embed", "rm", "--dim", "16", "--backend", "sketchne",
             "--out", str(emb_path)]
        )
        assert code == 0
        embedding = np.load(emb_path)
        assert embedding.shape == (91, 16)
        out = capsys.readouterr().out
        assert "micro_f1" in out
