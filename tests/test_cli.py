import hashlib
import json
from pathlib import Path

import numpy as np

from pamcurate.cli import _sha256, main
from pamcurate.core_model import read_manifest
from conftest import build_pipeline_fixture

GOLDEN_DIR = Path(__file__).parent / "data"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def run_pipeline(fixture, out: Path, seed=11, workers=1, threshold=4, target_n=60):
    assert run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out) == 0
    assert (
        run(
            "curate-ais",
            "--config", fixture["config"],
            "--aligned", out / "aligned.csv",
            "--seed", seed,
            "--threshold", threshold,
            "--out", out,
        )
        == 0
    )
    assert (
        run(
            "fit",
            "--shards", *fixture["shards"],
            "--levels", "8,2",
            "--seed", seed,
            "--batch-size", "64",
            "--passes", "2",
            "--resample-rounds", "2",
            "--out", out,
        )
        == 0
    )
    assert (
        run(
            "sample",
            "--config", fixture["config"],
            "--model", out / "model.bin",
            "--shards", *fixture["shards"],
            "--target-n", target_n,
            "--workers", workers,
            "--out", out,
        )
        == 0
    )
    assert (
        run(
            "assemble",
            "--ais-manifest", out / "manifest_ais.txt",
            "--hkmeans-manifest", out / "manifest_hkmeans.txt",
            "--out", out,
        )
        == 0
    )
    assert (
        run(
            "stats",
            "--config", fixture["config"],
            "--aligned", out / "aligned.csv",
            "--out", out,
        )
        == 0
    )


class TestAlign:
    def test_empty_ais_file(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        (tmp_path / "empty.csv").write_text("MMSI,BaseDateTime,LAT,LON\n")
        out = tmp_path / "out"
        assert run("align", "--config", fixture["config"], "--ais", tmp_path / "empty.csv", "--out", out) == 0
        assert (out / "aligned.csv").read_bytes() == b""

    def test_fixture_matches_golden_sidecar(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        assert run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out) == 0
        golden = (GOLDEN_DIR / "golden_aligned.csv").read_bytes()
        assert (out / "aligned.csv").read_bytes() == golden

    def test_malformed_rows_tolerated_and_counted(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        assert run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out) == 0
        stats = json.loads((out / "align_stats.json").read_text())
        assert stats["rejected_rows"] == 2
        assert stats["unaligned_pulses"] == 2
        assert stats["aligned_windows"] == 52

    def test_missing_input_nonzero_exit(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        code = run("align", "--config", fixture["config"], "--ais", tmp_path / "nope.csv", "--out", tmp_path / "o")
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_worker_count_does_not_change_output(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        outs = []
        for workers in (1, 3):
            out = tmp_path / f"out{workers}"
            assert (
                run(
                    "align",
                    "--config", fixture["config"],
                    "--ais", fixture["ais"],
                    "--workers", workers,
                    "--out", out,
                )
                == 0
            )
            outs.append((out / "aligned.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCurateAis:
    def test_detected_threshold_recorded(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        assert run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out) == 0
        assert (
            run(
                "curate-ais",
                "--config", fixture["config"],
                "--aligned", out / "aligned.csv",
                "--seed", 5,
                "--out", out,
            )
            == 0
        )
        stats = json.loads((out / "curate_stats.json").read_text())
        assert stats["threshold_origin"] == "detected"
        assert stats["threshold"] >= 1
        manifest = read_manifest(out / "manifest_ais.txt")
        assert all(e.source == "ais" for e in manifest.entries)

    def test_manual_threshold_wins(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        assert (
            run(
                "curate-ais",
                "--config", fixture["config"],
                "--aligned", out / "aligned.csv",
                "--seed", 5,
                "--threshold", 100,
                "--out", out,
            )
            == 0
        )
        stats = json.loads((out / "curate_stats.json").read_text())
        assert stats["threshold"] == 100 and stats["threshold_origin"] == "manual"
        # t above every occurrence: identity regime
        assert stats["retained_windows"] == stats["aligned_windows"]


class TestFullPipeline:
    def test_end_to_end_counts_and_golden_manifest(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_pipeline(fixture, out)
        summary = json.loads((out / "summary.json").read_text())
        sample_stats = json.loads((out / "sample_stats.json").read_text())
        assert sample_stats["selected"] == 60
        assert summary["hkmeans_entries"] <= 60
        assert summary["total_entries"] == summary["ais_entries"] + summary["hkmeans_entries"]
        golden = (GOLDEN_DIR / "golden_manifest.txt").read_bytes()
        assert (out / "manifest.txt").read_bytes() == golden

    def test_replay_bit_identical(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(fixture, out_a)
        run_pipeline(fixture, out_b)
        for name in ("aligned.csv", "manifest_ais.txt", "model.bin", "manifest_hkmeans.txt", "manifest.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        rec_a = json.loads((out_a / "assemble_run.json").read_text())
        rec_b = json.loads((out_b / "assemble_run.json").read_text())
        assert sorted(rec_a["outputs"].values()) == sorted(rec_b["outputs"].values())

    def test_rerun_into_same_dir_idempotent(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_pipeline(fixture, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_pipeline(fixture, out)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_sample_checkpoint_resume_idempotent(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_pipeline(fixture, out)
        ckpt = tmp_path / "sel.ckpt"
        args = [
            "sample",
            "--config", fixture["config"],
            "--model", out / "model.bin",
            "--shards", *fixture["shards"],
            "--target-n", 60,
            "--checkpoint", ckpt,
            "--out", tmp_path / "ck1",
        ]
        assert run(*args) == 0
        first = (tmp_path / "ck1" / "manifest_hkmeans.txt").read_bytes()
        assert first == (out / "manifest_hkmeans.txt").read_bytes()
        # second run resumes from the finished checkpoint and skips all shards
        args[-1] = tmp_path / "ck2"
        assert run(*args) == 0
        assert (tmp_path / "ck2" / "manifest_hkmeans.txt").read_bytes() == first


class TestStats:
    def test_occurrence_curve_descending_and_hydrophones(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        assert (
            run("stats", "--config", fixture["config"], "--aligned", out / "aligned.csv", "--out", out) == 0
        )
        lines = (out / "occurrence_curve.csv").read_text().splitlines()
        ranks = [int(line.split(",")[0]) for line in lines]
        counts = [int(line.split(",")[1]) for line in lines]
        assert ranks == list(range(len(lines)))
        assert counts == sorted(counts, reverse=True)
        hydro = (out / "hydrophones.csv").read_text().splitlines()
        assert hydro == ["H1,0.0,0.0", "H2,0.5,0.5"]
        stats = json.loads((out / "stats.json").read_text())
        assert stats["ships"] == 5

    def test_stats_requires_some_input(self, tmp_path):
        assert run("stats", "--out", tmp_path / "o") == 2


class TestRunRecord:
    def test_hash_streams_large_files(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(np.random.default_rng(5).bytes(3 * (1 << 20) + 7))
        assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert _sha256(empty) == hashlib.sha256(b"").hexdigest()
