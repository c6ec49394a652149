import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pamcurate import cli, hsample
from pamcurate.cli import _sha256, main
from pamcurate.core_model import EmbeddingShard, read_manifest, read_shard, write_shard
from conftest import build_pipeline_fixture, random_shard

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

    def test_ais_cell_over_the_csv_field_limit_is_a_located_error(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        ais = tmp_path / "big.csv"
        text = Path(fixture["ais"]).read_text()
        ais.write_text(text + "366000001,2023-06-01T00:00:05,0.0," + "1" * 200_000 + "\n")
        code = run("align", "--config", fixture["config"], "--ais", ais, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        line = len(text.splitlines()) + 1
        assert err.startswith("error: bad AIS CSV") and f"({ais}, offset {line})" in err and "Traceback" not in err

    def test_worker_count_does_not_change_output(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        outs = []
        stats = []
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
            stats.append((out / "align_stats.json").read_bytes())
        assert outs[0] == outs[1]
        assert stats[0] == stats[1]

    def test_infinite_vessel_type_counted_as_rejected(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        ais = tmp_path / "ais.csv"
        rows = [f"300000001,2023-06-01T00:00:05,0.001,-0.001,0.0,{v}" for v in ("inf", "-inf", "1e400")]
        ais.write_text(fixture["ais"].read_text() + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run("align", "--config", fixture["config"], "--ais", ais, "--out", out) == 0
        assert json.loads((out / "align_stats.json").read_text())["rejected_rows"] == 2 + 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", "ten"),  # a string, not an integer
            ("lat", "north"),  # a string, not a number
            ("start", float("inf")),  # JSON Infinity, not an integer
            ("start", "noon"),  # not a UTC timestamp: ValidationError
            ("start", True),  # a bool, not an integer
            ("duration_s", True),
            ("duration_s", 2000.9),  # a float, not an integer
            ("duration_s", "2000"),
            ("native_sample_rate_hz", 1.5),
            ("lat", "10.0"),
            ("lat", True),
            ("id", "R 1"),  # recording id with a space: ValidationError
            ("hydrophone", "H1"),  # a string, not an object: AttributeError
            ("bytes", b"\xff\xfe{}"),  # not UTF-8: UnicodeDecodeError
        ],
    )
    def test_bad_deployment_config_is_a_located_error(self, tmp_path, capsys, field, value):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        doc = json.loads(fixture["config"].read_text())
        hydrophone = doc["hydrophones"][0]
        if field in ("duration_s", "start", "id", "native_sample_rate_hz"):
            hydrophone["recordings"][0][field] = value
        elif field == "hydrophone":
            doc["hydrophones"][0] = value
        else:
            hydrophone[field] = value
        config = tmp_path / "bad.json"
        config.write_bytes(value if field == "bytes" else json.dumps(doc).encode())
        out = tmp_path / "out"
        assert run("align", "--config", config, "--ais", fixture["ais"], "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad deployment config") and str(config) in err

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        code = run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--workers", workers, "--out", out)
        assert code == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side_km", ["0", "-2", "nan", "inf"])
    def test_bad_side_km_rejected_before_any_write(self, tmp_path, capsys, side_km):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        code = run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--side-km", side_km, "--out", out)
        assert code == 2
        assert f"side_km must be positive and finite, got {float(side_km)}" in capsys.readouterr().err
        assert not out.exists()

    def test_side_km_too_large_for_the_fence_rejected_before_any_write(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        code = run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--side-km", "1e306", "--out", out)
        assert code == 2
        assert "side_km 1e+306 too large" in capsys.readouterr().err
        assert not out.exists()


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
        assert set(manifest.rows["source"]) == {"ais"}

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


    @pytest.mark.parametrize("mmsi", [-5, 0, 2**70])
    def test_sidecar_mmsi_out_of_range_is_a_located_error(self, tmp_path, capsys, mmsi):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        sidecar = out / "aligned.csv"
        wid = sidecar.read_text().split(",")[0]
        sidecar.write_text(f"{wid},{mmsi}\n")
        argv = ["--config", fixture["config"], "--aligned", sidecar, "--seed", 1, "--threshold", 1, "--out", out]
        assert run("curate-ais", *argv) == 2
        assert "bad sidecar line" in capsys.readouterr().err

    def test_undecodable_sidecar_byte_is_a_located_error(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        sidecar = out / "aligned.csv"
        sidecar.write_bytes(sidecar.read_bytes() + b"1,2\xff\n")
        lines = len(sidecar.read_bytes().splitlines())
        argv = ["--config", fixture["config"], "--aligned", sidecar, "--seed", 1, "--out", out / "c"]
        assert run("curate-ais", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad sidecar line") and f"offset {lines}" in err and "Traceback" not in err

    def test_negative_seed_rejected_before_any_write(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        argv = ["--config", fixture["config"], "--aligned", out / "aligned.csv", "--seed", -1, "--out", out / "c"]
        assert run("curate-ais", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must be at least 0, got -1") and "Traceback" not in err
        assert not (out / "c").exists()


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

    @pytest.mark.parametrize("stage", ["align", "curate-ais", "fit", "sample", "assemble", "stats"])
    def test_malformed_input_leaves_no_out_dir(self, tmp_path, capsys, stage):
        """A stage makes ``--out`` only once it has read its inputs: one that
        fails on a malformed input leaves none behind, and with the input
        mended it runs into a new one, a checkpoint inside it included."""
        fixture = build_pipeline_fixture(tmp_path / "fx")
        done, out, bad = tmp_path / "done", tmp_path / "out", tmp_path / "bad"
        run_pipeline(fixture, done)
        config, (shard, *shards) = fixture["config"], fixture["shards"]
        fit = ["--levels", "8,2", "--seed", 1, "--batch-size", 64, "--passes", 2, "--resample-rounds", 2]
        # stage -> (the kind of input it gets bad, the good one, its flags)
        kind, good, argv = {
            "align": ("ais", fixture["ais"], ["--config", config, "--ais", bad]),
            "curate-ais": ("sidecar", done / "aligned.csv", ["--config", config, "--aligned", bad, "--seed", 1]),
            "fit": ("shard", shard, ["--shards", bad, *shards, *fit]),
            "sample": (
                "shard",
                shard,
                ["--config", config, "--model", done / "model.bin", "--shards", bad, *shards, "--target-n", 60]
                + ["--checkpoint", out / "sel.ckpt"],
            ),
            "assemble": (
                "manifest",
                done / "manifest_hkmeans.txt",
                ["--ais-manifest", done / "manifest_ais.txt", "--hkmeans-manifest", bad],
            ),
            "stats": ("sidecar", done / "aligned.csv", ["--config", config, "--aligned", bad]),
        }[stage]
        data = good.read_bytes()
        lines = data.count(b"\n")
        # kind -> (the bad input, its error, the error's offset)
        broken, message, offset = {
            "ais": (data.replace(b"LAT,", b"LATITUDE,", 1), "AIS CSV missing columns ['LAT']", 1),
            "shard": (b"PAMEMB00" + data[8:], "bad magic", 0),
            "sidecar": (data + b"1,0\n", "bad sidecar line '1,0'", lines + 1),
            "manifest": (data + b"window_id=1\n", "bad manifest line 'window_id=1'", lines + 1),
        }[kind]
        bad.write_bytes(broken)
        assert run(stage, *argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and f"({bad}, offset {offset})" in err
        assert not out.exists()
        bad.write_bytes(data)
        assert run(stage, *argv, "--out", out) == 0
        assert (out / f"{stage.replace('-', '_')}_run.json").exists()


class TestSampleContract:
    """``sample`` outputs depend only on the inputs: never on ``--workers``
    or on whether the run was checkpointed."""

    OUTPUTS = ("manifest_hkmeans.txt", "sample_stats.json")

    @pytest.fixture
    def setup(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_pipeline(fixture, out)
        return fixture, out

    @staticmethod
    def sample(fixture, out, dest, *extra, shards=None, target_n=60):
        args = ["sample", "--config", fixture["config"], "--model", out / "model.bin"]
        args += ["--shards", *(shards or fixture["shards"]), "--target-n", target_n, *extra, "--out", dest]
        assert run(*args) == 0
        return json.loads((dest / "sample_stats.json").read_text())

    def test_worker_count_and_checkpoint_do_not_change_outputs(self, setup, tmp_path):
        fixture, out = setup
        # The fixture's leaf populations are 55, 55, 61, 7, 11, 34, 85, 92: at
        # 60 every quota is below its population, and at 150 water-filling
        # takes the leaves of 7 and 11 whole.
        for target, reference, capped in ((60, out, 0), (150, tmp_path / "w1-150", 2)):
            runs = {f"w{w}": ("--workers", w) for w in (1, 2, 3)}
            runs["ckpt"] = ("--checkpoint", tmp_path / f"sel-{target}.ckpt")
            runs["w2ckpt"] = ("--workers", 2, "--checkpoint", tmp_path / f"sel2-{target}.ckpt")
            for name, extra in runs.items():
                stats = self.sample(fixture, out, tmp_path / f"{name}-{target}", *extra, target_n=target)
                assert stats["evictions"] == stats["processed_records"] - stats["selected"]
                assert stats["capped_leaves"] == capped
            for name in runs:
                assert {f: (tmp_path / f"{name}-{target}" / f).read_bytes() for f in self.OUTPUTS} == {
                    f: (reference / f).read_bytes() for f in self.OUTPUTS
                }, name

    @pytest.mark.parametrize("workers, checkpoint", [(0, False), (-3, False), (0, True)])
    def test_workers_below_one_rejected(self, setup, tmp_path, capsys, workers, checkpoint):
        fixture, out = setup
        dest, ckpt = tmp_path / "s", tmp_path / "sel.ckpt"
        args = ["sample", "--config", fixture["config"], "--model", out / "model.bin", "--shards", *fixture["shards"]]
        args += ["--target-n", 60, "--workers", workers, *(["--checkpoint", ckpt] if checkpoint else []), "--out", dest]
        assert run(*args) == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not dest.exists() and not ckpt.exists()

    @pytest.mark.parametrize("target_n", [0, -5])
    def test_target_below_one_rejected_before_any_read_or_write(self, setup, tmp_path, capsys, monkeypatch, target_n):
        fixture, out = setup
        monkeypatch.setattr(cli, "read_shard", lambda path: pytest.fail(f"read {path}"))
        dest = tmp_path / "s"
        args = ["sample", "--config", fixture["config"], "--model", out / "model.bin", "--shards", *fixture["shards"]]
        assert run(*args, "--target-n", target_n, "--out", dest) == 2
        assert f"--target-n must be at least 1, got {target_n}" in capsys.readouterr().err
        assert not dest.exists()

    def test_window_id_selected_in_two_leaves_is_an_error(self, setup, tmp_path, capsys):
        """A window id with two vectors in the shards can be held in two
        leaves, one per vector; the manifest cannot hold it twice."""
        fixture, out = setup
        shard = read_shard(fixture["shards"][0])
        twin = tmp_path / "twin.bin"
        write_shard(EmbeddingShard(dim=shard.dim, window_ids=shard.window_ids, vectors=-shard.vectors), twin)
        args = ["sample", "--config", fixture["config"], "--model", out / "model.bin"]
        args += ["--shards", *fixture["shards"], twin, "--target-n", 1000, "--out", tmp_path / "s"]
        assert run(*args) == 2
        pattern = r"error: window id (\d+) is selected in leaves (\d+) and (\d+): the shards hold two vectors for it\n"
        window_id, leaf, other = map(int, re.fullmatch(pattern, capsys.readouterr().err).groups())
        assert window_id in shard.window_ids.tolist() and leaf != other
        assert not (tmp_path / "s" / "manifest_hkmeans.txt").exists()

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_failed_selection_leaves_no_out_dir(self, setup, tmp_path, capsys, checkpoint):
        """``sample`` makes ``--out`` only after ``emit``: a run that fails
        there leaves nothing behind, or only the checkpoint it wrote, whose
        directory is made just before the first checkpoint write."""
        fixture, out = setup
        shard = read_shard(fixture["shards"][0])
        twin = tmp_path / "twin.bin"
        write_shard(EmbeddingShard(dim=shard.dim, window_ids=shard.window_ids, vectors=-shard.vectors), twin)
        dest = tmp_path / "s"
        extra = ["--checkpoint", dest / "sel.ckpt"] if checkpoint else []
        args = ["sample", "--config", fixture["config"], "--model", out / "model.bin"]
        args += ["--shards", *fixture["shards"], twin, "--target-n", 1000, *extra, "--out", dest]
        assert run(*args) == 2
        assert "is selected in leaves" in capsys.readouterr().err
        if checkpoint:
            assert [p.name for p in dest.iterdir()] == ["sel.ckpt"]
            assert len(hsample.load_checkpoint(dest / "sel.ckpt").shard_digests) == 4
        else:
            assert not dest.exists()

    @pytest.mark.parametrize("mode", ["workers1", "workers2", "checkpoint", "resume"])
    def test_shard_of_another_dim_is_a_located_error(self, setup, tmp_path, capsys, mode):
        """An 8-dim shard among the model's 6-dim ones fails the population
        pass, before quotas, the checkpoint or ``--out``: a resumed journal
        keeps its bytes, and a new one is never begun."""
        fixture, out = setup
        bad, ckpt, dest = tmp_path / "bad.bin", tmp_path / "ckpt" / "sel.ckpt", tmp_path / "s"
        write_shard(random_shard(np.random.default_rng(0), 20, 8), bad)
        shards = [fixture["shards"][0], bad, *fixture["shards"][1:]]
        extra = {"workers1": ("--workers", 1), "workers2": ("--workers", 2)}.get(mode, ("--checkpoint", ckpt))
        if mode == "resume":
            self.sample(fixture, out, tmp_path / "first", "--checkpoint", ckpt)
            shards, before = [*fixture["shards"], bad], ckpt.read_bytes()
        args = ["sample", "--config", fixture["config"], "--model", out / "model.bin"]
        assert run(*args, "--shards", *shards, "--target-n", 60, *extra, "--out", dest) == 2
        assert capsys.readouterr().err == f"error: shard dim 8 != 6 of the model ({bad}, offset 8)\n"
        assert not dest.exists()
        if mode == "resume":
            assert ckpt.read_bytes() == before
        else:
            assert not ckpt.parent.exists()

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_window_ids_repeated_across_shards_are_an_error(self, tmp_path, capsys, checkpoint):
        """A leaf's population counts a window id once per shard that holds
        it, and its selection once: a quota that only repeats can fill is
        refused, never met with a shorter manifest."""
        fixture = build_pipeline_fixture(tmp_path / "fx")
        model = tmp_path / "model" / "model.bin"
        assert run("fit", "--shards", *fixture["shards"], "--levels", "8,2", "--seed", 0, "--out", model.parent) == 0
        first = read_shard(fixture["shards"][0]).window_ids
        dest = tmp_path / "s"
        args = ["sample", "--config", fixture["config"], "--model", model, "--shards", *fixture["shards"]]
        args += [fixture["shards"][0]]

        def checkpointed(target_n):
            return ["--checkpoint", tmp_path / f"ckpt{target_n}" / "sel.ckpt"] if checkpoint else []

        assert run(*args, "--target-n", 200, *checkpointed(200), "--out", dest) == 2
        assert capsys.readouterr().err == (
            "error: selected 183 windows, fewer than the quota total 200: "
            f"{len(first)} window ids are in more than one shard, the first {sorted(first.tolist())[:5]}\n"
        )
        assert not dest.exists()
        assert run(*args, "--target-n", 100, *checkpointed(100), "--out", dest) == 0
        stats = json.loads((dest / "sample_stats.json").read_text())
        assert stats["selected"] == stats["quota_total"] == 100


class TestPartitioned:
    def test_align_and_sample_outputs_do_not_depend_on_many_workers(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        ref = tmp_path / "ref"
        run_pipeline(fixture, ref)
        outputs = {}
        for workers in (1, 50):
            out = tmp_path / f"w{workers}"
            argv = ["align", "--config", fixture["config"], "--ais", fixture["ais"], "--workers", workers]
            assert run(*argv, "--out", out) == 0
            argv = ["sample", "--config", fixture["config"], "--model", ref / "model.bin", "--shards", *fixture["shards"]]
            assert run(*argv, "--target-n", 60, "--workers", workers, "--out", out) == 0
            names = ("aligned.csv", "align_stats.json", "manifest_hkmeans.txt", "sample_stats.json")
            outputs[workers] = {name: (out / name).read_bytes() for name in names}
        assert outputs[1] == outputs[50]


class Crash(BaseException):
    """Stands in for the process dying: nothing in the program catches it."""


class TestCheckpointCrashResume:
    """A checkpointed ``sample`` killed during or right after any checkpoint
    append resumes to the outputs and the journal of an uninterrupted run."""

    OUTPUTS = ("manifest_hkmeans.txt", "sample_stats.json")

    @pytest.fixture
    def setup(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_pipeline(fixture, out)
        expected = {name: (out / name).read_bytes() for name in self.OUTPUTS}
        return fixture, out, expected

    @pytest.fixture
    def journal(self, setup, tmp_path):
        """The checkpoint an uninterrupted run leaves."""
        fixture, out, expected = setup
        ckpt = tmp_path / "whole.ckpt"
        assert run(*self.sample_args(fixture, out, ckpt, tmp_path / "whole")) == 0
        assert {name: (tmp_path / "whole" / name).read_bytes() for name in self.OUTPUTS} == expected
        return ckpt.read_bytes()

    @staticmethod
    def sample_args(fixture, out, ckpt, dest, shards=None):
        return [
            "sample",
            "--config", fixture["config"],
            "--model", out / "model.bin",
            "--shards", *(shards or fixture["shards"]),
            "--target-n", 60,
            "--checkpoint", ckpt,
            "--out", dest,
        ]

    @staticmethod
    def crash_at(monkeypatch, k, inside):
        """Crash in the k-th checkpoint append, once half its bytes are on
        disk, or right after the k-th ``save_checkpoint`` returns."""
        writes = 0
        if inside:
            real_append = hsample.append_durable

            def append(path, data, end):
                nonlocal writes
                writes += 1
                if writes == k:
                    real_append(path, data[: len(data) // 2], end)
                    raise Crash()
                return real_append(path, data, end)

            monkeypatch.setattr(hsample, "append_durable", append)
        else:
            real_save = hsample.save_checkpoint

            def save(*args):
                nonlocal writes
                end = real_save(*args)
                writes += 1
                if writes == k:
                    raise Crash()
                return end

            monkeypatch.setattr(hsample, "save_checkpoint", save)

    @pytest.mark.parametrize("inside", [True, False], ids=["during", "after"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resume_after_crash_equals_uninterrupted_run(self, setup, journal, tmp_path, monkeypatch, k, inside):
        fixture, out, expected = setup
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        ckpt = ckpt_dir / "sel.ckpt"
        args = self.sample_args(fixture, out, ckpt, tmp_path / "resumed")
        with monkeypatch.context() as patch:
            self.crash_at(patch, k, inside)
            with pytest.raises(Crash):
                run(*args)
        # a crash inside append k leaves the records of the k - 1 before it and a torn tail
        assert len(hsample.load_checkpoint(ckpt).shard_digests) == k - inside
        assert len(ckpt.read_bytes()) < len(journal) or (k, inside) == (3, False)
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["sel.ckpt"]
        assert run(*args) == 0
        assert {name: (tmp_path / "resumed" / name).read_bytes() for name in self.OUTPUTS} == expected
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["sel.ckpt"]
        assert ckpt.read_bytes() == journal

    def test_crash_at_every_byte_of_the_last_append(self, setup, journal, tmp_path):
        """Cut the journal at every byte of its last record: each resumed run
        folds the last shard again and leaves the uninterrupted run's bytes."""
        fixture, out, expected = setup
        ckpt = tmp_path / "sel.ckpt"
        ckpt.write_bytes(journal[:-1])
        last = hsample.load_checkpoint(ckpt).journal_end
        assert len(hsample.load_checkpoint(ckpt).shard_digests) == 2 and len(journal) - last > 100
        for cut in range(last, len(journal)):
            ckpt.write_bytes(journal[:cut])
            dest = tmp_path / f"resumed-{cut % 2}"
            assert run(*self.sample_args(fixture, out, ckpt, dest)) == 0, cut
            assert {name: (dest / name).read_bytes() for name in self.OUTPUTS} == expected, cut
            assert ckpt.read_bytes() == journal, cut

    def test_crash_in_the_header_write_leaves_no_checkpoint(self, setup, journal, tmp_path, monkeypatch):
        fixture, out, expected = setup
        ckpt_dir = tmp_path / "ckpt"
        ckpt = ckpt_dir / "sel.ckpt"
        args = self.sample_args(fixture, out, ckpt, tmp_path / "resumed")
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == ckpt:
                raise Crash()
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace)
            with pytest.raises(Crash):
                run(*args)
        assert list(ckpt_dir.iterdir()) == []
        assert run(*args) == 0
        assert {name: (tmp_path / "resumed" / name).read_bytes() for name in self.OUTPUTS} == expected
        assert ckpt.read_bytes() == journal

    def test_resume_with_other_shards_is_refused(self, setup, tmp_path, monkeypatch):
        fixture, out, _ = setup
        ckpt = tmp_path / "sel.ckpt"
        with monkeypatch.context() as patch:
            self.crash_at(patch, 2, inside=True)
            with pytest.raises(Crash):
                run(*self.sample_args(fixture, out, ckpt, tmp_path / "s"))
        # one whole record and a torn one, which a refused resume must not cut
        before = ckpt.read_bytes()
        assert hsample.load_checkpoint(ckpt).journal_end < len(before)
        reordered = list(reversed(fixture["shards"]))
        assert run(*self.sample_args(fixture, out, ckpt, tmp_path / "s", shards=reordered)) == 2
        # the finished shard, rewritten with other vectors
        finished = read_shard(fixture["shards"][0])
        write_shard(EmbeddingShard(finished.dim, finished.window_ids, finished.vectors[::-1]), fixture["shards"][0])
        assert run(*self.sample_args(fixture, out, ckpt, tmp_path / "s")) == 2
        assert ckpt.read_bytes() == before
        assert not (tmp_path / "s" / "manifest_hkmeans.txt").exists()

    def test_digests_are_of_the_bytes_folded(self, setup, tmp_path, monkeypatch):
        """A shard still to fold is hashed from the bytes ``read_shard``
        parsed, not by reading its file once more; a shard the resumed
        checkpoint already holds is hashed from its file."""
        fixture, out, expected = setup
        shards = [Path(p) for p in fixture["shards"]]
        ckpt = tmp_path / "sel.ckpt"
        args = self.sample_args(fixture, out, ckpt, tmp_path / "resumed")
        with monkeypatch.context() as patch:
            self.crash_at(patch, 1, inside=False)
            with pytest.raises(Crash):
                run(*args)
        hashed, reads = [], []
        real_sha256, real_read = cli._sha256, cli.read_shard
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(Path(path)) or real_sha256(path))
        monkeypatch.setattr(cli, "read_shard", lambda path, *data: reads.append(bool(data)) or real_read(path, *data))
        assert run(*args) == 0
        assert {name: (tmp_path / "resumed" / name).read_bytes() for name in self.OUTPUTS} == expected
        # the done shard for the check and the run record, the others for the record only
        assert [p for p in hashed if p in shards] == [shards[0], *shards]
        # the population pass reads every shard, the selection only the two
        # not done, and every read parses the bytes it read once
        assert reads == [True] * (len(shards) + 2)
        digests = [hashlib.sha256(p.read_bytes()).digest() for p in shards]
        assert hsample.load_checkpoint(ckpt).shard_digests == digests

    def test_resume_with_fewer_shards_is_refused(self, setup, tmp_path, capsys):
        fixture, out, _ = setup
        ckpt = tmp_path / "sel.ckpt"
        assert run(*self.sample_args(fixture, out, ckpt, tmp_path / "s")) == 0
        before = ckpt.read_bytes()
        assert run(*self.sample_args(fixture, out, ckpt, tmp_path / "s2", shards=fixture["shards"][:2])) == 2
        assert "was written for other shards, --shards order or quotas" in capsys.readouterr().err
        assert ckpt.read_bytes() == before
        assert not (tmp_path / "s2").exists()

    def test_resume_with_other_quotas_is_refused(self, setup, tmp_path):
        fixture, out, _ = setup
        ckpt = tmp_path / "sel.ckpt"
        args = self.sample_args(fixture, out, ckpt, tmp_path / "s")
        assert run(*args) == 0
        before = ckpt.read_bytes()
        # every shard is done, so nothing but the quota check sees the new target
        args[args.index("--target-n") + 1] = 30
        args[-1] = tmp_path / "s30"
        assert run(*args) == 2
        assert not (tmp_path / "s30" / "manifest_hkmeans.txt").exists()
        assert ckpt.read_bytes() == before

    def test_oversized_leaf_count_is_an_error_not_a_traceback(self, setup, tmp_path, capsys):
        fixture, out, _ = setup
        ckpt = tmp_path / "sel.ckpt"
        ckpt.write_bytes(hsample.CHECKPOINT_MAGIC + struct.pack("<IQQ", hsample.CHECKPOINT_VERSION, 2**62, 0))
        assert run(*self.sample_args(fixture, out, ckpt, tmp_path / "s")) == 2
        assert capsys.readouterr().err.startswith("error: leaf count")


class TestFit:
    def test_shard_dim_too_wide_for_numpy_is_an_error_not_a_traceback(self, tmp_path, capsys):
        shard = tmp_path / "wide.bin"
        shard.write_bytes(b"PAMEMB01" + struct.pack("<IQ", 2**31, 0))
        assert run("fit", "--shards", shard, "--levels", "2", "--seed", "0", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error: dim 2147483648 outside 1..536870909")

    @pytest.mark.parametrize(
        "flags, bad_rows",
        [((), 500), (("--batch-size", 64), 500), ((), 0)],
        ids=["inside-seeding-prefix", "after-seeding-prefix", "empty"],
    )
    def test_shard_of_another_dim_is_a_located_error(self, tmp_path, capsys, flags, bad_rows):
        """Every shard has the first shard's dim.  At the default batch size
        seeding reads both shards; at 64 it reads 64 rows of the first."""
        rng = np.random.default_rng(0)
        good, bad, out = tmp_path / "good.bin", tmp_path / "bad.bin", tmp_path / "out"
        write_shard(random_shard(rng, 500, 16), good)
        write_shard(random_shard(rng, bad_rows, 8), bad)
        assert run("fit", "--shards", good, bad, "--levels", "4,2", "--seed", 0, *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shard dim 8 != 16 of the first shard") and f"({bad}, offset 8)" in err
        assert not out.exists()

    def test_zero_vector_is_a_located_error(self, tmp_path, capsys):
        """A zero vector cannot be normalized; it is a fault of the shard,
        named with the record's offset, in ``fit`` and in ``sample``."""
        rng = np.random.default_rng(0)
        good, bad, out = tmp_path / "good.bin", tmp_path / "bad.bin", tmp_path / "out"
        write_shard(random_shard(rng, 100, 4), good)
        write_shard(random_shard(rng, 100, 4), bad)
        data = bytearray(bad.read_bytes())
        data[20 + 30 * 24 + 8 : 20 + 31 * 24] = bytes(16)  # the vector of record 30
        bad.write_bytes(bytes(data))
        fit = ["fit", "--shards", good, bad, "--levels", "4,2", "--seed", 0, "--batch-size", 64]
        assert run(*fit, "--out", out) == 2
        assert capsys.readouterr().err == f"error: record 30 has a zero vector ({bad}, offset 740)\n"
        assert not out.exists()
        fixture = build_pipeline_fixture(tmp_path / "fx")
        assert run(*fit[:2], good, *fit[4:], "--out", tmp_path / "model") == 0
        sample = ["sample", "--config", fixture["config"], "--model", tmp_path / "model" / "model.bin"]
        ckpt = tmp_path / "ckpt" / "sel.ckpt"
        sample += ["--shards", good, bad, "--target-n", 10, "--checkpoint", ckpt, "--out", out]
        assert run(*sample) == 2
        assert capsys.readouterr().err == f"error: record 30 has a zero vector ({bad}, offset 740)\n"
        assert not out.exists() and not ckpt.parent.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--passes", 0), "passes must be >= 1"),
            (("--batch-size", 0), "batch_size must be >= 1"),
            (("--resample-rounds", -1), "resample_rounds must be >= 0"),
            (("--levels", "8,8"), "level_ks must strictly decrease"),
            (("--levels", "8,x"), "bad --levels value"),
            (("--seed", -1), "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_fit_config_rejected_before_any_write(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        argv = ["fit", "--shards", tmp_path / "missing.bin", "--levels", "8,2", "--seed", 0, *flags, "--out", out]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()


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

    def test_deployment_loaded_once(self, tmp_path, monkeypatch):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        loads = []
        real = cli.load_deployment
        monkeypatch.setattr(cli, "load_deployment", lambda path: loads.append(path) or real(path))
        assert run("stats", "--config", fixture["config"], "--aligned", out / "aligned.csv", "--out", out) == 0
        assert loads == [str(fixture["config"])]

    def test_stats_requires_some_input(self, tmp_path, capsys):
        assert run("stats", "--out", tmp_path / "o") == 2
        assert "stats needs --config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_aligned_without_config_rejected_before_any_write(self, tmp_path, capsys):
        aligned = tmp_path / "aligned.csv"
        aligned.write_text("")
        assert run("stats", "--aligned", aligned, "--out", tmp_path / "o") == 2
        assert "stats needs --config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "stage, aligned",
        [
            pytest.param("stats", True, id="stats"),
            pytest.param("stats", False, id="stats-without-aligned"),
            pytest.param("curate-ais", True, id="curate-ais"),
        ],
    )
    def test_threshold_below_one_rejected_before_any_write(self, tmp_path, capsys, stage, aligned):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run("align", "--config", fixture["config"], "--ais", fixture["ais"], "--out", out)
        argv = ["--config", fixture["config"], *(["--aligned", out / "aligned.csv"] if aligned else [])]
        argv += ["--threshold", -4, "--out", out / "t"]
        assert run(stage, *argv, *(["--seed", 1] if stage == "curate-ais" else [])) == 2
        assert "threshold must be >= 1, got -4" in capsys.readouterr().err
        assert not (out / "t").exists()


class TestRunRecord:
    def test_every_stage_records_its_stage_seed_and_flags(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_pipeline(fixture, out, seed=11)
        config, shards, at = str(fixture["config"]), [str(p) for p in fixture["shards"]], lambda name: str(out / name)
        expected = {
            "align": (None, {"config": config, "ais": str(fixture["ais"]), "side_km": 4.0, "workers": 1}),
            "curate_ais": (11, {"config": config, "aligned": at("aligned.csv"), "seed": 11, "threshold": 4}),
            "fit": (
                11,
                {"shards": shards, "levels": "8,2", "seed": 11, "batch_size": 64, "passes": 2, "resample_rounds": 2},
            ),
            "sample": (
                None,
                {"config": config, "model": at("model.bin"), "shards": shards, "target_n": 60, "workers": 1,
                 "checkpoint": None},
            ),
            "assemble": (None, {"ais_manifest": at("manifest_ais.txt"), "hkmeans_manifest": at("manifest_hkmeans.txt")}),
            "stats": (None, {"config": config, "aligned": at("aligned.csv"), "threshold": None}),
        }
        for stage, (seed, flags) in expected.items():
            record = json.loads((out / f"{stage}_run.json").read_text())
            assert record["stage"] == stage
            assert record["seed"] == seed, stage
            assert record["flags"] == {**flags, "out": str(out)}, stage
            assert record["digest_algorithm"] == "sha256"

    def test_hash_streams_large_files(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(np.random.default_rng(5).bytes(3 * (1 << 20) + 7))
        assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert _sha256(empty) == hashlib.sha256(b"").hexdigest()


class TestModuleEntry:
    def _run_module(self, tmp_path, *argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "pamcurate.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )

    def test_python_m_runs_the_stage(self, tmp_path):
        done = self._run_module(tmp_path, "align", "--config", "nope", "--ais", "nope", "--out", "x")
        assert done.returncode == 2
        assert "error:" in done.stderr

    def test_python_m_help(self, tmp_path):
        done = self._run_module(tmp_path, "--help")
        assert done.returncode == 0
        assert "align" in done.stdout
