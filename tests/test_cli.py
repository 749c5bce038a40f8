"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_matrix_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--matrix", "nope"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "FourFace"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.matrix == "web"
        assert args.algorithm == "TwoFace"
        assert args.k == 128


class TestBadEnvironment:
    @pytest.mark.parametrize(
        "env, argv, message",
        [
            (
                {"REPRO_SCATTER": "bogus"},
                ["run", "--matrix", "web", "--k", "8", "--nodes", "4",
                 "--size", "tiny"],
                "REPRO_SCATTER must be 'segmented' or 'atomic', "
                "got 'bogus'",
            ),
            (
                {"REPRO_BENCH_WORKERS": "abc"},
                ["sweep", "--matrices", "web", "--k", "8", "--nodes", "4",
                 "--size", "tiny"],
                "REPRO_BENCH_WORKERS must be an integer, got 'abc'",
            ),
        ],
        ids=["REPRO_SCATTER", "REPRO_BENCH_WORKERS"],
    )
    def test_one_line_error_exit_2(self, env, argv, message):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        full_env = {
            **os.environ,
            **env,
            "PYTHONPATH": src if not path else src + os.pathsep + path,
        }
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=full_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"repro: error: {message}"]
        assert "Traceback" not in proc.stderr + proc.stdout


class TestCommands:
    def test_run_prints_result(self, capsys):
        code = main(
            ["run", "--matrix", "queen", "--algorithm", "DS2",
             "--k", "8", "--nodes", "4", "--size", "tiny"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated seconds" in out
        assert "DS2" in out

    def test_run_oom_exit_code(self, capsys):
        code = main(
            ["run", "--matrix", "kmer", "--algorithm", "Allgather",
             "--k", "128", "--nodes", "32", "--size", "default"]
        )
        assert code == 1
        assert "OOM" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--matrices", "queen", "web", "--k", "8",
             "--nodes", "4", "--size", "tiny"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "TwoFace" in out
        assert "queen" in out and "web" in out

    def test_plan_cold_then_cached(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "plans")
        argv = [
            "plan", "--matrix", "web", "--k", "8", "--nodes", "4",
            "--size", "tiny", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert "miss/cold" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hit" in capsys.readouterr().out

    def test_plan_no_cache_stays_cold(self, capsys, tmp_path):
        argv = [
            "plan", "--matrix", "web", "--k", "8", "--nodes", "4",
            "--size", "tiny", "--no-cache",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "miss/cold" in capsys.readouterr().out

    def test_plan_cache_flags_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "--cache-dir", "x", "--no-cache"]
            )

    def test_calibrate(self, capsys):
        code = main(
            ["calibrate", "--matrix", "twitter", "--k", "8",
             "--nodes", "4", "--size", "tiny"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "beta_a" in out

    def test_stats(self, capsys):
        code = main(["stats", "--matrix", "mawi", "--size", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hub_skewed" in out

    def test_gnn(self, capsys):
        code = main(
            ["gnn", "--nodes", "4", "--graph-size", "256", "--epochs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "train accuracy" in out

    def test_chaos(self, capsys, tmp_path):
        out_path = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--matrix", "web", "--k", "8", "--nodes", "4",
             "--size", "tiny", "--seed", "7", "--intensity", "0.2",
             "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos sweep" in out
        assert "exact" in out
        assert "WRONG" not in out

        import json

        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-perf/10"
        assert len(doc["cells"]) == 3  # intensities 0, half, full
        top = doc["cells"][-1]
        assert top["schema"] == "repro-perf/10"  # per-record stamp
        assert top["fault_rget_failures"] >= 0
        assert {"fault_retries", "fault_lane_fallbacks",
                "fault_rechunks"} <= set(top)

    def test_chaos_negative_intensity_rejected(self, capsys):
        code = main(
            ["chaos", "--size", "tiny", "--nodes", "4", "--k", "8",
             "--intensity", "-0.5"]
        )
        assert code == 2
        assert "non-negative" in capsys.readouterr().out

    def test_chaos_on_grid(self, capsys):
        code = main(
            ["chaos", "--matrix", "web", "--k", "8", "--nodes", "4",
             "--size", "tiny", "--seed", "7", "--intensity", "0.2",
             "--grid", "2d"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "grid=2d:r2x2" in out
        assert "WRONG" not in out
        assert "FAILURE" not in out

    def test_grid_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "grid.json"
        code = main(
            ["grid-sweep", "--matrix", "web", "--k", "8",
             "--nodes", "8", "--size", "tiny", "--check-1d",
             "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "grid sweep" in out
        assert "bit-for-bit" in out
        assert "FAILURE" not in out

        import json

        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-perf/10"
        by_name = {cell["name"]: cell for cell in doc["cells"]}
        assert set(by_name) == {
            "grid-1d", "grid-1.5d:r4c2", "grid-2d:r4x2"
        }
        flat = by_name["grid-1d"]
        assert flat["grid"] == "1d"
        assert flat["comm_total_bytes"] > 0
        assert flat["comm_fiber_bytes"] == 0
        rep = by_name["grid-1.5d:r4c2"]
        assert rep["comm_row_bytes"] > 0
        assert rep["comm_fiber_bytes"] > 0
        two = by_name["grid-2d:r4x2"]
        assert two["comm_col_bytes"] > 0
        assert two["comm_row_bytes"] > 0

    def test_grid_sweep_explicit_layouts(self, capsys):
        code = main(
            ["grid-sweep", "--matrix", "queen", "--k", "8",
             "--nodes", "4", "--size", "tiny",
             "--layouts", "1d", "1.5d", "--c", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1.5d:r2c2" in out
        assert "2d:" not in out

    def test_grid_sweep_bad_shape_rejected(self, capsys):
        code = main(
            ["grid-sweep", "--matrix", "web", "--k", "8",
             "--nodes", "8", "--size", "tiny", "--c", "3"]
        )
        assert code == 2
        assert "divide" in capsys.readouterr().out

    def test_serve(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        code = main(
            ["serve", "--trace", "hot", "--matrices", "queen",
             "--requests", "12", "--k", "4", "--nodes", "4",
             "--size", "tiny", "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out
        assert "FAILURE" not in out

        import json

        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-perf/10"
        by_name = {cell["name"]: cell for cell in doc["cells"]}
        fused = by_name["serve-hot-fused"]
        serial = by_name["serve-hot-serial"]
        assert fused["serve_requests"] == 12
        assert fused["serve_batches"] <= serial["serve_batches"]
        assert doc["experiments"]["speedup"]["byte_identical"] is True

    def test_serve_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "nope"])

    def test_serve_require_speedup_can_fail(self, capsys):
        # An impossible bar exercises the failure exit path.
        code = main(
            ["serve", "--trace", "bursty", "--matrices", "queen",
             "--requests", "6", "--k", "4", "--nodes", "4",
             "--size", "tiny", "--require-speedup", "1000"]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().out

    def test_serve_resilient_under_chaos(self, capsys, tmp_path):
        out_path = tmp_path / "resilient.json"
        code = main(
            ["serve", "--trace", "hot", "--matrices", "queen",
             "--requests", "12", "--k", "4", "--nodes", "4",
             "--size", "tiny", "--replicas", "3",
             "--chaos-intensity", "0.5", "--require-availability",
             "0.99", "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resilient replica set" in out
        assert "byte-identical to the fault-free reference" in out
        assert "FAILURE" not in out

        import json

        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-perf/10"
        by_name = {cell["name"]: cell for cell in doc["cells"]}
        res = by_name["serve-hot-resilient"]
        single = by_name["serve-hot-single"]
        assert res["serve_replicas"] == 3
        assert res["serve_availability"] >= 0.99
        assert single["serve_replicas"] == 1
        exp = doc["experiments"]["resilience"]
        assert exp["byte_identical"] is True
        assert exp["chaos_intensity"] == 0.5

    def test_serve_require_availability_can_fail(self, capsys):
        code = main(
            ["serve", "--trace", "hot", "--matrices", "queen",
             "--requests", "6", "--k", "4", "--nodes", "4",
             "--size", "tiny", "--replicas", "2",
             "--chaos-intensity", "0.2",
             "--require-availability", "2.0"]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().out

    def test_serve_slo_sets_deadlines(self, capsys):
        # A vanishing SLO makes every request miss its deadline on
        # both the plain and resilient paths.
        code = main(
            ["serve", "--trace", "hot", "--matrices", "queen",
             "--requests", "6", "--k", "4", "--nodes", "4",
             "--size", "tiny", "--slo", "1e-12",
             "--replicas", "2", "--chaos-intensity", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "deadline_misses" in out

    def test_serve_default_flags_keep_plain_path(self, capsys, tmp_path):
        """--replicas 1 --chaos-intensity 0 is the pre-existing
        single-executor path: same stdout, same telemetry document
        (modulo host wall seconds) as not passing the flags at all."""
        import json

        base = ["serve", "--trace", "hot", "--matrices", "queen",
                "--requests", "8", "--k", "4", "--nodes", "4",
                "--size", "tiny"]
        docs = []
        outs = []
        for tag, extra in (
            ("plain", []),
            ("flagged", ["--replicas", "1", "--chaos-intensity", "0"]),
        ):
            out_path = tmp_path / f"{tag}.json"
            assert main(base + extra + ["--out", str(out_path)]) == 0
            outs.append([
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("telemetry written")
            ])
            doc = json.loads(out_path.read_text())
            for cell in doc["cells"]:
                cell["wall_seconds"] = 0.0
            docs.append(doc)
        assert outs[0] == outs[1]
        assert docs[0] == docs[1]
        # The plain path leaves every resilience field at its zero
        # default, so pre-PR documents compare field-for-field.
        for cell in docs[0]["cells"]:
            assert cell["serve_replicas"] == 0
            assert cell["serve_retries"] == 0
            assert cell["serve_availability"] == 0.0

    def test_grid_sweep_json(self, capsys):
        import json

        code = main(
            ["grid-sweep", "--matrix", "web", "--k", "8",
             "--nodes", "8", "--size", "tiny",
             "--algorithm", "TwoFace", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-perf/10"
        assert doc["command"] == "grid-sweep"
        tokens = {cell["grid"] for cell in doc["cells"]}
        assert tokens == {"1d", "1.5d:r4c2", "2d:r4x2"}
        succeeded = [c for c in doc["cells"] if not c["failed"]]
        best = min(succeeded, key=lambda c: c["simulated_seconds"])
        assert doc["winner"] == best["grid"]
        summary = succeeded[0]["node_seconds"]
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_tune_oracle_zero_regret(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "tune.json"
        code = main(
            ["tune", "--matrix", "web", "--k", "8", "--nodes", "4",
             "--size", "tiny", "--oracle", "--max-regret", "0.10",
             "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen:" in out
        assert "oracle winner" in out
        assert "FAILURE" not in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-perf/10"
        (cell,) = doc["cells"]
        assert cell["tune_chosen"]
        assert cell["tune_predicted_seconds"] > 0
        assert cell["tune_regret"] == 0.0
        assert cell["tune_cache_misses"] == 1

    def test_tune_cache_hit_across_invocations(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "decisions")
        argv = [
            "tune", "--matrix", "web", "--k", "8", "--nodes", "4",
            "--size", "tiny", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert "cache miss" in capsys.readouterr().out
        assert main(argv + ["--require-cache-hit"]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_tune_require_cache_hit_fails_cold(self, capsys):
        code = main(
            ["tune", "--matrix", "web", "--k", "8", "--nodes", "4",
             "--size", "tiny", "--require-cache-hit"]
        )
        assert code == 1
        assert "decision cache" in capsys.readouterr().out

    def test_tune_max_regret_requires_oracle(self, capsys):
        code = main(
            ["tune", "--matrix", "web", "--k", "8", "--nodes", "4",
             "--size", "tiny", "--max-regret", "0.1"]
        )
        assert code == 2
        assert "requires --oracle" in capsys.readouterr().out

    def test_serve_auto_layout(self, capsys):
        code = main(
            ["serve", "--trace", "bursty", "--matrices", "queen",
             "--requests", "6", "--k", "4", "--nodes", "4",
             "--size", "tiny", "--auto-layout"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "autotuner" in out
        assert "byte-identical" in out
