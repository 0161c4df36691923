import json
import logging

import pytest

from evometric.cli import main


def run(args):
    return main(args)


class TestSimulate:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--model", "three-tanks", "--steps", "25",
                    "--seed", "42", "--out", str(out)]) == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "step,q1,q2,q3,l1,l2,l3"
        assert len(lines) == 2 + 26

    def test_engine_attack_flag_in_params(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--model", "engine",
                    "--params", '{"attacks": ["act:L:1.8"]}',
                    "--steps", "10", "--seed", "1", "--out", str(out)]) == 0
        header = (out / "simulate.csv").read_text().splitlines()[1]
        assert "stress_L" in header

    def test_shorthand_flags_merge_into_params(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--model", "three-tanks", "--scenario", "2",
                    "--steps", "6", "--seed", "4", "--out", str(out1)]) == 0
        assert run(["simulate", "--model", "three-tanks",
                    "--params", '{"scenario": 2}',
                    "--steps", "6", "--seed", "4", "--out", str(out2)]) == 0
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
        out3 = tmp_path / "c"
        assert run(["simulate", "--model", "engine", "--attack", "sen:L:0.4",
                    "--steps", "6", "--seed", "4", "--out", str(out3)]) == 0
        meta = json.loads((out3 / "simulate.csv").read_text().splitlines()[0][2:])
        assert meta["params"]["attacks"] == ["sen:L:0.4"]

    def test_missing_model_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--steps", "5", "--seed", "1"])
        assert exc.value.code == 2

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        monkeypatch.setenv("EVOMETRIC_SEED", "7")
        assert run(["simulate", "--model", "three-tanks", "--steps", "3",
                    "--out", str(out)]) == 0
        meta = json.loads((out / "simulate.csv").read_text().splitlines()[0][2:])
        assert meta["seed"] == 7

    def test_no_seed_anywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EVOMETRIC_SEED", raising=False)
        assert run(["simulate", "--model", "three-tanks", "--steps", "3",
                    "--out", str(tmp_path / "o")]) == 2

    def test_bad_params_json(self, tmp_path):
        assert run(["simulate", "--model", "three-tanks", "--params", "[1]",
                    "--steps", "3", "--seed", "1", "--out", str(tmp_path / "o")]) == 2

    def test_unknown_model_is_runtime_error(self, tmp_path):
        assert run(["simulate", "--model", "fusion-reactor", "--steps", "3",
                    "--seed", "1", "--out", str(tmp_path / "o")]) == 1


class TestEstimate:
    def test_summary_shape(self, tmp_path):
        out = tmp_path / "o"
        assert run(["estimate", "--model", "three-tanks", "--steps", "12",
                    "--samples", "20", "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "estimate_summary.csv").read_text().splitlines()
        assert lines[1] == "step,variable,mean,std"
        assert len(lines) == 2 + 13 * 6

    def test_emit_samples_shape(self, tmp_path):
        out = tmp_path / "o"
        assert run(["estimate", "--model", "three-tanks", "--steps", "4",
                    "--samples", "6", "--seed", "3", "--emit-samples",
                    "--out", str(out)]) == 0
        lines = (out / "estimate_samples.csv").read_text().splitlines()
        assert len(lines) == 2 + 6 * 5

    def test_seed_repetition_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["estimate", "--model", "three-tanks", "--steps", "10",
                        "--samples", "15", "--seed", "11", "--emit-samples",
                        "--out", str(out)]) == 0
        assert (a / "estimate_samples.csv").read_bytes() == (b / "estimate_samples.csv").read_bytes()
        assert (a / "estimate_summary.csv").read_bytes() == (b / "estimate_summary.csv").read_bytes()


class TestDistance:
    def test_scenarios_and_penalty_dispatch(self, tmp_path):
        out = tmp_path / "o"
        assert run(["distance", "--model", "three-tanks",
                    "--params", '{"scenario": 1}', "--params2", '{"scenario": 2}',
                    "--penalty", "max3", "--obs-times", "0..30",
                    "--samples", "40", "--scale", "2", "--seed", "5",
                    "--both-directions", "--out", str(out)]) == 0
        report = json.loads((out / "distance.json").read_text())
        assert report["meta"]["penalty"] == "max3"
        assert 0.0 <= report["report"]["value"] <= 1.0
        assert (out / "distance_reverse.json").exists()

    def test_same_seed_both_sides_is_zero(self, tmp_path):
        out = tmp_path / "o"
        assert run(["distance", "--model", "three-tanks", "--penalty", "l3",
                    "--obs-times", "0..20", "--samples", "30", "--scale", "1",
                    "--seed", "9", "--seed2", "9", "--out", str(out)]) == 0
        report = json.loads((out / "distance.json").read_text())
        assert report["report"]["value"] == 0.0

    @pytest.mark.parametrize("times", ["0..20..5", "0,3,20", "0..20"])
    def test_the_observation_times_are_recorded_as_given(self, times, tmp_path):
        out = tmp_path / "o"
        assert run(["distance", "--model", "three-tanks", "--penalty", "l3",
                    "--obs-times", times, "--samples", "5", "--scale", "1",
                    "--seed", "3", "--out", str(out)]) == 0
        report = json.loads((out / "distance.json").read_text())
        assert report["meta"]["obs_times"] == times
        assert report["report"]["params"]["obs"] == times

    def test_space_mismatch_fails(self, tmp_path):
        assert run(["distance", "--model", "three-tanks", "--model2", "engine",
                    "--penalty", "l3", "--obs-times", "0..5", "--samples", "5",
                    "--scale", "1", "--seed", "2", "--out", str(tmp_path / "o")]) == 1


class TestRobustnessCommands:
    def test_adaptability_runs(self, tmp_path):
        out = tmp_path / "o"
        assert run(["adaptability", "--model", "three-tanks",
                    "--init", '{"l1": 5, "l2": 5, "l3": 5}',
                    "--penalty", "l3", "--obs-times", "0..15",
                    "--tau-tilde", "5", "--eta1", "0.3", "--eta2", "0.5",
                    "--variations", "3", "--samples", "20", "--scale", "2",
                    "--seed", "13", "--out", str(out)]) == 0
        payload = json.loads((out / "adaptability.json").read_text())
        assert payload["report"]["accepted"] == 3
        assert payload["verdict"]["tau_tilde"] == 5

    def test_reliability_equals_adaptability_at_first_time(self, tmp_path):
        common = ["--model", "three-tanks", "--init", '{"l1": 5, "l2": 5, "l3": 5}',
                  "--penalty", "l3", "--obs-times", "0..10", "--eta1", "0.3",
                  "--eta2", "0.5", "--variations", "2", "--samples", "10",
                  "--scale", "1", "--seed", "21"]
        a, r = tmp_path / "a", tmp_path / "r"
        assert run(["adaptability", *common, "--tau-tilde", "0", "--out", str(a)]) == 0
        assert run(["reliability", *common, "--out", str(r)]) == 0
        ja = json.loads((a / "adaptability.json").read_text())
        jr = json.loads((r / "reliability.json").read_text())
        assert ja["report"]["xi"] == jr["report"]["xi"]
        assert ja["verdict"]["xi"] == jr["verdict"]["xi"]

    def test_robustness_with_saw_sampler(self, tmp_path):
        out = tmp_path / "o"
        assert run(["robustness", "--model", "engine",
                    "--params", '{"attacks": ["saw:L:0.5:1000"]}',
                    "--penalty", "window_L", "--penalty-target", "fn_L",
                    "--interval", "0:0", "--tau-tilde", "0",
                    "--eta1", "0.1", "--eta2", "0.2",
                    "--perturb", "saw:L:1000", "--obs-times", "0..40..5",
                    "--variations", "2", "--budget", "60",
                    "--samples", "8", "--scale", "2", "--seed", "19",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "robustness.json").read_text())
        assert payload["report"]["accepted"] == 2


class TestStats:
    def test_stats_csv(self, tmp_path):
        out = tmp_path / "o"
        assert run(["stats", "--model", "three-tanks", "--steps", "10",
                    "--samples", "30", "--reference-samples", "100",
                    "--vars", "l3", "--seed", "23", "--out", str(out)]) == 0
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[1] == "variable,step,mean,std,stderr,z"
        assert len(lines) == 2 + 11


class TestManifest:
    def test_prints_json(self, capsys):
        assert run(["manifest", "--model", "three-tanks"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "three-tanks"


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # exercised on the reference interpreter, where threads matter
        a, b = tmp_path / "a", tmp_path / "b"
        for out, threads in ((a, "1"), (b, "3")):
            assert run(["estimate", "--model", "three-tanks", "--steps", "8",
                        "--samples", "9", "--seed", "31", "--threads", threads,
                        "--no-fast-path", "--emit-samples", "--out", str(out)]) == 0
        assert (a / "estimate_samples.csv").read_bytes() == (b / "estimate_samples.csv").read_bytes()


DISTANCE = ["distance", "--model", "three-tanks", "--penalty", "l3",
            "--samples", "4", "--scale", "1", "--seed", "3"]
ROBUSTNESS = ["robustness", "--model", "engine", "--params", '{"attacks": ["saw:L:0.5:1000"]}',
              "--penalty", "window_L", "--penalty-target", "fn_L", "--tau-tilde", "0",
              "--eta1", "0.1", "--obs-times", "0..10", "--samples", "4", "--seed", "3"]


SIMULATE_ENGINE = ["simulate", "--model", "engine", "--steps", "3", "--seed", "1"]
SIMULATE_TANKS = ["simulate", "--model", "three-tanks", "--steps", "3", "--seed", "1"]


class TestMalformedValues:
    @pytest.mark.parametrize("argv", [
        DISTANCE + ["--obs-times", "0..10..0"],
        DISTANCE + ["--obs-times", "0..x"],
        DISTANCE + ["--obs-times", "0,a"],
        DISTANCE + ["--obs-times", "0..5", "--discount", "exp:abc"],
        ROBUSTNESS + ["--interval", "a:b"],
        ROBUSTNESS + ["--interval", "3"],
        ROBUSTNESS + ["--interval", "0:0", "--perturb", "saw:L:x"],
        ROBUSTNESS + ["--interval", "0:0", "--perturb", "nosuch"],
        ROBUSTNESS + ["--interval", "0:0", "--perturb", "saw:X:5"],
        SIMULATE_ENGINE + ["--attack", "saw:L:x:1000"],
        SIMULATE_ENGINE + ["--params", '{"bogus": 1}'],
        SIMULATE_ENGINE + ["--params", '{"max_temp": "hot"}'],
        SIMULATE_TANKS + ["--init", '{"l1": "x"}'],
        SIMULATE_TANKS + ["--init", '{"l1": null}'],
        SIMULATE_ENGINE + ["--params", '{"threshold": 200}'],
        SIMULATE_ENGINE + ["--attack", "act:L:5"],
        SIMULATE_ENGINE + ["--init", '{"bogus": 1}'],
        SIMULATE_TANKS + ["--params", '{"dt": Infinity}'],
        SIMULATE_ENGINE + ["--params", '{"max_temp": NaN}'],
    ], ids=["zero-stride", "obs-word", "obs-list-word", "discount", "interval",
            "interval-one-end", "saw-awml", "perturb-variable", "saw-side", "attack-word",
            "unknown-param", "param-word", "init-word", "init-null", "param-rejected",
            "attack-rejected", "init-variable", "param-infinite", "param-nan"])
    def test_exits_2_with_an_error_line(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_a_zero_scale_is_named(self, tmp_path, capsys):
        assert run(ROBUSTNESS + ["--scale", "0", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: scale factor must be a positive integer, got 0"]

    def test_a_seed_variable_that_is_not_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EVOMETRIC_SEED", "seven")
        assert run(["simulate", "--model", "three-tanks", "--steps", "3",
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: EVOMETRIC_SEED 'seven'")


ADAPTABILITY = ["adaptability", "--model", "three-tanks", "--init", '{"l1": 5, "l2": 5, "l3": 5}',
                "--penalty", "l3", "--tau-tilde", "2", "--eta1", "0.3", "--obs-times", "0..8",
                "--samples", "20", "--scale", "2", "--variations", "3", "--seed", "4"]


class TestNoFastPath:
    """--no-fast-path runs the interpreter, and the files it writes are those
    of the fast path, whose base shares the first candidate's block here
    (--samples is below 256), at any thread count."""

    @pytest.mark.parametrize("argv", [
        ROBUSTNESS + ["--perturb", "saw:L:20", "--variations", "2", "--scale", "2"],
        ADAPTABILITY,
    ], ids=["robustness", "adaptability"])
    def test_files_do_not_depend_on_the_path_or_threads(self, argv, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="evometric.engine")
        files = []
        for threads in ("1", "2"):
            for flags in ([], ["--no-fast-path"]):
                out = tmp_path / f"{threads}{''.join(flags)}"
                caplog.clear()
                assert run(argv + ["--threads", threads, "--out", str(out)] + flags) == 0
                paths = {r.getMessage().split(" path")[0] for r in caplog.records
                         if " path: " in r.getMessage()}
                assert paths == ({"interpreter"} if flags else {"lockstep"})
                files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(files[0]) == 2 and all(f == files[0] for f in files[1:])
