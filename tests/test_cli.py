"""Exit codes and artifact side effects of the command line interface."""

import json
import re
import shutil

import numpy as np
import pytest

from relconn.classify import stratified_folds
from relconn.cli import main
from relconn.csp import fold_banks
from relconn.data import TrialSet, save_trialset
from relconn.errors import NumericError
from relconn.filters import FilterSpec, design_bandpass, write_response_csv
from relconn.fixtures import FixtureSpec
from relconn.pipeline import ARTIFACTS, PipelineConfig, Plan, stages


# the options of every stage subcommand and of run
KEPT_OPTIONS = ("--config", "--manifest", "--out", "--threshold")


def write_config(path, manifest, out_dir, **extra):
    body = dict(dataset_kind="errp", manifest=str(manifest),
                out_dir=str(out_dir), n_train=22, k_folds=3,
                epoch=[0.0, 0.5])
    body.update(extra)
    path.write_text(json.dumps(body))
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dataset")
    code = main(["fixture", "--out", str(root), "--seed", "3",
                 "--trials-per-class", "16", "--duration", "0.5"])
    assert code == 0
    return root / "manifest.json"


class TestFixtureCommand:
    def test_writes_manifest_and_truth(self, dataset, capsys):
        assert dataset.exists()
        assert (dataset.parent / "fixture_truth.json").exists()

    def test_seed_changes_truth(self, tmp_path):
        assert main(["fixture", "--out", str(tmp_path), "--seed", "9",
                     "--trials-per-class", "4", "--duration", "0.2"]) == 0
        truth = json.loads((tmp_path / "fixture_truth.json").read_text())
        assert truth["seed"] == 9

    def test_snr_option_is_not_kept_for_the_next_call(self, tmp_path):
        # calls in one process: an option one call set must not reach the
        # next
        for name, argv, snr in (("inf", ["--snr", "inf"], "inf"),
                                ("default", [], FixtureSpec.snr)):
            out = tmp_path / name
            assert main(["fixture", "--out", str(out), "--seed", "3",
                         "--trials-per-class", "4", "--duration", "0.5",
                         *argv]) == 0
            truth = json.loads((out / "fixture_truth.json").read_text())
            assert truth["spec"]["snr"] == snr

    def test_one_class_split_rejected_up_front(self, tmp_path, capsys):
        # 4 trials split 3/1 leave the test session one class short
        assert main(["fixture", "--out", str(tmp_path / "d"),
                     "--trials-per-class", "2"]) == 2
        assert ("error: n_per_class=2 with n_train=3 leaves a session "
                "without both classes" in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()


    @pytest.mark.parametrize("option, value, field", [
        ("--duration", "inf", "duration_s"),
        ("--duration", "0", "duration_s"),
        ("--duration", "0.001", "duration_s * sampling_rate_hz"),
        ("--fs", "-5", "sampling_rate_hz"),
        ("--fs", "inf", "sampling_rate_hz"),
        ("--snr", "nan", "snr"),
    ])
    def test_bad_shape_rejected_up_front(self, tmp_path, capsys, option,
                                         value, field):
        assert main(["fixture", "--out", str(tmp_path / "d"),
                     "--trials-per-class", "4", option, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} ")
        assert not (tmp_path / "d").exists()


class TestFilterResponseCommand:
    def test_matches_library_export(self, tmp_path):
        out = tmp_path / "resp.csv"
        code = main(["filter-response", "--out", str(out),
                     "--family", "elliptic", "--order", "6",
                     "--low", "8", "--high", "12", "--fs", "512",
                     "--points", "256"])
        assert code == 0

        ref = tmp_path / "ref.csv"
        spec = FilterSpec("elliptic", 6, (8.0, 12.0), 512.0, 1.0, 50.0)
        write_response_csv(design_bandpass(spec), ref, 256)
        assert out.read_bytes() == ref.read_bytes()

    def test_header_and_length(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert main(["filter-response", "--out", str(out),
                     "--points", "64"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,magnitude_db"
        assert len(lines) == 65

    def test_defaults_design_the_errp_band_pass(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert main(["filter-response", "--out", str(out)]) == 0
        ref = tmp_path / "ref.csv"
        (spec,) = PipelineConfig("errp", "m", "o").filter_specs(200.0)
        write_response_csv(design_bandpass(spec), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_bad_design_is_validation_error(self, tmp_path, capsys):
        code = main(["filter-response", "--out", str(tmp_path / "x.csv"),
                     "--low", "80", "--high", "120", "--fs", "200"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--points", "0", "n_points must be >= 2, got 0"),
        ("--points", "-3", "n_points must be >= 2, got -3"),
        ("--points", "1", "n_points must be >= 2, got 1"),
        ("--fs", "inf", "sampling_rate_hz must be finite to design a "
                        "filter, got inf"),
        ("--fs", "nan", "sampling_rate_hz must be positive, got nan"),
    ])
    def test_unusable_input_rejected(self, tmp_path, capsys, option, value,
                                     message):
        out = tmp_path / "x.csv"
        assert main(["filter-response", "--out", str(out), option,
                     value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRunCommand:
    def test_full_run_writes_artifacts(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", dataset, out_dir)
        assert main(["run", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == [str(out_dir / name) for name in ARTIFACTS.values()]
        for line in printed:
            assert (out_dir / line.split("/")[-1]).exists()

    def test_each_stage_prints_the_artifacts_it_wrote(self, dataset,
                                                       tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", dataset, out_dir)
        written = []
        for stage in stages():
            before = set(out_dir.glob("*"))
            assert main([stage, "--config", str(cfg)]) == 0
            printed = capsys.readouterr().out.strip().splitlines()
            assert sorted(printed) == sorted(
                map(str, set(out_dir.glob("*")) - before)), stage
            written += printed
        assert sorted(written) == sorted(str(out_dir / name)
                                         for name in ARTIFACTS.values())

    def test_lone_train_rewrites_the_cv_summary(self, dataset, tmp_path,
                                                capsys):
        # the cross-validated accuracy is the model's: a lambda edit
        # rerun through train alone rewrites both
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", dataset, out_dir)
        assert main(["run", "--config", str(cfg)]) == 0
        edited = write_config(tmp_path / "edited.json", dataset, out_dir,
                              **{"lambda": 0.05})
        capsys.readouterr()
        assert main(["train", "--config", str(edited)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(out_dir / ARTIFACTS[name]) for name in ("model", "cv_summary")]
        summary = json.loads((out_dir / ARTIFACTS["cv_summary"]).read_text())
        assert summary["lambda"] == 0.05

    def test_cv_is_no_subcommand(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            main(["cv", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cv'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_lists_every_stage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        # argparse wraps long help lines
        text = " ".join(capsys.readouterr().out.split())
        for name, stage in stages().items():
            assert name in text
            assert stage.__doc__.splitlines()[0] in text

    @pytest.mark.parametrize("command", [*stages(), "run"])
    def test_help_lists_only_the_kept_options(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", *KEPT_OPTIONS}

    def test_threshold_override_is_not_kept_for_the_next_call(
            self, dataset, tmp_path):
        # calls in one process: a call without --threshold writes the
        # config's threshold, whatever the call before it overrode
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out",
                           posterior_threshold=0.6)
        assert main(["run", "--config", str(cfg)]) == 0
        selected = tmp_path / "out" / ARTIFACTS["selected_trials"]
        for argv, threshold in ((["--threshold", "0.9"], 0.9), ([], 0.6)):
            assert main(["select", "--config", str(cfg), *argv]) == 0
            assert json.loads(selected.read_text())["threshold"] == threshold

    def test_stagewise_matches_run(self, dataset, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", dataset, tmp_path / "a")
        cfg_b = write_config(tmp_path / "b.json", dataset, tmp_path / "b")
        assert main(["run", "--config", str(cfg_a)]) == 0
        for stage in ("fit-csp", "train", "evaluate", "select", "graph",
                      "report"):
            assert main([stage, "--config", str(cfg_b)]) == 0
        name = "80_separability.json"
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


class TestRemovedOptions:
    """The split, the filter count, the dataset kind, the band mode, the
    seed, the L1 weight and the fold count are read by several stages,
    which must agree on them, so no option sets them for one stage
    alone."""

    @pytest.fixture(scope="class")
    def completed(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("removed_options")
        cfg = write_config(root / "cfg.json", dataset, root / "out")
        assert main(["run", "--config", str(cfg)]) == 0
        return cfg, root / "out"

    @pytest.mark.parametrize("stage, option, value", [
        ("evaluate", "--n-train", "5"),
        ("train", "--n-filters", "4"),
        ("evaluate", "--band-mode", "concat"),
        ("fit-csp", "--dataset-kind", "motor_imagery"),
        ("train", "--seed", "7"),
        ("train", "--lambda", "0.05"),
        ("train", "--k-folds", "11"),
        ("run", "--seed", "7"),
    ])
    def test_refused_before_any_artifact_changes(self, completed, capsys,
                                                 stage, option, value):
        cfg, out = completed
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(SystemExit) as exit_info:
            main([stage, "--config", str(cfg), option, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestExitCodes:
    def test_missing_manifest_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           tmp_path / "nope" / "manifest.json",
                           tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out",
                           alpha=1.0)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        # all-zero trials have no covariance; the csp stage must flag it
        ts = TrialSet(np.zeros((8, 2, 128)), np.arange(8) % 2, np.arange(8),
                      ("c1", "c2"), 100.0, ("a", "b"))
        manifest = save_trialset(ts, tmp_path / "zeros")

        cfg = write_config(tmp_path / "cfg.json", manifest, tmp_path / "out",
                           n_train=6, n_filters=2)
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "error: stage fit-csp:" in err

    def test_id_beyond_int64_exits_two(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset.parent, data)
        d = json.loads((data / "manifest.json").read_text())
        d["trials"][3]["id"] = 2 ** 70
        (data / "manifest.json").write_text(json.dumps(d))
        cfg = write_config(tmp_path / "cfg.json", data / "manifest.json",
                           tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage fit-csp: trial row 3: field 'id' must fit in "
            f"int64, got {2 ** 70}\n")

    def test_unbounded_sampling_rate_exits_two(self, dataset, tmp_path,
                                                capsys):
        # 1e999 is a valid JSON number, which reads as inf
        data = tmp_path / "data"
        shutil.copytree(dataset.parent, data)
        d = json.loads((data / "manifest.json").read_text())
        d["sampling_rate_hz"] = "RATE"
        (data / "manifest.json").write_text(
            json.dumps(d).replace('"RATE"', "1e999"))
        cfg = write_config(tmp_path / "cfg.json", data / "manifest.json",
                           tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: stage fit-csp: sampling_rate_hz must be positive and "
            "finite, got inf\n")
        assert not (tmp_path / "out").exists()

    def test_zero_power_training_trial_names_the_lowest_row(
            self, dataset, tmp_path, capsys):
        # cross-validation normalizes every training trial's scatter
        # matrix once, up front; a silent trial still stops it, by id.
        # fit-csp stops first on the command line, so the fold path is
        # called directly
        data = tmp_path / "data"
        shutil.copytree(dataset.parent, data)
        trials = json.loads((data / "manifest.json").read_text())["trials"]
        self.silence(data, trials[5])
        cfg = write_config(tmp_path / "cfg.json", data / "manifest.json",
                           tmp_path / "out")
        message = (f"trial {trials[5]['id']}: zero power; cannot normalize "
                   f"its covariance")

        def fold_path_error():
            plan = Plan(PipelineConfig.from_file(cfg))
            with pytest.raises(NumericError) as error:
                fold_banks(plan.train_set, plan.folds, plan.cfg.n_filters)
            return str(error.value)

        assert fold_path_error() == message
        # with a second silent trial of the other class, higher up but in
        # an earlier fold, every stage and the fold path still name the
        # lower row: naming the first silent trial fold by fold or class
        # by class would not
        labels = np.array([row["label"] for row in trials[:22]])
        fold_of = {row: f for f, rows in enumerate(
            stratified_folds(labels, 3, seed=42)) for row in rows}
        assert labels[5] == 1 and labels[6] == 0 and fold_of[6] < fold_of[5]
        self.silence(data, trials[6])
        assert fold_path_error() == message
        for command in ("fit-csp", "run"):
            assert main([command, "--config", str(cfg)]) == 3
            assert capsys.readouterr().err == (
                f"error: stage fit-csp: {message}\n")

    @staticmethod
    def silence(data, row):
        trial_file = data / row["file"]
        trial_file.write_bytes(bytes(trial_file.stat().st_size))

    @pytest.mark.parametrize("fault", ["short", "missing"])
    @pytest.mark.parametrize("row, stage", [(25, "evaluate"),
                                            (5, "fit-csp")])
    def test_short_trial_file_names_first_stage_to_read_it(
            self, dataset, tmp_path, capsys, row, stage, fault):
        # run checks each side of the split under the name of the first
        # stage that reads it, so it fails as that stage does on its own,
        # and before any stage writes; the test side's sizes are checked
        # before any sample is read, so a lone evaluate names the file
        # before it reads a model (there is none here)
        data = tmp_path / "data"
        shutil.copytree(dataset.parent, data)
        entry = json.loads((data / "manifest.json").read_text())["trials"][row]
        trial_file = data / entry["file"]
        if fault == "short":
            trial_file.write_bytes(trial_file.read_bytes()[:-8])
            message = (f"trial {entry['id']}: file {entry['file']} holds "
                       f"4792 bytes, expected 6x100=600 float64 values, "
                       f"4800 bytes")
        else:
            trial_file.unlink()
            message = f"[Errno 2] No such file or directory: '{trial_file}'"
        cfg = write_config(tmp_path / "cfg.json", data / "manifest.json",
                           tmp_path / "out")
        assert main([stage, "--config", str(cfg)]) == 2
        lone = capsys.readouterr().err
        assert lone == f"error: stage {stage}: {message}\n"
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == lone
        assert not (tmp_path / "out").exists()

    def test_non_finite_test_sample_fails_in_evaluate(self, dataset,
                                                      tmp_path, capsys):
        # test trials are read chunk by chunk inside evaluate, so under
        # run the training stages write their artifacts before a
        # non-finite test sample is found; a training one stops fit-csp
        data = tmp_path / "data"
        shutil.copytree(dataset.parent, data)
        rows = json.loads((data / "manifest.json").read_text())["trials"]
        for row in (25, 5):
            samples = np.zeros(600)
            samples[7] = np.nan
            (data / rows[row]["file"]).write_bytes(samples.tobytes())
            cfg = write_config(tmp_path / "cfg.json", data / "manifest.json",
                               tmp_path / f"out{row}")
            assert main(["run", "--config", str(cfg)]) == 2
            stage = "evaluate" if row == 25 else "fit-csp"
            assert capsys.readouterr().err == (
                f"error: stage {stage}: trial {rows[row]['id']}: non-finite "
                f"values in samples\n")
        written = sorted(p.name for p in (tmp_path / "out25").iterdir())
        assert written == sorted(ARTIFACTS[name] for name in (
            "filter_bank", "selected_channels", "model", "cv_summary"))
        assert not (tmp_path / "out5").exists()

    def test_non_finite_test_filter_output_fails_in_evaluate(
            self, dataset, tmp_path, capsys):
        # only evaluate band-passes the test trials, so under run the
        # training stages write their artifacts before this trial fails
        data = tmp_path / "data"
        shutil.copytree(dataset.parent, data)
        entry = json.loads((data / "manifest.json").read_text())["trials"][25]
        (data / entry["file"]).write_bytes(np.full(600, 1e308).tobytes())
        cfg = write_config(tmp_path / "cfg.json", data / "manifest.json",
                           tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            f"error: stage evaluate: trial {entry['id']}: filter output is "
            f"non-finite\n")
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == sorted(ARTIFACTS[name] for name in (
            "filter_bank", "selected_channels", "model", "cv_summary"))

    @pytest.mark.parametrize("key, value, message", [
        ("k_folds", "3", "'k_folds' must be an integer"),
        ("k_folds", True, "'k_folds' must be an integer"),
        ("seed", 1.5, "'seed' must be an integer"),
        ("n_train", None, None),
        ("posterior_threshold", "0.8", "'posterior_threshold' must be a "
                                       "number"),
        ("lambda", 0, "lambda must be > 0"),
        ("epoch", 5, "'epoch' must be a list of two numbers"),
        ("epoch", [0.0, "1"], "each entry of config key 'epoch' must be a "
                              "number"),
        ("filter", [], "'filter' must be an object"),
        ("filter", {"band_hz": 5}, "'filter.band_hz' must be a list"),
        ("filter", {"order": "5"}, "'filter.order' must be an integer"),
        ("dataset_kind", 1, "'dataset_kind' must be a string"),
        ("band_mode", 2, "'band_mode' must be a string"),
        ("filter", {"odrer": 2}, "'filter' has unknown keys: ['odrer']"),
        ("filter", {"family": "bessel"},
         "config key 'filter': family must be one of"),
        ("filter", {"order": 0}, "config key 'filter': order must be >= 1"),
        ("filter", {"passband_ripple_db": 0},
         "config key 'filter': passband_ripple_db must be a positive"),
        ("filter", {"stopband_atten_db": -50},
         "config key 'filter': stopband_atten_db must be a positive"),
        ("filter", {"band_hz": [10, 1]},
         "config key 'filter': band edges must satisfy 0 < low < high"),
        ("filter", {"band_hz": [0, 10]},
         "config key 'filter': band edges must satisfy 0 < low < high"),
        ("epoch", [-0.5, 0.5], "config key 'epoch': onset_s must be >= 0"),
        ("epoch", [0.0, 0.0], "config key 'epoch': duration_s must be "
                              "positive"),
        ("seed", -1, "seed must be >= 0"),
        ("lambda", float("inf"), "lambda must be > 0 and finite, got inf"),
        ("epoch", [0.0, float("inf")], "config key 'epoch': duration_s must "
                                       "be positive and finite"),
        ("epoch", [float("nan"), 0.5], "config key 'epoch': onset_s must be "
                                       ">= 0 and finite"),
        ("filter", {"passband_ripple_db": float("inf")},
         "config key 'filter': passband_ripple_db must be a positive finite"),
        ("filter", {"stopband_atten_db": float("inf")},
         "config key 'filter': stopband_atten_db must be a positive finite"),
        ("n_filters", 3, "config key 'n_filters': n_filters must be a "
                         "positive even number, got 3"),
        ("k_folds", 1, "config key 'k_folds': k_folds must be >= 2, got 1"),
        ("posterior_threshold", 1.0, "config key 'posterior_threshold': "
                                     "posterior_threshold must be in "
                                     "(0.5, 1), got 1.0"),
    ])
    def test_config_value_checked_up_front(self, dataset, tmp_path, capsys,
                                           key, value, message):
        # the wrong type is named before any stage runs; null is the same
        # as leaving the key out
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out",
                           **{key: value})
        code = main(["fit-csp", "--config", str(cfg)])
        if message is None:
            assert code == 0
            return
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflow_exits_three(self, dataset, tmp_path, capsys):
        # a finite ripple the elliptic design cannot raise to a power: any
        # ArithmeticError is a numeric failure, not a traceback
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out",
                           dataset_kind="motor_imagery",
                           filter={"passband_ripple_db": 1e6})
        assert main(["fit-csp", "--config", str(cfg)]) == 3
        assert "error: stage fit-csp:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("filter", {"band_hz": [1, 150]}, "band edges must lie below fs/2"),
        ("epoch", [0.0, 2.0], "exceeds the 100 samples per trial"),
    ])
    @pytest.mark.parametrize("stage", ["fit-csp", "evaluate"])
    def test_recording_bound_value_checked_at_load(self, dataset, tmp_path,
                                                   capsys, key, value,
                                                   message, stage):
        # the Nyquist limit and the trial length come with the recording;
        # a lone evaluate reports them before it reads a model (none here)
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out",
                           **{key: value})
        assert main([stage, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: stage {stage}:" in err and message in err

    def test_model_of_another_channel_count_exits_two(self, dataset,
                                                      tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 0
        wide = tmp_path / "wide"
        assert main(["fixture", "--out", str(wide), "--seed", "3",
                     "--channels", "8", "--trials-per-class", "16",
                     "--duration", "0.5"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg),
                     "--manifest", str(wide / "manifest.json")]) == 2
        assert ("error: stage evaluate: trials have 8 channels, bank "
                "expects 6" in capsys.readouterr().err)

    def test_select_without_a_class_exits_two(self, tmp_path, capsys):
        # on the default (S) fixture nothing reaches this confidence, so
        # select stops, with the per-class counts, before graph runs
        manifest = tmp_path / "s" / "manifest.json"
        assert main(["fixture", "--out", str(manifest.parent)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(manifest),
                                   "out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(cfg),
                     "--threshold", "0.999999"]) == 2
        assert ("error: stage select: threshold 0.999999 leaves a class "
                "with no selected trial (selected per class: [0, 0])"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / ARTIFACTS["selected_trials"]).exists()

    def test_missing_upstream_file_names_the_stage(self, dataset, tmp_path,
                                                   capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 0
        (tmp_path / "out" / ARTIFACTS["test_covariances"]).unlink()
        capsys.readouterr()
        assert main(["graph", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage graph: [Errno 2] ")
        assert ARTIFACTS["test_covariances"] in err

    def test_non_finite_covariance_names_the_stage(self, dataset, tmp_path,
                                                   capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset, tmp_path / "out")
        assert main(["run", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / ARTIFACTS["test_covariances"]
        covs = np.load(path)
        covs[:, 0, 1] = np.inf
        np.save(path, covs)
        graph_path = tmp_path / "out" / ARTIFACTS["graph_all_class0"]
        graph_path.unlink()
        capsys.readouterr()
        assert main(["graph", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: stage graph: weights must be finite, got inf between ")
        assert not graph_path.exists()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
