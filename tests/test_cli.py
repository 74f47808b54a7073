import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk.cli import (
    build_model,
    main,
    make_divergence_spec,
    one_hot_seed,
    stratified_subset,
)
from blockwalk.dataset import LabelSet, load_bow, load_labels
from blockwalk.model_io import save_model
from blockwalk.propagation import evaluate_accuracy, per_class_accuracy

from oracles import (
    reference_evaluate_accuracy,
    reference_one_hot_seed,
    reference_per_class_accuracy,
    reference_stratified_subset,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    rc = run(
        "synth", "--classes", 3, "--dim", 40, "--rows", 90,
        "--mean-length", 50, "--seed", 11, "--out", out,
    )
    assert rc == 0
    return out


class TestSynth:
    def test_files_and_header(self, synth_dir):
        data = load_bow(synth_dir / "data.bow")
        assert data.n_rows == 90 and data.n_cols == 40
        labels = load_labels(synth_dir / "labels.csv")
        assert labels.n_classes == 3
        assert set(labels.assignments) == set(data.ids)

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("synth", "--classes", 2, "--dim", 20, "--rows", 40,
                "--mean-length", 30, "--seed", 5, "--out", out)
            outs.append(
                (out / "data.bow").read_bytes() + (out / "labels.csv").read_bytes()
            )
        assert hashlib.sha256(outs[0]).digest() == hashlib.sha256(outs[1]).digest()

    def test_mean_length(self, tmp_path):
        out = tmp_path / "c"
        run("synth", "--classes", 3, "--dim", 30, "--rows", 600,
            "--mean-length", 80, "--seed", 2, "--out", out)
        data = load_bow(out / "data.bow")
        assert abs(data.values.sum() / data.n_rows - 80) < 1.0


class TestApproximate:
    def test_block_count_n100(self, tmp_path):
        out = tmp_path / "s"
        run("synth", "--classes", 2, "--dim", 30, "--rows", 100,
            "--mean-length", 40, "--seed", 3, "--out", out)
        model = tmp_path / "m.npz"
        rc = run(
            "approximate", "--input", out / "data.bow", "--divergence", "gid",
            "--partition", "coarsest", "--out", model,
        )
        assert rc == 0
        report = json.loads((model.parent / "m.npz.report.json").read_text())
        assert report["n_blocks"] == 198
        assert report["converged"] is True
        assert report["constraint_residual"] <= 1e-9

    def test_finest_with_exact_closes_gap(self, tmp_path):
        out = tmp_path / "s"
        run("synth", "--classes", 2, "--dim", 20, "--rows", 40,
            "--mean-length", 30, "--seed", 9, "--out", out)
        model = tmp_path / "m.npz"
        rc = run(
            "approximate", "--input", out / "data.bow", "--divergence", "gid",
            "--partition", "finest", "--out", model, "--exact",
        )
        assert rc == 0
        report = json.loads((tmp_path / "m.npz.report.json").read_text())
        assert abs(report["bound_gap"]) <= 1e-8

    def test_zero_epsilon_domain_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        run("synth", "--classes", 2, "--dim", 30, "--rows", 50,
            "--mean-length", 20, "--seed", 4, "--out", out)
        rc = run(
            "approximate", "--input", out / "data.bow", "--divergence", "gid",
            "--epsilon", 0, "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "row" in err and "column" in err

    def test_model_file_byte_identical_across_runs(self, synth_dir, tmp_path):
        digests = []
        for name in ("m1.npz", "m2.npz"):
            model = tmp_path / name
            run("approximate", "--input", synth_dir / "data.bow", "--divergence",
                "gid", "--seed", 5, "--out", model)
            digests.append(hashlib.sha256(model.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_sigma_policy_recorded(self, tmp_path):
        out = tmp_path / "s"
        run("synth", "--classes", 2, "--dim", 20, "--rows", 60,
            "--mean-length", 30, "--seed", 6, "--out", out)
        run(
            "approximate", "--input", out / "data.bow", "--divergence",
            "sq-euclidean", "--out", tmp_path / "m.npz",
        )
        report = json.loads((tmp_path / "m.npz.report.json").read_text())
        assert report["sigma"] > 0
        assert report["notes"]["sigma_policy"] == "median-random-pairs"


class TestPropagate:
    def test_metrics_and_defaults(self, synth_dir, tmp_path):
        model = tmp_path / "m.npz"
        run("approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--out", model)
        out = tmp_path / "prop"
        rc = run(
            "propagate", "--model", model, "--labels", synth_dir / "labels.csv",
            "--labeled-fraction", 0.1, "--seed", 1, "--out", out,
        )
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["config"]["alpha"] == 0.01
        assert metrics["config"]["iterations"] == 300
        assert 1 <= metrics["iterations_run"] < 300
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["converged"] is True
        assert metrics["constraint_residual"] <= 1e-9
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "id,predicted_class,score"
        assert len(lines) == 91

    def test_unconverged_model_flagged(self, synth_dir, tmp_path, capsys):
        data = load_bow(synth_dir / "data.bow")
        spec, _ = make_divergence_spec("gid", data)
        model, report, _, _ = build_model(data, spec, "coarsest")
        model.params = replace(model.params, converged=False, residual=0.25)
        path = tmp_path / "m.npz"
        save_model(path, model, report, data.ids)
        out = tmp_path / "prop"
        rc = run(
            "propagate", "--model", path, "--labels", synth_dir / "labels.csv",
            "--labeled-fraction", 0.1, "--seed", 1, "--out", out,
        )
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["converged"] is False
        assert metrics["constraint_residual"] == 0.25
        assert "did not reach the target residual" in capsys.readouterr().err

    def test_reproducible_across_runs(self, synth_dir, tmp_path):
        model = tmp_path / "m.npz"
        run("approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--out", model)
        preds = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            run("propagate", "--model", model, "--labels",
                synth_dir / "labels.csv", "--labeled-fraction", 0.1,
                "--seed", 7, "--out", out)
            preds.append((out / "predictions.csv").read_bytes())
        assert preds[0] == preds[1]

    def test_all_rows_labeled_rejected(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.npz"
        run("approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--out", model)
        rc = run(
            "propagate", "--model", model, "--labels", synth_dir / "labels.csv",
            "--labeled-fraction", 0.999, "--seed", 1, "--out", tmp_path / "p",
        )
        assert rc == 1


class TestExperiment:
    def test_sweep_csv_shape_and_ci(self, synth_dir, tmp_path):
        out = tmp_path / "exp"
        rc = run(
            "experiment", "--input", synth_dir / "data.bow", "--labels",
            synth_dir / "labels.csv", "--methods", "bvdt:gid,exact:gid",
            "--fractions", "0.1,0.05", "--trials", 5, "--seed", 3, "--out", out,
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "method,fraction,trials,mean_accuracy,ci95,mean_seconds,"
            "build_seconds,converged,residual"
        )
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4
        fractions = [float(r[1]) for r in rows]
        assert fractions == sorted(fractions)
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0
            assert float(r[4]) >= 0.0
            assert int(r[2]) == 5
            assert r[7] == "1"
            if r[0] == "exact:gid":
                assert r[8] == "0"  # the exact operator has no residual
            else:
                assert 0.0 <= float(r[8]) <= 1e-10

    def test_ci_formula(self, synth_dir, tmp_path):
        # recompute the per-trial accuracies through the library and check
        # the CSV's mean and 1.96*sd/sqrt(T) half-width
        from blockwalk.cli import build_model, make_divergence_spec, run_propagation
        from blockwalk.propagation import PropagationConfig

        out = tmp_path / "exp"
        run(
            "experiment", "--input", synth_dir / "data.bow", "--labels",
            synth_dir / "labels.csv", "--methods", "bvdt:gid",
            "--fractions", "0.1", "--trials", 5, "--seed", 3, "--out", out,
        )
        data = load_bow(synth_dir / "data.bow")
        labels = load_labels(synth_dir / "labels.csv")
        spec, _ = make_divergence_spec("gid", data, seed=3)
        model, _, _, _ = build_model(data, spec, "coarsest")
        accs = []
        for trial in range(5):
            rng = np.random.default_rng([3, trial])
            labeled = stratified_subset(data.ids, labels, 0.1, rng)
            _, _, _, acc, _ = run_propagation(
                model, data.ids, labels, labeled, PropagationConfig()
            )
            accs.append(acc)
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(np.mean(accs), abs=1e-9)
        want_ci = 1.96 * np.std(accs, ddof=1) / np.sqrt(5)
        assert float(row[4]) == pytest.approx(want_ci, abs=1e-9)

    def test_scaling_rows(self, tmp_path):
        out = tmp_path / "scal"
        rc = run(
            "experiment", "--methods", "bvdt:gid,exact:gid",
            "--scaling-rows", "60,120", "--dim", 20, "--classes", 2,
            "--mean-length", 30, "--seed", 5, "--out", out,
        )
        assert rc == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == (
            "method,n_rows,build_seconds,propagate_seconds,total_seconds,"
            "converged,residual"
        )
        assert len(lines) == 5  # 2 methods x 2 sizes
        assert all(ln.split(",")[5] == "1" for ln in lines[1:])

    @pytest.mark.parametrize("sizes", ["60", "60,60"])
    def test_scaling_rows_one_distinct_size(self, tmp_path, capsys, sizes):
        # one distinct size fits no slope: no polyfit warning, one line
        # saying so, and the table still written
        out = tmp_path / "scal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(
                "experiment", "--methods", "bvdt:gid", "--scaling-rows", sizes,
                "--dim", 20, "--classes", 2, "--mean-length", 30, "--out", out,
            )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "slope:" not in printed
        assert "a slope needs two distinct sizes" in printed
        lines = (out / "scaling.csv").read_text().splitlines()
        assert len(lines) == 1 + len(sizes.split(","))

    @pytest.mark.parametrize("mode", ["sweep", "scaling"])
    def test_unconverged_method_flagged(self, synth_dir, tmp_path, capsys, monkeypatch, mode):
        # one tree pass leaves the rows overshooting: the bvdt rows and
        # printed lines must say so, the exact ones read converged
        from blockwalk import cli

        real = cli.optimize_q
        monkeypatch.setattr(
            cli, "optimize_q", lambda *a, **k: real(*a, **{**k, "max_sweeps": 1})
        )
        out = tmp_path / "e"
        if mode == "sweep":
            args = ("--input", synth_dir / "data.bow", "--labels",
                    synth_dir / "labels.csv", "--fractions", 0.1, "--trials", 2)
        else:
            args = ("--scaling-rows", "60,120", "--dim", 20, "--classes", 2,
                    "--mean-length", 30)
        with pytest.warns(RuntimeWarning, match="residual"):
            rc = run("experiment", "--methods", "bvdt:gid,exact:gid", *args,
                     "--out", out)
        assert rc == 0
        lines = (out / f"{mode}.csv").read_text().splitlines()
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert rows["bvdt:gid"][-2] == "0" and float(rows["bvdt:gid"][-1]) > 1e-10
        assert rows["exact:gid"][-2:] == ["1", "0"]
        printed = capsys.readouterr().out.splitlines()
        bvdt = [ln for ln in printed if ln.startswith("bvdt:gid ") and "=" in ln]
        exact = [ln for ln in printed if ln.startswith("exact:gid ") and "=" in ln]
        assert bvdt and all("converged=0 residual=" in ln for ln in bvdt)
        assert exact and all("converged=1 residual=0" in ln for ln in exact)

    def test_mean_length_count_checked(self, tmp_path, capsys):
        rc = run(
            "experiment", "--methods", "bvdt:gid", "--fractions", 0.1,
            "--mean-length", "10,20", "--classes", 3, "--out", tmp_path / "e",
        )
        assert rc == 1
        assert "--mean-length must have 1 or --classes entries" in capsys.readouterr().err

    def test_exact_over_cap_rejected(self, synth_dir, tmp_path, capsys):
        rc = run(
            "experiment", "--input", synth_dir / "data.bow", "--labels",
            synth_dir / "labels.csv", "--methods", "exact:gid",
            "--fractions", "0.1", "--max-exact-n", 10, "--out", tmp_path / "e",
        )
        assert rc == 1
        assert "exact method refused" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "methods=bvdt:gid\nfractions=0.1\ntrials=2\nseed=4\n"
            f"input={synth_dir / 'data.bow'}\nlabels={synth_dir / 'labels.csv'}\n"
            f"out={tmp_path / 'from_cfg'}\n"
        )
        rc = run("experiment", "--config", cfg, "--trials", 1)
        assert rc == 0
        lines = ((tmp_path / "from_cfg") / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "1"  # flag beat the config's trials=2


class TestRejectedInputs:
    def test_zero_sigma_named(self, synth_dir, tmp_path, capsys):
        rc = run(
            "approximate", "--input", synth_dir / "data.bow", "--divergence",
            "sq-euclidean", "--sigma", 0, "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        assert "sigma must be > 0" in capsys.readouterr().err

    def test_infinite_sigma_named(self, synth_dir, tmp_path, capsys):
        rc = run(
            "approximate", "--input", synth_dir / "data.bow", "--divergence",
            "sq-euclidean", "--sigma", "inf", "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        assert "sigma must be > 0 and finite" in capsys.readouterr().err

    def test_overflowing_median_sigma_named(self, tmp_path, capsys):
        # every pair distance of 1e300 coordinates overflows to inf
        rows = [[1e300, 0.0], [0.0, 1e300], [1e300, 1e300], [3e300, 1.0]]
        path = tmp_path / "big.csv"
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
        with pytest.raises(ValueError, match="median.*overflow.*--sigma"):
            make_divergence_spec("sq-euclidean", load_bow(path, "dense-csv"))
        rc = run(
            "approximate", "--input", path, "--format", "dense-csv",
            "--divergence", "sq-euclidean", "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--sigma" in err

    def test_median_sigma_on_one_row_named(self, tmp_path, capsys):
        # the median policy draws pairs of distinct rows, which one row lacks
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0\n")
        rc = run(
            "approximate", "--input", path, "--format", "dense-csv",
            "--divergence", "sq-euclidean", "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1 row" in err and "--sigma" in err

    def test_exact_over_cap_refused_before_the_model(self, synth_dir, tmp_path, capsys):
        # the refusal must come before any tree is built or file written
        rc = run(
            "approximate", "--input", synth_dir / "data.bow", "--divergence", "gid",
            "--exact", "--max-exact-n", 10, "--out", tmp_path / "late.npz",
        )
        assert rc == 1
        assert "--exact refused for N=90 > --max-exact-n=10" in capsys.readouterr().err
        assert not list(tmp_path.glob("late.npz*"))

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    @pytest.mark.parametrize("dim", [0, 2, -3])
    def test_dim_below_classes_named(self, tmp_path, capsys, command, dim):
        # dim 0 raised ZeroDivisionError, dim 2 wrote a corpus whose class 0
        # had no vocabulary slice, dim -3 failed without naming an option
        sweep = ["--methods", "bvdt:gid", "--fractions", 0.1] if command == "experiment" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(
                command, "--rows", 10, "--classes", 3, "--dim", dim, *sweep,
                "--out", tmp_path / "o",
            )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"1 <= classes <= dim, got classes=3, dim={dim}" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_epsilon_named(self, synth_dir, tmp_path, capsys, monkeypatch, eps):
        # nan read "spec epsilon nan differs from the data's smoothing offset
        # nan"; inf built the whole tree before a non-finite block sum
        monkeypatch.setattr("blockwalk.cli.build_cluster_tree", None)  # never called
        rc = run(
            "approximate", "--input", synth_dir / "data.bow", "--divergence", "gid",
            "--epsilon", eps, "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        assert f"error: epsilon must be >= 0 and finite, got {eps}" in capsys.readouterr().err

    def test_finest_over_its_cap_named(self, tmp_path, capsys):
        # the finest partition keeps its own test-scale cap of 2,048 rows,
        # not --max-exact-n: at N=8,192 it would hold 67M blocks
        corpus = tmp_path / "c"
        assert run("synth", "--rows", 2049, "--dim", 20, "--out", corpus) == 0
        rc = run(
            "approximate", "--input", corpus / "data.bow", "--divergence", "gid",
            "--partition", "finest", "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        assert "finest partition refused for N=2049 > cap=2048" in capsys.readouterr().err
        assert not list(tmp_path.glob("m.npz*"))

    @pytest.mark.parametrize("mode", ["refine:abc", "refine:", "refine:1.5", "bogus"])
    def test_malformed_partition_named_before_loading(self, tmp_path, capsys, mode):
        # the input does not exist: a usage error must come before any load
        with pytest.raises(SystemExit) as exc:
            run(
                "approximate", "--input", tmp_path / "absent.bow", "--divergence",
                "gid", "--partition", mode, "--out", tmp_path / "m.npz",
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--partition" in err and repr(mode) in err and "refine:<k>" in err

    @pytest.mark.parametrize("mode", ["refine:abc", "refine:", "refine:1.5"])
    def test_malformed_partition_fails_before_the_tree(self, synth_dir, monkeypatch, mode):
        monkeypatch.setattr("blockwalk.cli.build_cluster_tree", None)  # never called
        data = load_bow(synth_dir / "data.bow")
        with pytest.raises(ValueError, match="partition mode"):
            build_model(data, make_divergence_spec("gid", data)[0], mode)

    def test_malformed_model_named(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.npz"
        run("approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--out", model)
        model.write_bytes(model.read_bytes()[: model.stat().st_size // 2])
        rc = run(
            "propagate", "--model", model, "--labels", synth_dir / "labels.csv",
            "--out", tmp_path / "p",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err

    def test_header_without_key_named(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.npz"
        run("approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--out", model)
        with np.load(model) as z:
            arrays = dict(z)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        del meta["optimizer"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
        np.savez(model, **arrays)
        rc = run(
            "propagate", "--model", model, "--labels", synth_dir / "labels.csv",
            "--out", tmp_path / "p",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err and "'optimizer'" in err

    @pytest.mark.parametrize("name", ["tree_left", "tree_perm", "q"])
    def test_model_array_of_wrong_dtype_named(self, synth_dir, tmp_path, capsys, name):
        # float ids used to escape as an IndexError, a text q as scipy's error
        model = tmp_path / "m.npz"
        run("approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--out", model)
        with np.load(model) as z:
            arrays = dict(z)
        arrays[name] = arrays[name].astype(str if name == "q" else float)
        np.savez(model, **arrays)
        rc = run(
            "propagate", "--model", model, "--labels", synth_dir / "labels.csv",
            "--out", tmp_path / "p",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: {name} has dtype")

    def test_negative_refine_rounds_named(self, synth_dir, tmp_path, capsys):
        rc = run(
            "approximate", "--input", synth_dir / "data.bow", "--divergence",
            "gid", "--partition", "refine:-5", "--out", tmp_path / "m.npz",
        )
        assert rc == 1
        assert "rounds must be >= 0" in capsys.readouterr().err

    def test_zero_trials_named(self, synth_dir, tmp_path, capsys):
        rc = run(
            "experiment", "--input", synth_dir / "data.bow", "--labels",
            synth_dir / "labels.csv", "--methods", "bvdt:gid",
            "--fractions", 0.1, "--trials", 0, "--out", tmp_path / "e",
        )
        assert rc == 1
        assert "--trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mahalanobis", "bogus"])
    def test_divergence_outside_the_choices(self, synth_dir, tmp_path, capsys, kind):
        # mahalanobis is sq-euclidean on whitened rows, and no kind of its own
        with pytest.raises(SystemExit) as exc:
            run(
                "approximate", "--input", synth_dir / "data.bow", "--divergence",
                kind, "--out", tmp_path / "m.npz",
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--divergence" in err and "invalid choice" in err

    def test_mahalanobis_method_named(self, synth_dir, tmp_path, capsys):
        rc = run(
            "experiment", "--input", synth_dir / "data.bow", "--labels",
            synth_dir / "labels.csv", "--methods", "bvdt:gid,bvdt:mahalanobis",
            "--fractions", 0.1, "--out", tmp_path / "e",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown divergence 'mahalanobis' in method 'bvdt:mahalanobis'" in err

    @staticmethod
    def fit_simplex_rows(tmp_path, *flags):
        # rows on the simplex with every value in (0, 1), as dense-csv
        x = np.random.default_rng(4).uniform(0.1, 1.0, (30, 4))
        x /= x.sum(axis=1, keepdims=True)
        csv = tmp_path / "rows.csv"
        csv.write_text("".join(",".join(map(repr, r)) + "\n" for r in x.tolist()))
        return run(
            "approximate", "--input", csv, "--format", "dense-csv", *flags,
            "--out", tmp_path / "m.npz",
        )

    @pytest.mark.parametrize("kind", ["kl", "logistic"])
    def test_kinds_for_dense_csv_fit(self, tmp_path, kind):
        # simplex rows left unsmoothed suit both kinds
        assert self.fit_simplex_rows(tmp_path, "--divergence", kind, "--epsilon", 0) == 0

    def test_kl_fits_at_its_default_offset(self, tmp_path):
        # any offset leaves the simplex, so kl's default offset is 0
        assert self.fit_simplex_rows(tmp_path, "--divergence", "kl") == 0

    def test_label_missing_for_a_row_named(self, tmp_path, capsys, monkeypatch):
        # dense-csv rows are 0..N-1, so labels written for 1..N lack row 0;
        # propagate and experiment name it in one message, experiment before
        # any fit
        assert self.fit_simplex_rows(tmp_path, "--divergence", "kl") == 0
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(f"{i},c{i % 2}\n" for i in range(1, 31)))
        rc = run(
            "propagate", "--model", tmp_path / "m.npz", "--labels", labels,
            "--out", tmp_path / "p",
        )
        assert rc == 1
        assert "error: labels missing for id '0'" in capsys.readouterr().err
        monkeypatch.setattr("blockwalk.cli.build_cluster_tree", None)  # never called
        rc = run(
            "experiment", "--input", tmp_path / "rows.csv", "--format", "dense-csv",
            "--labels", labels, "--methods", "bvdt:kl", "--fractions", 0.1,
            "--out", tmp_path / "e",
        )
        assert rc == 1
        assert "error: labels missing for id '0'" in capsys.readouterr().err


    def test_exact_kl_off_the_simplex_named(self, tmp_path, capsys):
        # the exact operator built a transition matrix from these rows,
        # which bvdt:kl refused; both paths now run one domain check
        x = np.random.default_rng(4).uniform(0.1, 1.0, (30, 4))
        x *= 2.0 / x.sum(axis=1, keepdims=True)
        csv, labels = tmp_path / "rows.csv", tmp_path / "labels.csv"
        csv.write_text("".join(",".join(map(repr, r)) + "\n" for r in x.tolist()))
        labels.write_text("".join(f"{i},c{i % 2}\n" for i in range(30)))
        rc = run(
            "experiment", "--input", csv, "--format", "dense-csv", "--labels", labels,
            "--methods", "exact:kl", "--fractions", 0.1, "--out", tmp_path / "e",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: kl requires simplex rows; row " in err and err.endswith(" sums to 2\n")

    def test_centred_rows_fit_sq_euclidean(self, tmp_path):
        # sq-euclidean's domain is all of R: dense-csv refused these rows
        # as negative values
        x = np.random.default_rng(8).normal(0.0, 1.0, (30, 3))
        csv = tmp_path / "centred.csv"
        csv.write_text("".join(",".join(map(repr, r)) + "\n" for r in x.tolist()))
        rc = run(
            "approximate", "--input", csv, "--format", "dense-csv",
            "--divergence", "sq-euclidean", "--exact", "--out", tmp_path / "m.npz",
        )
        assert rc == 0
        report = json.loads((tmp_path / "m.npz.report.json").read_text())
        assert report["ell"] <= report["exact_loglik"]

class TestConfigFile:
    """A config file's values are parsed by their options' own types; bad
    files, lines, values and keys are usage errors (exit code 2)."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [("propagate", "alpha", "abc"), ("approximate", "format", "csv"),
         ("experiment", "scaling-rows", "10,x"), ("approximate", "partition", "refine:abc"),
         ("approximate", "partition", "refine:"), ("experiment", "partition", "refine:1.5")],
    )
    def test_malformed_value(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        err = self.usage_error(capsys, command, "--config", cfg)
        assert f"--{key}" in err and f"'{value}'" in err
        assert f"run.cfg:1: key '{key}'" in err

    def test_bad_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# spread\nlabels=l.csv\n\nalpha = abc\n")
        err = self.usage_error(capsys, "propagate", "--config", cfg, "--alpha", 0.1)
        assert f"{cfg}:4: key 'alpha'" in err

    def test_divergence_choice_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("divergence=mahalanobis\n")
        err = self.usage_error(capsys, "approximate", "--config", cfg)
        assert "run.cfg:1: key 'divergence'" in err and "invalid choice" in err

    def test_missing_file(self, tmp_path, capsys):
        err = self.usage_error(capsys, "propagate", "--config", tmp_path / "no.cfg")
        assert "cannot read config file" in err

    def test_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nalpha\n")
        err = self.usage_error(capsys, "propagate", "--config", cfg)
        assert "run.cfg:3: expected key=value" in err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphaa=0.3\n")
        err = self.usage_error(capsys, "propagate", "--config", cfg)
        assert "unknown key 'alphaa'" in err

    @pytest.mark.parametrize(
        "value, flag, want", [("false", False, False), ("yes", False, True),
                              ("0", True, True), ("TRUE", False, True), ("No", False, False)],
    )
    def test_exact_words(self, synth_dir, tmp_path, value, flag, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"exact={value}\ninput={synth_dir / 'data.bow'}\ndivergence=gid\n"
            f"out={tmp_path / 'm.npz'}\n"
        )
        rc = run("approximate", "--config", cfg, *(["--exact"] if flag else []))
        assert rc == 0
        report = json.loads((tmp_path / "m.npz.report.json").read_text())
        assert ("exact_loglik" in report) is want

    @pytest.mark.parametrize("value", ["ture", "2", "on", ""])
    def test_exact_word_outside_the_words(self, synth_dir, tmp_path, capsys, value):
        # exact=ture used to fit without the exact log-likelihood and exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"divergence=gid\nexact={value}\n")
        err = self.usage_error(
            capsys, "approximate", "--config", cfg, "--input", synth_dir / "data.bow",
            "--out", tmp_path / "m.npz",
        )
        assert f"run.cfg:2: key 'exact'" in err and repr(value) in err
        assert not (tmp_path / "m.npz").exists()

    def test_one_file_serves_every_subcommand(self, tmp_path):
        # keys of synth, approximate and propagate in one file; each
        # subcommand takes its own and skips the others'
        corpus, model = tmp_path / "corpus", tmp_path / "m.npz"
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(
            "classes=2\ndim=20\nrows=60\nmean-length=30\nseed=3\n"
            f"out={corpus}\ninput={corpus / 'data.bow'}\ndivergence=gid\n"
            f"model={model}\nlabels={corpus / 'labels.csv'}\nalpha=0.05\n"
        )
        assert run("synth", "--config", cfg) == 0
        assert run("approximate", "--config", cfg, "--out", model) == 0
        out = tmp_path / "run"
        assert run("propagate", "--config", cfg, "--alpha", 0.02, "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["config"]["alpha"] == 0.02
        assert metrics["config"]["seed"] == 3
        assert load_bow(corpus / "data.bow").n_rows == 60


class TestStratifiedSubset:
    def test_at_least_one_per_class(self, rng):
        from blockwalk.dataset import LabelSet

        ids = [str(i) for i in range(40)]
        labels = LabelSet({rid: (0 if int(rid) < 36 else 1) for rid in ids}, ["a", "b"])
        chosen = stratified_subset(ids, labels, 0.05, rng)
        classes = {labels.assignments[rid] for rid in chosen}
        assert classes == {0, 1}

    def test_fraction_bounds(self, rng):
        from blockwalk.dataset import LabelSet

        ids = ["a", "b"]
        labels = LabelSet({"a": 0, "b": 0}, ["x"])
        with pytest.raises(ValueError):
            stratified_subset(ids, labels, 0.0, rng)
        with pytest.raises(ValueError):
            stratified_subset(ids, labels, 1.0, rng)


@st.composite
def labeled_corpora(draw):
    """(ids, labels, predictions, fraction, a labeled subset, seed): up to 40
    ids over up to 5 classes, so one-member and empty classes come up, and
    sometimes ids the labels lack."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True))
    ids = [str(i) for i in ids]
    n_classes = draw(st.integers(1, 5))
    cls = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(ids), max_size=len(ids)))
    kept = [True] * len(ids)
    if draw(st.booleans()):
        kept = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    labels = LabelSet(
        {rid: c for rid, c, keep in zip(ids, cls, kept) if keep},
        [f"c{k}" for k in range(n_classes)],
    )
    pred = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(ids), max_size=len(ids)))
    fraction = draw(
        st.sampled_from([1e-9, 0.01, 0.5, 0.99, 1 - 1e-9]) | st.floats(0.001, 0.999)
    )
    subset = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    labeled = {rid for rid, take in zip(ids, subset) if take}
    return ids, labels, np.array(pred), fraction, labeled, draw(st.integers(0, 2**32 - 1))


def outcome(fn, *args):
    """A call's value, or its error's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestScoringMatchesReference:
    """The labeled subset, the one-hot seeds and both accuracies, each taken
    from one LabelSet.classes array, against per-id loops in the label dict."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(labeled_corpora())
    def test_same_outputs_and_one_missing_id_error(self, case):
        ids, labels, pred, fraction, labeled, seed = case
        missing = [rid for rid in ids if rid not in labels.assignments]
        if missing:
            # every step names the first id without a label, in one message
            want = f"labels missing for id {missing[0]!r}"
            for fn, args in (
                (stratified_subset, (ids, labels, fraction, np.random.default_rng(seed))),
                (one_hot_seed, (ids, labels, set(ids))),
                (evaluate_accuracy, (pred, labels, ids, set())),
                (per_class_accuracy, (pred, labels, ids, set())),
            ):
                assert outcome(fn, *args) == (ValueError, want)
            return
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = outcome(stratified_subset, ids, labels, fraction, rng)
        assert got == outcome(reference_stratified_subset, ids, labels, fraction, ref_rng)
        assert rng.random() == ref_rng.random()  # the same draws were taken
        for subset in ([got] if isinstance(got, set) else []) + [labeled]:
            y0 = one_hot_seed(ids, labels, subset)
            assert y0.tobytes() == reference_one_hot_seed(ids, labels, subset).tobytes()
            acc = outcome(evaluate_accuracy, pred, labels, ids, subset)
            ref = outcome(reference_evaluate_accuracy, pred, labels, ids, subset)
            assert acc == ref and type(acc) is type(ref)
            per_class = per_class_accuracy(pred, labels, ids, subset)
            assert per_class == reference_per_class_accuracy(pred, labels, ids, subset)
            assert all(type(v) is float for v in per_class.values())
