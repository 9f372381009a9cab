"""Command-line behavior: outputs, determinism, exit codes."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldscreen
import ldscreen.cli as cli_module
import ldscreen.columns as columns_module
import ldscreen.dataset as dataset_module
from ldscreen.cli import main
from ldscreen.cluster import cluster_model_from_json
from ldscreen.dataset import (
    ParseError,
    impute_missing,
    parse_arff,
    parse_csv,
    serialize_arff,
    serialize_csv,
    synthetic_checklist,
)
from ldscreen.evaluation import cross_validate, report_from_json
from ldscreen.tree import build_tree, model_from_json, model_to_json

ALL_N = ",".join(["N"] * 16)


@pytest.fixture
def arff_125(tmp_path):
    path = tmp_path / "demo.arff"
    path.write_text(serialize_arff(synthetic_checklist(94, 31, seed=3)))
    return str(path)


@pytest.fixture
def arff_gappy(tmp_path):
    path = tmp_path / "gappy.arff"
    path.write_text(
        serialize_arff(synthetic_checklist(40, 20, seed=5, missing_rate=0.1))
    )
    return str(path)


# --- train ---------------------------------------------------------------------


def test_train_writes_model(arff_125, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["train", "--input", arff_125, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Nodes: " in stdout and "Leaves: " in stdout
    assert "Training accuracy: " in stdout
    model = model_from_json(out.read_text())
    assert model.schema[-1].name == "LD"


def test_train_stdout_mode_emits_json(arff_125, capsys):
    assert main(["train", "--input", arff_125]) == 0
    captured = capsys.readouterr()
    model = model_from_json(captured.out)
    assert model.config.pruning
    assert "Training accuracy" in captured.err  # summary stays off stdout


def test_no_prune_keeps_at_least_as_many_nodes(arff_125, tmp_path):
    pruned = tmp_path / "pruned.json"
    full = tmp_path / "full.json"
    main(["train", "--input", arff_125, "--out", str(pruned)])
    main(["train", "--input", arff_125, "--no-prune", "--out", str(full)])
    m_pruned = model_from_json(pruned.read_text())
    m_full = model_from_json(full.read_text())
    assert m_full.node_count() >= m_pruned.node_count()


def run_cli(*args, options=()):
    """``python *options -m ldscreen.cli *args`` in a child process, for what reaches its stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *options, "-m", "ldscreen.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )


def run_strict(tmp_path, csv, *args):
    """``run_cli`` with warnings as errors, on ``csv`` written to ``tmp_path`` as ``--input``."""
    data = tmp_path / "data.csv"
    data.write_text(csv)
    return run_cli(*args, "--input", str(data), options=("-W", "error"))


def test_train_splits_between_values_whose_sum_overflows(tmp_path):
    rows = "".join(f"{x}e308,P\n" for x in ("1.0", "1.5", "1.6"))
    rows += "".join(f"{x}e308,Q\n" for x in ("1.7", "1.75", "1.79"))
    result = run_strict(tmp_path, "x,c\n" + rows, "train", "--out", str(tmp_path / "m.json"))
    assert (result.returncode, result.stderr) == (0, "")
    assert "Nodes: 3\n" in result.stdout and "Training accuracy: 100.0 %\n" in result.stdout
    model = model_from_json((tmp_path / "m.json").read_text())
    assert model.root.threshold == 1.6499999999999999e308


def _alternating_csv(path, n):
    """``n`` rows of x = 0..n-1, classes alternating: a tree about n levels deep."""
    path.write_text("x,c\n" + "".join(f"{i},{'PQ'[i % 2]}\n" for i in range(n)))
    return str(path)


def test_deep_tree_trains_and_too_deep_to_write_exits_1(tmp_path):
    data = _alternating_csv(tmp_path / "deep.csv", 1000)
    model = tmp_path / "m.json"
    result = run_cli("train", "--input", data, "--out", str(model))
    assert (result.returncode, result.stderr) == (0, "")
    assert "Nodes: 3\n" in result.stdout
    assert run_cli("checklist", "--model", str(model), "--answers", "5").returncode == 0
    # unpruned, the model is about 1000 levels deep: json.dumps writes it
    # only where json.loads reads it back (3.13), and refuses it elsewhere
    model.unlink()
    result = run_cli("train", "--no-prune", "--input", data, "--out", str(model))
    if result.returncode == 0:
        assert run_cli("checklist", "--model", str(model), "--answers", "5").returncode == 0
    else:
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("ldscreen: error: ")
        assert not model.exists()


def test_fold_deeper_than_the_recursion_limit_evaluates(tmp_path):
    data = _alternating_csv(tmp_path / "deep.csv", 2000)
    result = run_cli("evaluate", "--folds", "2", "--input", data)
    assert (result.returncode, result.stderr) == (0, "")
    matrix = result.stdout.split("Confusion Matrix")[1].splitlines()[2:]
    assert sum(int(cell) for line in matrix for cell in line.split()[1:]) == 2000


def test_fold_failing_in_every_process_exits_1_with_one_line(tmp_path):
    # With two CPUs each fold fails in its own process.  run_cli reads
    # stdout and stderr to their end, which a forked worker holds open
    # until it exits, so a worker left running would time the call out.
    data = tmp_path / "class_only.csv"
    data.write_text("c\n" + "P\nQ\n" * 5)
    result = run_cli("evaluate", "--folds", "2", "--input", str(data))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "ldscreen: error: dataset has no non-class attributes\n"


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["train", "--input", str(tmp_path / "absent.arff")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.arff"
    bad.write_text("@relation x\n@attribute a {Y,N}\n@data\nY,N\n")
    code = main(["train", "--input", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line" in captured.err


DUPLICATE_ARFF = "@relation d\n@attribute a {x,y}\n@attribute a {x,y}\n@attribute c {p,q}\n@data\n"
ONE_VALUE_CLASS = "@relation d\n@attribute a {x,y}\n@attribute c {p}\n@data\nx,p\ny,p\nx,p\ny,p\n"
DUPLICATE_VALUE_ARFF = "@relation d\n@attribute a {x,x,y}\n@attribute c {p,q}\n@data\nx,p\ny,q\n"
QUERY_VALUE_ARFF = "@relation d\n@attribute a {?,y}\n@attribute c {p,q}\n@data\ny,p\ny,q\n"
CLASS_DECLARATION = "@attribute c {p,q}\n@data\n"


@pytest.mark.parametrize(
    "name, text, command",
    [
        ("dup.arff", DUPLICATE_ARFF + "x,y,p\ny,x,q\n", ["rules"]),
        ("dup.csv", "a,a,c\n1,2,p\n3,4,q\n", ["evaluate"]),
        ("one.arff", ONE_VALUE_CLASS, ["evaluate", "--learner", "rules"]),
        ("dupvalue.arff", DUPLICATE_VALUE_ARFF, ["train"]),
        ("query.arff", QUERY_VALUE_ARFF, ["train"]),
        ("early.arff", "@relation d\n@data\nx,p\n", ["train"]),
        ("foo.arff", "@relation d\n@foo x\n" + CLASS_DECLARATION, ["train"]),
        ("nodata.arff", "@relation d\n@attribute a {x,y}\n@attribute c {p,q}\n", ["train"]),
        ("bare.arff", "@relation d\n@attribute\n" + CLASS_DECLARATION, ["train"]),
        ("open.arff", "@relation d\n@attribute a {x,y\n" + CLASS_DECLARATION, ["train"]),
        ("string.arff", "@relation d\n@attribute a string\n" + CLASS_DECLARATION, ["train"]),
        ("comma.arff", "@relation d\n@attribute a,b numeric\n" + CLASS_DECLARATION, ["train"]),
        (
            "zz.arff",
            "@relation d\n@attribute a {x,y}\n" + CLASS_DECLARATION,
            ["train", "--class", "zz"],
        ),
        ("numbers.csv", "a,b\n1,2\n3,4\n", ["train"]),
        ("empty.csv", "", ["train"]),
        ("gaps.csv", "a,b,c\n?,1,p\n,2,q\n", ["train"]),
    ],
    ids=[
        "duplicate_arff",
        "duplicate_csv",
        "one_value_class",
        "duplicate_value",
        "query_value",
        "data_before_attribute",
        "unknown_declaration",
        "no_data_section",
        "bare_attribute",
        "unclosed_value_set",
        "string_attribute",
        "comma_in_name",
        "unknown_class",
        "no_class_candidate",
        "empty_csv",
        "column_all_missing",
    ],
)
def test_invalid_schema_exits_2(tmp_path, capsys, name, text, command):
    path = tmp_path / name
    path.write_text(text)
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ldscreen: error: ")
    assert len(captured.err.splitlines()) == 1


def test_format_flag_overrides_the_extension(arff_125, tmp_path, capsys):
    path = tmp_path / "demo.txt"  # read as CSV by its extension
    path.write_text(Path(arff_125).read_text())
    assert main(["train", "--input", str(path), "--format", "arff"]) == 0
    capsys.readouterr()
    code = main(["train", "--input", arff_125, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ldscreen: error: line 1: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--input", "--model", "--answers-file"])
def test_undecodable_file_exits_2_and_names_it(model_path, tmp_path, flag, capsys):
    path = tmp_path / "undecodable.txt"
    argv, content = {
        "--input": (["train"], "a,c\nné,p\nno,q\n".encode("latin-1")),
        "--model": (["checklist", "--answers", ALL_N], b"\xff{}"),
        "--answers-file": (["checklist", "--model", model_path], b"N,N,\xe9\n"),
    }[flag]
    path.write_bytes(content)
    code = main(argv + [flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ldscreen: error: {path}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("name", ["data.csv", "data.arff", "answers.txt"])
def test_byte_order_mark_is_dropped(model_path, tmp_path, name, capsys):
    d = synthetic_checklist(30, 20, seed=8)
    argv, text = {
        "data.csv": (["train", "--input"], serialize_csv(d)),
        "data.arff": (["train", "--input"], serialize_arff(d)),
        "answers.txt": (["checklist", "--model", model_path, "--answers-file"], ALL_N),
    }[name]
    results = []
    # spreadsheets start "CSV UTF-8" exports with a byte-order mark
    for folder, mark in (("plain", ""), ("marked", "\ufeff")):
        path = tmp_path / folder / name
        path.parent.mkdir()
        path.write_text(mark + text, encoding="utf-8")
        results.append((main(argv + [str(path)]), capsys.readouterr()))
    assert results[0][0] == 0
    assert results[1] == results[0]


@pytest.mark.parametrize("command", ["train", "rules", "checklist"])
def test_seed_only_where_it_acts(arff_125, command, capsys):
    source = ["--model", "m.json"] if command == "checklist" else ["--input", arff_125]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *source, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# --- evaluate ------------------------------------------------------------------


def test_evaluate_deterministic(arff_125, capsys):
    argv = ["evaluate", "--input", arff_125, "--folds", "2", "--seed", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("Correctly Classified Instances ")
    assert "Incorrectly Classified Instances " in first
    assert "TP Rate" in first


def test_evaluate_majority_closed_form(arff_125, capsys):
    code = main(
        ["evaluate", "--input", arff_125, "--learner", "majority", "--folds", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Correctly Classified Instances 94 Nos. 75.2 %" in out


def test_evaluate_json_mirror(arff_125, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["evaluate", "--input", arff_125, "--out", str(out), "--seed", "1"])
    capsys.readouterr()
    report = report_from_json(out.read_text())
    assert report.matrix.total == 125
    assert 0.0 <= report.accuracy <= 1.0


def test_evaluate_unstratified_flag(arff_125, capsys):
    code = main(["evaluate", "--input", arff_125, "--no-stratify", "--folds", "5"])
    assert code == 0
    assert "Correctly Classified" in capsys.readouterr().out


@pytest.mark.parametrize("learner", ["tree", "rules", "majority"])
def test_evaluate_forks_one_worker_per_usable_cpu(arff_125, monkeypatch, capsys, learner):
    seen = []

    def record(*args, workers, **kwargs):
        seen.append(workers)
        return cross_validate(*args, workers=workers, **kwargs)

    monkeypatch.setattr("ldscreen.cli.cross_validate", record)
    assert main(["evaluate", "--input", arff_125, "--learner", learner]) == 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # majority fits in microseconds and loads no numpy: one process
    assert seen == [1 if learner == "majority" else cpus]


@pytest.mark.parametrize("learner", ["tree", "rules"])
def test_evaluate_with_a_refused_fork_prints_the_one_cpu_report(arff_125, monkeypatch, capsys, learner):
    argv = ["evaluate", "--input", arff_125, "--learner", learner, "--folds", "5"]
    monkeypatch.setattr(cli_module, "_cpus", lambda: 1)
    assert main(argv) == 0
    one_cpu = capsys.readouterr()

    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(cli_module, "_cpus", lambda: 2)
    monkeypatch.setattr("ldscreen.evaluation._fork", refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == one_cpu


# --- rules ---------------------------------------------------------------------


def test_rules_line_count_matches_leaves(arff_125, tmp_path, capsys):
    model_path = tmp_path / "m.json"
    main(["train", "--input", arff_125, "--out", str(model_path)])
    capsys.readouterr()
    assert main(["rules", "--input", arff_125]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    model = model_from_json(model_path.read_text())
    # one IF line per leaf plus the DEFAULT line
    assert len(lines) == model.leaf_count() + 1
    assert all(l.startswith("IF ") for l in lines[:-1])
    assert lines[-1].startswith("DEFAULT: LD=")


def test_rules_simplify_and_json(arff_125, tmp_path, capsys):
    out = tmp_path / "rules.json"
    code = main(["rules", "--input", arff_125, "--simplify", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == 1
    assert doc["class"] == "LD"


# --- cluster -------------------------------------------------------------------


OVERFLOW = "ldscreen: error: values too large to cluster: a squared distance or a sum overflows\n"


def test_cluster_refuses_distances_that_overflow(tmp_path):
    result = run_strict(tmp_path, "x,c\n1e200,P\n-1e200,Q\n5,P\n", "cluster")
    assert (result.returncode, result.stdout, result.stderr) == (1, "", OVERFLOW)


def test_cluster_refuses_a_profile_mean_that_overflows(tmp_path):
    # the fit stays in range: each cluster holds one row
    profile = tmp_path / "profile.csv"
    csv = "x,y,c\n1e308,0,P\n1e308,1,Q\n"
    result = run_strict(tmp_path, csv, "cluster", "--clusters", "2", "--profile-csv", str(profile))
    assert (result.returncode, result.stdout, result.stderr) == (1, "", OVERFLOW)
    assert not profile.exists()


def test_cluster_report_and_percentages(arff_125, capsys):
    assert main(["cluster", "--input", arff_125, "--clusters", "2"]) == 0
    out = capsys.readouterr().out
    assert "Clustered Instances" in out
    percents = [
        float(line.rsplit("-", 1)[1].replace("%", "").strip())
        for line in out.splitlines()
        if line.strip().endswith("%") and "Nos." in line
    ]
    assert len(percents) == 2
    assert sum(percents) == pytest.approx(100.0, abs=0.011)


def test_cluster_auto_imputes(arff_gappy, capsys):
    assert main(["cluster", "--input", arff_gappy]) == 0
    assert "Within cluster sum of squared errors" in capsys.readouterr().out


def test_cluster_class_gaps_do_not_vote(tmp_path, capsys):
    # every recorded label in the first cluster is Y; a filled-in mode would be N
    rows = ["Y,Y,Y"] * 2 + ["Y,Y,?"] * 5 + ["N,N,N"] * 6
    path = tmp_path / "gaps.arff"
    path.write_text(
        "@relation gaps\n@attribute a {N,Y}\n@attribute b {N,Y}\n"
        "@attribute c {N,Y}\n@data\n" + "\n".join(rows) + "\n"
    )
    assert main(["cluster", "--input", str(path), "--clusters", "2"]) == 0
    out = capsys.readouterr().out
    assert "0  c=Y - 7 Nos." in out
    assert "1  c=N - 6 Nos." in out


def test_cluster_without_recorded_class_is_unlabelled(tmp_path, capsys):
    # no member of the a=Y cluster has a class, so no majority can be stated
    rows = ["Y,?"] * 4 + ["N,Y"] * 3
    path = tmp_path / "unlabelled.arff"
    path.write_text(
        "@relation gaps\n@attribute a {Y,N}\n@attribute c {N,Y}\n@data\n"
        + "\n".join(rows) + "\n"
    )
    assert main(["cluster", "--input", str(path), "--clusters", "2"]) == 0
    out = capsys.readouterr().out
    assert "0  c=Y - 3 Nos. - 42.86 %" in out
    assert "1  c=? - 4 Nos. - 57.14 %" in out


def test_cluster_model_json(arff_125, tmp_path, capsys):
    out = tmp_path / "cluster.json"
    main(["cluster", "--input", arff_125, "--out", str(out), "--seed", "4"])
    capsys.readouterr()
    model = cluster_model_from_json(out.read_text())
    assert model.k == 2
    assert len(model.assignments) == 125


def test_cluster_profile_csv(arff_125, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    main(["cluster", "--input", arff_125, "--profile-csv", str(out)])
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "attribute,full_data,cluster_0,cluster_1"
    assert len(lines) == 17


def test_cluster_too_many_clusters_exits_1(arff_125, capsys):
    code = main(["cluster", "--input", arff_125, "--clusters", "500"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error" in captured.err


@pytest.fixture(scope="module")
def arff_4k_gappy(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "gappy_4k.arff"
    path.write_text(
        serialize_arff(synthetic_checklist(3000, 1000, seed=1, missing_rate=0.1))
    )
    return str(path)


def _cluster_diagnostic(argv, capsys):
    code = main(["cluster"] + argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert len(captured.err.splitlines()) == 1
    return captured.err


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "blank.arff",
            "@relation r\n@attribute a {N,Y}\n@attribute b {N,Y}\n@attribute c {P,Q}\n"
            "@data\nN,?,P\nY,?,Q\n?,?,P\n",
            "attribute b is entirely missing",
        ),
        (
            "empty.arff",
            "@relation r\n@attribute a {N,Y}\n@attribute c {P,Q}\n@data\n",
            "cannot cluster an empty dataset",
        ),
        (
            "overflow.csv",
            "a,c\n1e308,P\n1e308,Q\n,P\n",
            "imputation failed: inf in numeric attribute a is not a finite number",
        ),
    ],
)
def test_cluster_refusals_exit_1_with_one_line(tmp_path, name, text, message, capsys):
    path = tmp_path / name
    path.write_text(text)
    err = _cluster_diagnostic(["--input", str(path)], capsys)
    assert err == f"ldscreen: error: {message}\n"


def test_cluster_more_clusters_than_distinct_rows_exits_1(arff_4k_gappy, capsys):
    imputed = impute_missing(parse_arff(Path(arff_4k_gappy).read_text()))
    assert len({inst.values[:-1] for inst in imputed.instances}) == 2017
    err = _cluster_diagnostic(["--input", arff_4k_gappy, "--clusters", "5000"], capsys)
    assert err == "ldscreen: error: k=5000 exceeds the 2017 distinct instances\n"


def test_cluster_encodes_once_and_builds_no_imputed_copy(arff_4k_gappy, tmp_path, monkeypatch, capsys):
    # an imputed copy, or an encode per report, would fail this, with no timing
    seen = {"views": 0, "datasets": 0}

    def count_view(view, dataset):
        seen["views"] += 1
        real_init(view, dataset)

    def count_dataset(dataset, *args):
        seen["datasets"] += 1
        return real_with_checked(dataset, *args)

    def refuse(dataset):
        raise AssertionError("cluster called impute_missing")

    real_init = columns_module.Columns.__init__
    real_with_checked = dataset_module.Dataset._with_checked
    monkeypatch.setattr(columns_module.Columns, "__init__", count_view)
    monkeypatch.setattr(dataset_module.Dataset, "_with_checked", count_dataset)
    for module in (dataset_module, cli_module):
        monkeypatch.setattr(module, "impute_missing", refuse, raising=False)
    argv = ["--out", str(tmp_path / "c.json"), "--profile-csv", str(tmp_path / "p.csv")]
    assert main(["cluster", "--input", arff_4k_gappy] + argv) == 0
    assert "Clustered Instances" in capsys.readouterr().out
    assert seen == {"views": 1, "datasets": 1}  # the parsed dataset's


@pytest.mark.parametrize(
    "argv, named",
    [
        (["train", "--confidence", "1.5"], "confidence_factor"),
        (["train", "--confidence", "-0.5"], "confidence_factor"),
        (["train", "--confidence", "nan"], "confidence_factor"),
        (["train", "--confidence", "0"], "confidence_factor"),
        (["rules", "--confidence", "1"], "confidence_factor"),
        (["train", "--min-leaf-weight", "nan"], "min_leaf_weight"),
        (["evaluate", "--min-leaf-weight", "-1"], "min_leaf_weight"),
        (["evaluate", "--folds", "1"], "--folds"),
        (["evaluate", "--folds", "0"], "--folds"),
        (["cluster", "--clusters", "0"], "--clusters"),
        (["cluster", "--clusters", "-1"], "--clusters"),
        (["cluster", "--max-iter", "0"], "--max-iter"),
        (["cluster", "--max-iter", "-3"], "--max-iter"),
    ],
)
@pytest.mark.parametrize("readable", [True, False], ids=["input", "no_input"])
def test_option_out_of_range_exits_2(arff_125, tmp_path, argv, named, readable, capsys):
    # the option is refused before the input is read
    path = arff_125 if readable else str(tmp_path / "absent.arff")
    code = main(argv + ["--input", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ldscreen: error: ")
    assert len(captured.err.splitlines()) == 1
    assert named in captured.err


# --- checklist -----------------------------------------------------------------


@pytest.fixture
def model_path(arff_125, tmp_path, capsys):
    path = tmp_path / "model.json"
    main(["train", "--input", arff_125, "--out", str(path)])
    capsys.readouterr()
    return str(path)


def test_checklist_all_n(model_path, capsys):
    code = main(["checklist", "--model", model_path, "--answers", ALL_N])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Prediction: LD=N"
    assert "Distribution: N=" in out
    assert "Matched rule: IF " in out


def test_checklist_answers_file(model_path, tmp_path, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("\n".join(["y"] * 16) + "\n")  # case-insensitive
    code = main(["checklist", "--model", model_path, "--answers-file", str(answers)])
    assert code == 0
    assert "Prediction: LD=" in capsys.readouterr().out


def test_checklist_wrong_count_exits_2(model_path, capsys):
    code = main(["checklist", "--model", model_path, "--answers", "Y,N,Y"])
    captured = capsys.readouterr()
    assert code == 2
    assert "16" in captured.err


def test_checklist_invalid_symbol_exits_2(model_path, capsys):
    bad = ",".join(["N"] * 15 + ["maybe"])
    code = main(["checklist", "--model", model_path, "--answers", bad])
    captured = capsys.readouterr()
    assert code == 2
    assert "maybe" in captured.err


def test_checklist_blank_answer_exits_2(model_path, capsys):
    # a matched rule exists only for complete answers
    blank = ",".join(["N"] * 15 + ["?"])
    code = main(["checklist", "--model", model_path, "--answers", blank])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'?'" in captured.err


@pytest.fixture
def case_model_path(tmp_path, capsys):
    rows = ["y,no,N", "Y,no,Y", "n,no,N"] * 5
    data = tmp_path / "case.arff"
    data.write_text(
        "@relation case\n@attribute a {y,Y,n}\n@attribute b {no,NO}\n"
        "@attribute c {N,Y}\n@data\n" + "\n".join(rows) + "\n"
    )
    path = tmp_path / "case.json"
    assert main(["train", "--input", str(data), "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize(
    "answers, rule",
    [
        ("Y,no", "IF a=Y THEN c=Y"),
        ("y,NO", "IF a=y THEN c=N"),
        ("N,No", None),  # No could be no or NO
        ("N,nO", None),
        ("N,no", "IF a=n THEN c=N"),  # only n matches N
    ],
)
def test_checklist_exact_answer_wins_then_one_case_insensitive_match(
    case_model_path, answers, rule, capsys
):
    code = main(["checklist", "--model", case_model_path, "--answers", answers])
    captured = capsys.readouterr()
    if rule is None:
        assert code == 2
        assert captured.out == ""
        assert "expected one of ('no', 'NO')" in captured.err
    else:
        assert code == 0
        assert f"Matched rule: {rule} [" in captured.out


def test_checklist_requires_one_answer_source(model_path, capsys):
    code = main(["checklist", "--model", model_path])
    assert code == 2
    assert "answers" in capsys.readouterr().err


def _drop_config(text):
    doc = json.loads(text)
    del doc["config"]
    return json.dumps(doc)


def _string_leaf_counts(text):
    # the leaf that all-N answers reach gets its class_counts as strings
    doc = json.loads(text)
    values = {a["name"]: a["values"] for a in doc["schema"]}
    node = doc["root"]
    while node["type"] == "decision":
        node = node["children"][values[node["attribute"]].index("N")]
    node["class_counts"] = [str(c) for c in node["class_counts"]]
    return json.dumps(doc)


def _drop_root_child(text):
    doc = json.loads(text)
    doc["root"]["children"].pop()
    return json.dumps(doc)


def _bad_config(text):
    doc = json.loads(text)
    doc["config"]["confidence_factor"] = 1.5
    return json.dumps(doc)


def _duplicate_name(text):
    doc = json.loads(text)
    doc["schema"][1]["name"] = doc["schema"][0]["name"]
    return json.dumps(doc)


def _class_index(value):
    def damage(text):
        doc = json.loads(text)
        doc["class_index"] = value
        return json.dumps(doc)

    damage.__name__ = f"class_index({value!r})"
    return damage


def _valueless_nominal(text):
    doc = json.loads(text)
    doc["schema"][0].update(kind="nominal", values=[])
    return json.dumps(doc)


def _zero_leaf_counts(text):
    doc = json.loads(text)
    doc["root"] = {"type": "leaf", "class_counts": [0.0, 0.0], "weight": 0.0}
    return json.dumps(doc)


def _root_tests_the_class(text):
    doc = json.loads(text)
    doc["root"]["attribute"] = doc["schema"][doc["class_index"]]["name"]
    return json.dumps(doc)


def _zero_root_branch_weights(text):
    doc = json.loads(text)
    doc["root"]["branch_weights"] = [0.0, 0.0]
    return json.dumps(doc)


def _categorical_threshold(text):
    doc = json.loads(text)
    doc["root"]["threshold"] = 0.5
    return json.dumps(doc)


def _pruning(value):
    def damage(text):
        doc = json.loads(text)
        doc["config"]["pruning"] = value
        return json.dumps(doc)

    damage.__name__ = f"pruning({value!r})"
    return damage


def _unreadable_value(value):
    # replaces Y, so that the all-N answers stay valid
    def damage(text):
        doc = json.loads(text)
        doc["schema"][0]["values"][-1] = value
        return json.dumps(doc)

    damage.__name__ = f"unreadable_value({value!r})"
    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _drop_config,
        lambda text: text[: len(text) // 2],
        _string_leaf_counts,
        _drop_root_child,
        _duplicate_name,
        _bad_config,
        _unreadable_value("?"),
        _unreadable_value(""),
        _unreadable_value(" N"),
        _class_index(99),
        _class_index(16.0),
        _valueless_nominal,
        _zero_leaf_counts,
        _zero_root_branch_weights,
        _root_tests_the_class,
        _categorical_threshold,
        _pruning("no"),
        _pruning(1),
    ],
)
def test_checklist_malformed_model_exits_2(model_path, damage, capsys):
    path = model_path + ".bad"
    with open(model_path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(damage(text))
    code = main(["checklist", "--model", path, "--answers", ALL_N])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ldscreen: error: ")
    assert len(captured.err.splitlines()) == 1


def test_checklist_deeply_nested_model_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    result = run_cli("checklist", "--model", str(path), "--answers", ALL_N)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("ldscreen: error: ")
    assert "Traceback" not in result.stderr


@pytest.fixture
def numeric_model_path(tmp_path, capsys):
    rows = ["x,y,cls"] + [
        f"{i},{(7 * i) % 10},{'hi' if i >= 10 else 'lo'}" for i in range(20)
    ]
    data = tmp_path / "numeric.csv"
    data.write_text("\n".join(rows) + "\n")
    path = tmp_path / "numeric.json"
    assert main(["train", "--input", str(data), "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_checklist_numeric_answers(numeric_model_path, capsys):
    code = main(["checklist", "--model", numeric_model_path, "--answers", "14.5,3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Prediction: cls=hi"
    assert "Matched rule: IF x>" in out


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_checklist_numeric_answer_must_be_finite(numeric_model_path, bad, capsys):
    code = main(["checklist", "--model", numeric_model_path, "--answers", f"1,{bad}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert bad in captured.err


# --- csv input -----------------------------------------------------------------


def test_csv_input_by_extension(tmp_path, capsys):
    d = synthetic_checklist(30, 20, seed=8)
    path = tmp_path / "demo.csv"
    path.write_text(serialize_csv(d))
    code = main(
        ["evaluate", "--input", str(path), "--class", "LD", "--folds", "2"]
    )
    assert code == 0
    assert "Correctly Classified" in capsys.readouterr().out


def test_csv_bad_header_name_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a b,c\n1,x\n2,y\n")
    code = main(["evaluate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ldscreen: error: line 1: ")
    assert len(captured.err.splitlines()) == 1


def test_csv_header_name_with_a_line_break_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b'"a\nb",c\nx,P\ny,Q\n')
    code = main(["train", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "ldscreen: error: line 1: invalid attribute name: 'a\\nb'\n"


def test_csv_unclosed_quote_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text('a,c\nx,p\ny,"q\nx,p\ny,q\n')
    code = main(["train", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "ldscreen: error: line 3: unexpected end of data\n"


# --- malformed corpus ----------------------------------------------------------

_SMALL = synthetic_checklist(5, 3, seed=2, missing_rate=0.1)

#: per kind: file suffix, a valid document, its reader, and the command reading it
MALFORMED_BASES = {
    "arff": (".arff", serialize_arff(_SMALL), parse_arff, ["train", "--input"]),
    "csv": (".csv", serialize_csv(_SMALL), parse_csv, ["train", "--input"]),
    "json": (
        ".json",
        model_to_json(build_tree(synthetic_checklist(20, 10, seed=2))),
        model_from_json,
        ["checklist", "--answers", ALL_N, "--model"],
    ),
}

#: bytes that are syntax in one of the formats, or not UTF-8 at all
JUNK = st.binary(max_size=4) | st.sampled_from(
    [b",", b"{", b"}", b"?", b"\n", b"\r", b"%", b'"', b"@data\n", b"@attribute x real\n",
     b"nan", b"1e999", b"\xef\xbb\xbf", b"\xff", b"null", b"[", b"-1", b"{}", b"\x00"]
)


@st.composite
def damaged(draw, data):
    """``data`` with one to three spans of up to 16 bytes replaced by junk."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 16)))
        data = data[:start] + draw(JUNK) + data[end:]
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MALFORMED_BASES)), st.data())
def test_damaged_input_exits_2_when_refused_and_never_raises(kind, data):
    suffix, text, read, command = MALFORMED_BASES[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("input" + suffix)
        path.write_bytes(data.draw(damaged(text.encode())))
        try:  # the reading main does, by the library readers
            read(path.read_text().removeprefix("\ufeff"))
            refused = False
        except (UnicodeDecodeError, ParseError):
            refused = True
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(path)])  # an input that is read raises nothing
    if refused:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("ldscreen: error: ")
        assert len(err.getvalue().splitlines()) == 1


# --- start-up imports ----------------------------------------------------------

#: run in a fresh interpreter: which of numpy and scipy each step has loaded,
#: then what the package's lazily resolved names look like
IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "scipy") if m in sys.modules]

model, arff, answers = sys.argv[1:]
seen = {}
import ldscreen
seen["import ldscreen"] = loaded()
import ldscreen.cli
seen["import ldscreen.cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = ldscreen.cli.main(["checklist", "--model", model, "--answers", answers])
seen["checklist"] = loaded() + ([] if code == 0 else [f"exit {code}"])
seen["cluster is the submodule"] = ldscreen.cluster is sys.modules["ldscreen.cluster"]
seen["unresolved"] = [n for n in ldscreen.__all__ if not hasattr(ldscreen, n)]
star = {}
exec("from ldscreen import *", star)
seen["unbound by *"] = sorted(set(ldscreen.__all__) - set(star))
try:
    ldscreen.no_such_name
    seen["unknown name"] = "resolved"
except AttributeError:
    seen["unknown name"] = "AttributeError"
with contextlib.redirect_stdout(io.StringIO()):
    code = ldscreen.cli.main(["cluster", "--input", arff, "--clusters", "2"])
seen["cluster"] = loaded() + ([] if code == 0 else [f"exit {code}"])
print(json.dumps(seen))
"""


def test_screening_loads_neither_numpy_nor_scipy(arff_125, model_path):
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, model_path, arff_125, ALL_N],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert json.loads(done.stdout) == {
        "import ldscreen": [],
        "import ldscreen.cli": [],
        "checklist": [],
        "cluster is the submodule": True,
        "unresolved": [],
        "unbound by *": [],
        "unknown name": "AttributeError",
        "cluster": ["numpy"],
    }


#: run in a fresh interpreter: each command that prunes or simplifies, then
#: its exit code and whether scipy has been loaded so far
BOUND_PROBE = """
import contextlib, io, json, sys
import ldscreen.cli

arff = sys.argv[1]
seen = []
for command in (
    ["train"],
    ["evaluate", "--learner", "tree"],
    ["evaluate", "--learner", "rules"],
    ["rules", "--simplify"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ldscreen.cli.main(command + ["--input", arff])
    seen.append([" ".join(command), code, "scipy" in sys.modules])
print(json.dumps(seen))
"""


def test_pruning_and_simplification_leave_scipy_unloaded(arff_125):
    # the screen settles every decision on the paper-size cohort
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", BOUND_PROBE, arff_125],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert json.loads(done.stdout) == [
        ["train", 0, False],
        ["evaluate --learner tree", 0, False],
        ["evaluate --learner rules", 0, False],
        ["rules --simplify", 0, False],
    ]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pruning_and_simplification_leave_scipy_unloaded_on_one_cpu(arff_125):
    # on one CPU `evaluate` forks no worker, so the probe sees every fold
    pin = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", pin + BOUND_PROBE, arff_125],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert json.loads(done.stdout) == [
        ["train", 0, False],
        ["evaluate --learner tree", 0, False],
        ["evaluate --learner rules", 0, False],
        ["rules --simplify", 0, False],
    ]


#: run in a fresh interpreter: `train` through the CLI, or with "library"
#: a tree built without it, then scipy.special; the exit code, the thread
#: count and OPENBLAS_NUM_THREADS after
THREAD_PROBE = """
import contextlib, io, json, os, sys

arff, how = sys.argv[1:]
code = None
if how == "cli":
    import ldscreen.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ldscreen.cli.main(["train", "--input", arff])
else:
    import ldscreen
    with open(arff) as f:
        ldscreen.build_tree(ldscreen.parse_arff(f.read()))
import scipy.special
with open("/proc/self/status") as f:
    threads = next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
print(json.dumps([code, threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status here")
@pytest.mark.parametrize(
    "how, preset, code, threads, value",
    [
        # the CLI keeps OpenBLAS to one thread, so numpy and scipy start none
        ("cli", None, 0, 1, "1"),
        ("cli", "3", 0, None, "3"),  # a value the user set wins
        ("library", None, None, None, None),  # a library caller's numpy is its own
    ],
)
def test_cli_runs_numpy_on_one_thread(arff_125, how, preset, code, threads, value):
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, arff_125, how],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    seen_code, seen_threads, seen_value = json.loads(done.stdout)
    assert (seen_code, seen_value) == (code, value)
    if threads is not None:
        assert seen_threads == threads


# --- closed stdout -------------------------------------------------------------


def test_closed_stdout_exits_quietly(arff_gappy):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ldscreen.cli", "rules", "--input", arff_gappy],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 1
