import importlib
import inspect
import json
import math
import multiprocessing
import pickle
import pkgutil
import random
import re
from pathlib import Path

import pytest

from evodial import batch_rl, corpus_io, evolution, simulator, trees
from evodial.cli import main
from evodial.dsl import StateSchema, pretty_print
from evodial.simulator import default_template_text
from support import random_template

TEMPLATE = Path("src/evodial/data/restaurant.policy")


@pytest.fixture()
def template_file(tmp_path):
    path = tmp_path / "policy.template"
    path.write_text(default_template_text(), encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def no_worker_outlives_a_command():
    yield
    assert not multiprocessing.active_children()


def _train_sim_args(template_file, out, seed=1, extra=()):
    return ["train-sim", "--template", str(template_file), "--out", str(out),
            "--seed", str(seed), "--pop", "8", "--n-mut", "2", "--k", "2",
            "--generations", "3", "--episodes", "2", "--noise", "0.0,0.3",
            *extra]


def test_train_sim_writes_artifacts(template_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_sim_args(template_file, out)) == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace) == 5  # header + generations 0..3
    best = json.loads((out / "best_params.json").read_text())
    assert len(best["params"]) == 4
    assert all(0.0 <= v <= 1.0 for v in best["params"])
    policy_text = (out / "policy.txt").read_text()
    assert "Offer(filter=p3)" in policy_text
    assert "# p0 =" in policy_text


def test_train_sim_deterministic(template_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(_train_sim_args(template_file, out_a))
    main(_train_sim_args(template_file, out_b))
    for name in ("trace.csv", "best_params.json", "policy.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_sim_ablate(template_file, tmp_path):
    out = tmp_path / "ablated"
    assert main(_train_sim_args(template_file, out, extra=["--ablate", "c4"])) == 0
    policy_text = (out / "policy.txt").read_text()
    assert "# disabled clauses: c4" in policy_text
    assert policy_text.count("Request") < default_template_text().count("Request") + 1


def test_missing_template_is_config_error(tmp_path):
    code = main(["train-sim", "--template", str(tmp_path / "nope.template"),
                 "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 2


def test_bad_template_is_parse_error(tmp_path):
    bad = tmp_path / "bad.template"
    bad.write_text("bool a\naction X\n%%\nif a then X\n", encoding="utf-8")
    code = main(["train-sim", "--template", str(bad), "--out",
                 str(tmp_path / "o"), "--seed", "1"])
    assert code == 3


def test_make_corpus_and_corpus_evaluate(template_file, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["make-corpus", "--template", str(template_file), "--out",
                 str(corpus), "--seed", "2", "--episodes", "25",
                 "--epsilon", "0.2"]) == 0
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": [0.3, 0.8, 0.5, 0.5]}))
    out = tmp_path / "eval"
    # structural Offer(filter=p3) template cannot be scored on a corpus
    code = main(["evaluate", "--template", str(template_file), "--params",
                 str(params), "--corpus", str(corpus), "--out", str(out),
                 "--seed", "3", "--l-max", "2", "--trees", "4"])
    assert code == 4

    flat = tmp_path / "flat.template"
    flat.write_text(default_template_text().replace("Offer(filter=p3)",
                                                    "Offer"), encoding="utf-8")
    params3 = tmp_path / "params3.json"
    params3.write_text(json.dumps({"params": [0.3, 0.8, 0.5]}))
    code = main(["evaluate", "--template", str(flat), "--params", str(params3),
                 "--corpus", str(corpus), "--out", str(out), "--seed", "3",
                 "--l-max", "2", "--trees", "4"])
    assert code == 0
    assert (out / "corpus_eval.csv").exists()


def test_corrupt_corpus_is_data_error(template_file, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"schema_version": "dlg-v1"}\n')
    flat = tmp_path / "flat.template"
    flat.write_text(default_template_text().replace("Offer(filter=p3)",
                                                    "Offer"), encoding="utf-8")
    code = main(["train-corpus", "--template", str(flat), "--corpus",
                 str(corpus), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code in (3, 4)


def test_evaluate_noise_sweep_rows(template_file, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5]))
    out = tmp_path / "sweep"
    code = main(["evaluate", "--template", str(template_file), "--params",
                 str(params), "--out", str(out), "--seed", "4",
                 "--episodes", "20", "--noise", "0.0:0.6:0.1"])
    assert code == 0
    rows = (out / "noise_sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 8  # header + 7 noise levels


def test_train_corpus_smoke(template_file, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "5", "--episodes", "30", "--epsilon", "0.3"])
    flat = tmp_path / "flat.template"
    flat.write_text(default_template_text().replace("Offer(filter=p3)",
                                                    "Offer"), encoding="utf-8")
    out = tmp_path / "corpus_run"
    code = main(["train-corpus", "--template", str(flat), "--corpus",
                 str(corpus), "--out", str(out), "--seed", "6",
                 "--resamples", "2", "--pop", "6", "--n-mut", "1", "--k", "2",
                 "--generations", "2", "--l-max", "2", "--trees", "4",
                 "--fitness", "qval"])
    assert code == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert rows[0] == "dm,train_mean,train_std,test_mean,test_std"
    names = {r.split(",")[0] for r in rows[1:]}
    assert names == {"GA-NPoints", "GA-QVal", "SL-Original", "SL-MaxQ",
                     "ThresholdedQ"}
    best = json.loads((out / "best_params.json").read_text())
    assert len(best["params"]) == 3


def test_train_corpus_round_predicts_each_matrix_once(template_file, tmp_path,
                                                      monkeypatch):
    # fitted-Q reads l_max - 1 = 2 Q-matrices; the final Q-model and the
    # classifier each predict the train states (both corpus GAs) and each
    # split's open successor states (all three reference policies) once
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "5", "--episodes", "30", "--epsilon", "0.3"])
    calls = {"q_matrix": 0, "predict_proba": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(batch_rl.QModel, "q_matrix")
    counted(trees.ExtraTreesClassifier, "predict_proba")
    monkeypatch.setenv("EVODIAL_WORKERS", "1")
    code = main(["train-corpus", "--template", str(_flat_template(tmp_path)),
                 "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                 "--seed", "6", "--resamples", "1", "--pop", "6", "--n-mut",
                 "1", "--k", "2", "--generations", "2", "--l-max", "3",
                 "--trees", "2"])
    assert code == 0
    assert calls == {"q_matrix": 5, "predict_proba": 3}


def test_structural_template_rejected_for_corpus_training(template_file, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "7", "--episodes", "5"])
    code = main(["train-corpus", "--template", str(template_file), "--corpus",
                 str(corpus), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 4


def test_evaluate_pop_sweep(template_file, tmp_path):
    out = tmp_path / "pops"
    code = main(["evaluate", "--template", str(template_file), "--out",
                 str(out), "--seed", "8", "--pop-sweep", "4,8", "--repeats",
                 "1", "--generations", "2", "--episodes", "2",
                 "--test-episodes", "10", "--noise", "0.0,0.3",
                 "--n-mut", "1", "--k", "2"])
    assert code == 0
    rows = (out / "pop_sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[0] == "pop,train_mean,train_std,test_mean,test_std"


def _flat_template(tmp_path):
    flat = tmp_path / "flat.template"
    flat.write_text(default_template_text().replace("Offer(filter=p3)",
                                                    "Offer"), encoding="utf-8")
    return flat


def test_non_finite_corpus_is_parse_error(template_file, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "5", "--episodes", "4"])
    lines = corpus.read_text().splitlines()
    head, rest = lines[2].split('"s_next": [', 1)
    lines[2] = head + '"s_next": [NaN,' + rest.split(",", 1)[1]
    corpus.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["train-corpus", "--template", str(_flat_template(tmp_path)),
                 "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                 "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 3" in err
    assert "Traceback" not in err


def _outputs_per_worker_count(monkeypatch, tmp_path, argv, names):
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("EVODIAL_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert main(argv + ["--out", str(out)]) == 0
        assert not multiprocessing.active_children()
        outputs.append({name: (out / name).read_bytes() for name in names})
    return outputs


@pytest.mark.parametrize("l_max", ["1", "2", "3"])
def test_train_corpus_parallel_matches_serial(template_file, tmp_path,
                                              monkeypatch, l_max):
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "5", "--episodes", "30", "--epsilon", "0.3"])
    serial, parallel = _outputs_per_worker_count(
        monkeypatch, tmp_path,
        ["train-corpus", "--template", str(_flat_template(tmp_path)),
         "--corpus", str(corpus), "--seed", "6", "--resamples", "2",
         "--pop", "6", "--n-mut", "1", "--k", "2", "--generations", "2",
         "--l-max", l_max, "--trees", "3"],
        ("results.csv", "best_params.json", "policy.txt"))
    assert serial == parallel


def test_noise_sweep_parallel_matches_serial(template_file, tmp_path,
                                             monkeypatch):
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5]))
    serial, parallel = _outputs_per_worker_count(
        monkeypatch, tmp_path,
        ["evaluate", "--template", str(template_file), "--params",
         str(params), "--seed", "4", "--episodes", "10",
         "--noise", "0.0:0.6:0.2"],
        ("noise_sweep.csv",))
    assert serial == parallel


def _corpus_with_dialogs(template_file, tmp_path, n_dialogs):
    """A make-corpus file cut down to its header and first ``n_dialogs``."""
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "5", "--episodes", "3"])
    lines = corpus.read_text().splitlines()
    kept = [lines[0]] + [line for line in lines[1:]
                         if json.loads(line)["dialog_id"] < n_dialogs]
    corpus.write_text("\n".join(kept) + "\n")
    return corpus


@pytest.mark.parametrize("n_dialogs, message", [
    (0, "corpus has no transitions"),
    (1, "resampling round 0 leaves the train split empty (1 dialog)"),
])
def test_train_corpus_without_training_data_is_data_error(
        template_file, tmp_path, capsys, n_dialogs, message):
    corpus = _corpus_with_dialogs(template_file, tmp_path, n_dialogs)
    capsys.readouterr()
    code = main(["train-corpus", "--template", str(_flat_template(tmp_path)),
                 "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                 "--seed", "1", "--resamples", "1", "--l-max", "2",
                 "--trees", "2"])
    err = capsys.readouterr().err
    assert code == 4
    assert message in err
    assert "Traceback" not in err


def test_evaluate_empty_corpus_is_data_error(template_file, tmp_path, capsys):
    corpus = _corpus_with_dialogs(template_file, tmp_path, 0)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"params": [0.3, 0.8, 0.5]}))
    capsys.readouterr()
    code = main(["evaluate", "--template", str(_flat_template(tmp_path)),
                 "--params", str(params), "--corpus", str(corpus),
                 "--out", str(tmp_path / "o"), "--seed", "1",
                 "--l-max", "2", "--trees", "2"])
    err = capsys.readouterr().err
    assert code == 4
    assert "corpus has no transitions" in err
    assert "Traceback" not in err


def _train_corpus_args(template_file, tmp_path, l_max):
    corpus = tmp_path / "corpus.jsonl"
    main(["make-corpus", "--template", str(template_file), "--out",
          str(corpus), "--seed", "5", "--episodes", "12"])
    return ["train-corpus", "--template", str(_flat_template(tmp_path)),
            "--corpus", str(corpus), "--out", str(tmp_path / "o"),
            "--seed", "6", "--resamples", "1", "--pop", "6",
            "--n-mut", "1", "--k", "2", "--generations", "2",
            "--l-max", str(l_max), "--trees", "2"]


@pytest.mark.parametrize("l_max", [1, 3])
def test_train_corpus_sends_each_job_when_its_inputs_exist(
        template_file, tmp_path, monkeypatch, l_max):
    events = []

    class CountingPool(evolution.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            events.append([job[:2] for job in iterables[0]])
            return super().map(fn, *iterables, **kwargs)

    def recording(name, fn):
        def record(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return record

    monkeypatch.setattr(evolution, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(evolution, "run_ga", recording("ga", evolution.run_ga))
    monkeypatch.setattr(batch_rl, "fitted_q_iteration",
                        recording("fqi", batch_rl.fitted_q_iteration))
    monkeypatch.setenv("EVODIAL_WORKERS", "2")
    assert main(_train_corpus_args(template_file, tmp_path, l_max)) == 0
    fqe = [("fqe", 0), ("fqe", 1)]
    early = [("classifier", 0)] + ([("first", 1)] if l_max > 1 else [])
    # the classifier and the test split's first ensemble run beside
    # fitted-Q; the reference policies' FQEs beside the GAs
    assert events == [early, "fqi", fqe, fqe, fqe, "ga", fqe, "ga", fqe]


def test_train_corpus_fits_fitted_q_first_ensemble_once(
        template_file, tmp_path, monkeypatch):
    fits = {"regressor": 0, "classifier": 0}
    for kind, cls in (("regressor", trees.ExtraTreesRegressor),
                      ("classifier", trees.ExtraTreesClassifier)):
        def counting_fit(self, *args, _real=cls.fit, _kind=kind, **kwargs):
            fits[_kind] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "fit", counting_fit)
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    assert main(_train_corpus_args(template_file, tmp_path, 3)) == 0
    # fitted-Q 3, the test split's first FQE ensemble 1, then one fit per
    # policy and split; the train split's first FQE ensemble is fitted-Q's
    assert fits == {"regressor": 3 + 1 + 5 * 2, "classifier": 1}


def test_train_corpus_ga_failure_with_fqe_jobs_in_flight(
        template_file, tmp_path, monkeypatch, capsys):
    def failing_ga(fitness, cfg, n_workers=1):
        raise evolution.FitnessEvaluationFailure(1, 2, ValueError("boom"))

    monkeypatch.setattr(evolution, "run_ga", failing_ga)
    monkeypatch.setenv("EVODIAL_WORKERS", "2")
    argv = _train_corpus_args(template_file, tmp_path, 3)
    capsys.readouterr()
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: fitness evaluation failed at generation 1")
    assert err.count("\n") == 1
    assert not multiprocessing.active_children()


def _edit_header(corpus: Path, edit) -> None:
    lines = corpus.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    corpus.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


def _rename_feature(old, new):
    def edit(header):
        names = header["feature_names"]
        names[names.index(old)] = new
    return edit


def _set_item(key, index, value):
    def edit(header):
        header[key][index] = value
    return edit


def _repeat_first(key):
    def edit(header):
        header[key][1] = header[key][0]
    return edit


def _copy_key(key, new):
    def edit(header):
        header[new] = header[key]
    return edit


_REWARD_TYPES = ("bad header: reward_config must map per_turn, "
                 "correct_offer, duplicate_offer, wrong_offer, gamma to "
                 "numbers, and nothing else (line 1)")


@pytest.mark.parametrize("command", ["train-corpus", "evaluate"])
@pytest.mark.parametrize("edit, code, message", [
    (_set_item("action_set", 0, {"x": 1}), 3,
     "bad header: action_set must be a list of strings (line 1)"),
    (_set_item("feature_names", 1, None), 3,
     "bad header: feature_names must be a list of strings (line 1)"),
    (_repeat_first("action_set"), 3,
     "bad header: action_set repeats 'Welcome' (line 1)"),
    (_rename_feature("filled_count", "turn_frac"), 3,
     "bad header: feature_names repeats 'turn_frac' (line 1)"),
    (_rename_feature("top_slu_score", "slu_score"), 4,
     "the corpus has no 'top_slu_score' feature column"),
    (_rename_feature("top_food", "food_top"), 4,
     "the corpus has no 'top_food' feature column"),
    (_rename_feature("offer_wrong", "wrong_offer"), 4,
     "the corpus has no 'offer_wrong' feature column"),
    (_set_item("reward_config", "per_turn", "-10"), 3, _REWARD_TYPES),
    (_set_item("reward_config", "gamma", True), 3, _REWARD_TYPES),
    (_set_item("reward_config", "bonus", 1.0), 3, _REWARD_TYPES),
    (_copy_key("reward_config", "reward_cfg"), 3,
     "bad header: unknown key 'reward_cfg' (line 1)"),
], ids=["action-not-a-string", "null-feature-name", "repeated-action",
        "repeated-turn-frac", "no-top-slu-score", "no-slot-top-score",
        "no-reward-flag", "string-reward", "boolean-gamma",
        "extra-reward-key", "extra-header-key"])
def test_bad_corpus_header_exits_without_traceback(
        template_file, tmp_path, capsys, command, edit, code, message):
    corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
    _edit_header(corpus, edit)
    argv = [command, "--template", str(_flat_template(tmp_path)),
            "--corpus", str(corpus), "--out", str(tmp_path / "o"),
            "--seed", "1", "--l-max", "2", "--trees", "2"]
    if command == "evaluate":
        params = tmp_path / "params.json"
        params.write_text(json.dumps([0.3, 0.8, 0.5]))
        argv += ["--params", str(params)]
    else:
        argv += ["--resamples", "1"]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, params, ontology, template, code", [
    ("evaluate", {"x": 1}, None, "shipped", 2),
    ("evaluate", [float("nan"), 0.8, 0.5, 0.5], None, "shipped", 2),
    ("evaluate", [0.1, 0.2], None, "shipped", 3),
    ("make-corpus", [5, -1, 0.5, 0.5], None, "shipped", 2),
    ("evaluate", [0.3, 0.8, 0.5, 1.0 + 2 ** -52], None, "shipped", 2),
    ("make-corpus", [0.1, 0.2], None, "shipped", 3),
    ("make-corpus", None, None, "flat", 3),  # the 4 default parameters
    ("evaluate", [0.3, 0.8, 0.5, 0.5], {"slot": []}, "shipped", 2),
    ("evaluate", [0.3, 0.8, 0.5, 0.5], {"slots": {"food": []}}, "shipped",
     2),
    ("evaluate", [0.3, 0.8, 0.5, 0.5], None, "directory", 2),
    # top_slu_score would name two features of the corpus header
    ("make-corpus", [0.3, 0.8, 0.5, 0.5],
     {"slots": {"slu_score": ["a"], "food": ["b"]}}, "shipped", 2),
    ("train-sim", None, {"slots": {}}, "shipped", 2),
    ("evaluate", [0.3, 0.8, 0.5, 0.5], {"slots": {}}, "shipped", 2),
    ("make-corpus", [0.3, 0.8, 0.5, 0.5], {"slots": {}}, "shipped", 2),
    ("evaluate", [0.3, 0.8, 0.5, 0.5],
     {"slots": {"food": ["a"]}, "slot": {"area": ["b"]}}, "shipped", 2),
    ("make-corpus", [0.3, 0.8, 0.5, 0.5],
     {"domain": ["restaurant"], "slots": {"food": ["a"]}}, "shipped", 2),
], ids=["params-object-without-list", "params-nan", "params-too-short",
        "make-corpus-params-outside-0-1", "params-one-ulp-above-1",
        "make-corpus-params-too-short", "make-corpus-default-params",
        "ontology-without-slots", "ontology-slot-without-values",
        "template-is-a-directory", "ontology-slot-named-slu-score",
        "train-sim-ontology-with-empty-slots",
        "evaluate-ontology-with-empty-slots",
        "make-corpus-ontology-with-empty-slots",
        "ontology-with-unknown-key", "ontology-with-non-string-domain"])
def test_bad_input_files_exit_without_traceback(
        template_file, tmp_path, capsys, monkeypatch, command, params,
        ontology, template, code):
    monkeypatch.setenv("EVODIAL_WORKERS", "2")
    templates = {"shipped": template_file, "flat": _flat_template(tmp_path),
                 "directory": tmp_path}
    argv = [command, "--template", str(templates[template]), "--out",
            str(tmp_path / "out"), "--seed", "1", "--noise", "0.1",
            "--episodes", "2"]
    for flag, obj in (("--params", params), ("--ontology", ontology)):
        if obj is not None:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(obj))
            argv += [flag, str(path)]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


_PARAMS_MESSAGE = ("parameters must be a list of numbers in [0, 1], or an "
                   "object with such a 'params' list")


@pytest.mark.parametrize("command", ["evaluate", "make-corpus"])
@pytest.mark.parametrize("params, code", [
    ([True, 0.8, 0.5, 0.5], 2),
    (["0.3", "0.8", "0.5", "0.5"], 2),
    ({"params": [0.3, 0.8, "0.5", 0.5], "fitness": 1.0}, 2),
    ({"params": [0, 1, 0.5, 0.5], "fitness": -3.5, "seed": 1, "ablate": []},
     0),
], ids=["boolean", "numeric-strings", "numeric-string-in-object",
        "best-params-with-integers"])
def test_params_file_values_are_taken_literally(template_file, tmp_path,
                                                capsys, monkeypatch, command,
                                                params, code):
    # a cast would read true as 1.0 and "0.3" as 0.3; the extra keys of a
    # best_params.json stay allowed
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    argv = [command, "--template", str(template_file), "--params", str(path),
            "--out", str(tmp_path / "out"), "--seed", "1",
            *_SMALL_RUN[command]]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err == (f"error: {path}: {_PARAMS_MESSAGE}\n" if code else "")


def test_every_exception_survives_pickling():
    # a worker's exception reaches the parent pickled; one that cannot be
    # rebuilt breaks the pool instead of reporting the error
    import evodial
    samples = {"str": "bad input", "int": 3, "BaseException": ValueError("x")}
    classes = {obj for info in pkgutil.iter_modules(evodial.__path__)
               for obj in vars(importlib.import_module(
                   f"evodial.{info.name}")).values()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__.startswith("evodial")}
    assert {"PolicyError", "FitnessEvaluationFailure", "CorpusParseError",
            "MissingTerminal", "TemplateSyntaxError"} <= \
        {cls.__name__ for cls in classes}
    for cls in classes:
        if cls.__init__ is Exception.__init__:
            exc = cls("bad input")
        else:
            exc = cls(*(samples[p.annotation] for p in
                        inspect.signature(cls).parameters.values()))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
        assert repr(back.__cause__) == repr(exc.__cause__)


_SMALL_RUN = {
    "train-sim": ["--pop", "4", "--n-mut", "1", "--k", "2", "--generations",
                  "1", "--episodes", "1", "--noise", "0.1"],
    "evaluate": ["--episodes", "2", "--noise", "0.1"],
    "pop-sweep": ["--pop-sweep", "2", "--repeats", "1", "--n-mut", "1", "--k",
                  "2", "--generations", "1", "--episodes", "1",
                  "--test-episodes", "2", "--noise", "0.1"],
    "make-corpus": ["--episodes", "2", "--noise", "0.1"],
    "train-corpus": ["--resamples", "1", "--l-max", "2", "--trees", "2"],
}


def _too_early(*args, **kwargs):
    raise AssertionError("work began before the flags were checked")


@pytest.mark.parametrize("run, flags, topic", [
    ("train-sim", ["--noise", "0.2:0.1:0.1"], "noise"),
    ("evaluate", ["--noise", "0.2:0.1:0.1"], "noise"),
    ("make-corpus", ["--noise", "0.2:0.1:0.1"], "noise"),
    ("train-sim", ["--noise", "0.0,1.5"], "noise"),
    ("make-corpus", ["--noise", "-0.1"], "noise"),
    ("train-sim", ["--episodes", "0"], "episodes"),
    ("evaluate", ["--episodes", "0"], "episodes"),
    ("pop-sweep", ["--test-episodes", "0"], "episodes"),
    ("make-corpus", ["--epsilon", "1.5"], "epsilon"),
    ("make-corpus", ["--epsilon", "-0.5"], "epsilon"),
    ("train-sim", ["--sigma", "nan"], "sigma"),
    ("train-sim", ["--sigma", "inf"], "sigma"),
    ("train-corpus", ["--punish", "nan"], "punish"),
    ("make-corpus", ["--episodes", "0"], "episodes"),
    ("pop-sweep", ["--repeats", "0"], "repeats"),
    ("train-corpus", ["--pop", "0"], "n_pop"),
    ("train-corpus", ["--k", "0"], "1 <= k"),
    ("train-corpus", ["--sigma", "0"], "sigma"),
    ("train-corpus", ["--mu-mut", "2"], "mu_mut"),
    ("train-corpus", ["--n-mut", "100"], "n_mut"),
    ("train-sim", ["--ablate", "c1,C1,1"], "clause c1 twice"),
    ("evaluate", ["--ablate", "c2,c0,2"], "clause c2 twice"),
    ("train-sim", ["--ablate", "cc1"], "clause ids"),
    ("evaluate", ["--ablate", "c1,-2"], "clause ids"),
    # without a level count checked first neither schedule ends: a step
    # that leaves the level unchanged, and one that needs 1e300 levels
    ("train-sim", ["--noise", "0.5:1:1e-17"], "10001 levels"),
    ("make-corpus", ["--noise", "0:1:1e-300"], "10001 levels"),
], ids=["train-sim-empty-noise", "evaluate-empty-noise",
        "make-corpus-empty-noise", "train-sim-noise-above-1",
        "make-corpus-noise-below-0", "train-sim-zero-episodes",
        "evaluate-zero-episodes", "pop-sweep-zero-test-episodes",
        "make-corpus-epsilon-above-1", "make-corpus-epsilon-below-0",
        "train-sim-nan-sigma", "train-sim-inf-sigma",
        "train-corpus-nan-punish", "make-corpus-zero-episodes",
        "pop-sweep-zero-repeats", "train-corpus-zero-pop",
        "train-corpus-zero-k", "train-corpus-zero-sigma",
        "train-corpus-mu-mut-above-1", "train-corpus-n-mut-fills-pop",
        "train-sim-repeated-ablate", "evaluate-repeated-ablate",
        "train-sim-ablate-cc1", "evaluate-ablate-negative",
        "train-sim-noise-step-stalls", "make-corpus-noise-step-tiny"])
def test_bad_flags_are_config_errors(template_file, tmp_path, capsys,
                                     monkeypatch, run, flags, topic):
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5]))
    if run == "pop-sweep":
        monkeypatch.setattr(evolution, "run_ga", _too_early)
    if run == "train-corpus":
        corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
        monkeypatch.setattr(corpus_io, "load_corpus", _too_early)
        monkeypatch.setattr(batch_rl, "fitted_q_iteration", _too_early)
        template_file = _flat_template(tmp_path)
        flags = ["--corpus", str(corpus), *flags]
    command = "evaluate" if run == "pop-sweep" else run
    argv = [command, "--template", str(template_file), "--out",
            str(tmp_path / "out"), "--seed", "1", *_SMALL_RUN[run], *flags]
    if run == "evaluate":
        argv += ["--params", str(params)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert topic in err
    assert "Traceback" not in err


_RUNS = ["train-sim", "evaluate", "make-corpus", "train-corpus",
         "evaluate-corpus"]
_FOO = (("num min_slot_score\n", "num min_slot_score\nnum foo\n"),
        ("slot_denied then", "slot_denied or foo > p0 then"))


@pytest.mark.parametrize("run, edits, message", [
    *((run, _FOO, "the dialog state has no number 'foo'") for run in _RUNS),
    # the state's turn_frac is a float: 'slot_denied or turn_frac' raises
    # TypeError on the first turn that reaches the clause
    ("evaluate", (("num min_slot_score\n", "num min_slot_score\nbool "
                   "turn_frac\n"),
                  ("slot_denied then", "slot_denied or turn_frac then")),
     "the dialog state has no bool 'turn_frac'"),
    ("train-corpus", (("bool slot_denied", "num slot_denied"),
                      ("slot_denied then", "slot_denied > p0 then")),
     "the dialog state has no number 'slot_denied'")],
    ids=[*_RUNS, "evaluate-bool-number", "train-corpus-number-bool"])
def test_template_reading_an_unknown_variable_exits_before_any_work(
        template_file, tmp_path, capsys, monkeypatch, run, edits, message):
    # the variable is declared, so the template parses, but no state
    # provides it as declared
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
    for owner, name in ((simulator, "run_episode"), (evolution, "run_ga"),
                        (corpus_io, "load_corpus")):
        monkeypatch.setattr(owner, name, _too_early)
    text = default_template_text()
    for old, new in edits:
        text = text.replace(old, new)
    if run in ("train-corpus", "evaluate-corpus"):
        text = text.replace("Offer(filter=p3)", "Offer")
    template = tmp_path / "foo.template"
    template.write_text(text, encoding="utf-8")
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5] if "filter" in text
                                 else [0.3, 0.8, 0.5]))
    command = "evaluate" if run == "evaluate-corpus" else run
    argv = [command, "--template", str(template), "--out",
            str(tmp_path / "out"), "--seed", "1"]
    argv += {"train-sim": _SMALL_RUN["train-sim"],
             "evaluate": [*_SMALL_RUN["evaluate"], "--params", str(params)],
             "make-corpus": _SMALL_RUN["make-corpus"],
             "train-corpus": [*_SMALL_RUN["train-corpus"], "--corpus",
                              str(corpus)],
             "evaluate-corpus": ["--params", str(params), "--corpus",
                                 str(corpus)]}[run]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("run, code", [
    ("train-sim", 3), ("evaluate", 3), ("pop-sweep", 3), ("make-corpus", 3),
    # a corpus fitness punishes a label outside the corpus's action set
    ("train-corpus", 0), ("evaluate-corpus", 0)])
def test_template_action_outside_the_simulator_is_rejected_before_any_work(
        template_file, tmp_path, capsys, monkeypatch, run, code):
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
    if code:
        for owner, name in ((simulator, "run_episode"),
                            (evolution, "run_ga")):
            monkeypatch.setattr(owner, name, _too_early)
    text = default_template_text().replace(
        "action Offer\n", "action Offer\naction Foo\n").replace(
        "if dialog_begin then Welcome", "if dialog_begin then Foo")
    if run in ("train-corpus", "evaluate-corpus"):
        text = text.replace("Offer(filter=p3)", "Offer")
    template = tmp_path / "foo.template"
    template.write_text(text, encoding="utf-8")
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5] if "=p3" in text
                                 else [0.3, 0.8, 0.5]))
    command = {"pop-sweep": "evaluate",
               "evaluate-corpus": "evaluate"}.get(run, run)
    argv = [command, "--template", str(template), "--out",
            str(tmp_path / "out"), "--seed", "1"]
    argv += {"evaluate": [*_SMALL_RUN["evaluate"], "--params", str(params)],
             "train-corpus": [*_SMALL_RUN["train-corpus"], "--corpus",
                              str(corpus), "--pop", "4", "--n-mut", "1",
                              "--k", "2", "--generations", "1"],
             "evaluate-corpus": ["--params", str(params), "--corpus",
                                 str(corpus), "--l-max", "2", "--trees", "2"]
             }.get(run, _SMALL_RUN.get(run))
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == \
        ("error: the simulated user knows no action 'Foo'\n" if code else "")


@pytest.mark.parametrize("command", ["train-corpus", "evaluate"])
def test_oversized_corpus_integer_is_parse_error(template_file, tmp_path,
                                                 capsys, command):
    corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
    lines = corpus.read_text().splitlines()
    lines[2] = lines[2].replace('"dialog_id": 0', '"dialog_id": ' + "9" * 5000)
    corpus.write_text("\n".join(lines) + "\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5]))
    argv = [command, "--template", str(_flat_template(tmp_path)), "--corpus",
            str(corpus), "--out", str(tmp_path / "o"), "--seed", "1",
            *(["--params", str(params)] if command == "evaluate"
              else _SMALL_RUN["train-corpus"])]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad transition record: Exceeds the limit")
    assert err.endswith(" (line 3)\n") and err.count("\n") == 1


def _repeat_header_key(text, key):
    header = json.loads(text)
    return text[:-1] + f", {json.dumps(key)}: {json.dumps(header[key])}}}"


@pytest.mark.parametrize("kind, text, code, message", [
    ("ontology", '{"slots": {"food": ["a"], "food": ["b"]}}', 2,
     "{path}: repeated key 'food'"),
    ("ontology", '{"slots": {"food": ["a"]}, "slots": {"area": ["b"]}}', 2,
     "{path}: repeated key 'slots'"),
    ("params", '{"params": [0.3, 0.8, 0.5, 0.5], "params": [1, 1, 1, 1]}',
     2, "{path}: repeated key 'params'"),
    ("corpus", "feature_names", 3,
     "bad header: repeated key 'feature_names' (line 1)"),
], ids=["ontology-slot", "ontology-slots", "params", "corpus-header"])
def test_repeated_json_keys_are_rejected(template_file, tmp_path, capsys,
                                         kind, text, code, message):
    # json keeps the last of repeated keys; each of these inputs used to run
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5]))
    argv = ["evaluate", "--out", str(tmp_path / "out"), "--seed", "1",
            "--noise", "0.1", "--episodes", "2"]
    path = tmp_path / f"{kind}.json"
    if kind == "corpus":
        path = _corpus_with_dialogs(template_file, tmp_path, 3)
        lines = path.read_text().splitlines()
        lines[0] = _repeat_header_key(lines[0], text)
        path.write_text("\n".join(lines) + "\n")
        params.write_text(json.dumps([0.3, 0.8, 0.5]))
        argv += ["--template", str(_flat_template(tmp_path)), "--corpus",
                 str(path), "--params", str(params)]
    else:
        path.write_text(text)
        if kind == "ontology":
            argv += ["--params", str(params)]
        argv += ["--template", str(template_file), f"--{kind}", str(path)]
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == \
        f"error: {message.format(path=path)}\n"


def _fuzz_strategies(st, header):
    """Strategies of invalid ontology texts and invalid corpus headers, the
    latter as edits of the valid ``header``."""
    leaves = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=4))
    values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3), max_leaves=6)
    non_dict = values.filter(lambda v: not isinstance(v, dict))
    non_list = values.filter(lambda v: not isinstance(v, list))
    not_strings = st.lists(values, min_size=1, max_size=3).filter(
        lambda v: not all(isinstance(x, str) for x in v))
    slot_values = st.lists(st.text(max_size=4), min_size=1, max_size=3)
    slots = st.dictionaries(st.text(max_size=6), slot_values, max_size=3)

    def with_slot(good, name, bad):
        return {"slots": {**good, name: bad}}

    ontologies = st.one_of(
        st.just({"slots": {}}), non_dict,
        st.dictionaries(st.text(max_size=6).filter(lambda k: k != "slots"),
                        values, max_size=3),
        non_dict.map(lambda v: {"slots": v}),
        st.builds(with_slot, slots, st.text(max_size=6),
                  non_list | st.just([]) | not_strings),
        st.builds(with_slot, slots, st.just("slu_score"), slot_values))
    # a strict prefix of an object's JSON text is never valid JSON, and
    # that of any other value never an object
    truncated = st.builds(lambda text, cut: text[:int(len(text) * cut)],
                          ontologies.map(json.dumps),
                          st.floats(0, 1, exclude_max=True))
    ontology_texts = ontologies.map(json.dumps) | truncated

    reward_keys = st.sampled_from(sorted(header["reward_config"]))
    top_keys = st.sampled_from(sorted(header))

    def edited(key, sub=None, value=None, drop=False):
        new = json.loads(json.dumps(header))
        owner = new if sub is None else new[sub]
        if drop:
            del owner[key]
        else:
            owner[key] = value
        return new

    non_number = values.filter(lambda v: type(v) not in (int, float))
    string_numbers = (st.integers() | st.floats()).map(str)
    huge = st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024)
    bad_gamma = (st.integers() | st.floats(allow_nan=False)).filter(
        lambda g: not 0 < g <= 1)
    headers = st.one_of(
        st.builds(edited, reward_keys, st.just("reward_config"),
                  non_number | string_numbers | huge
                  | st.sampled_from([math.nan, math.inf, -math.inf])),
        st.builds(edited, st.just("gamma"), st.just("reward_config"),
                  bad_gamma),
        st.builds(edited, reward_keys, st.just("reward_config"),
                  drop=st.just(True)),
        st.builds(edited, st.text(max_size=6).filter(
            lambda k: k not in header["reward_config"]),
            st.just("reward_config"), values),
        st.builds(edited, st.just("reward_config"), value=non_dict),
        st.builds(edited, top_keys, drop=st.just(True)),
        st.builds(edited, st.sampled_from(["feature_names", "action_set"]),
                  value=non_list | not_strings),
        st.builds(edited, st.just("schema_version"),
                  value=values.filter(lambda v: v != "dlg-v1")),
        non_dict)
    return ontology_texts, headers


def test_fuzzed_ontology_and_corpus_header_exit_without_traceback(
        template_file, tmp_path, capsys, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    lines = _corpus_with_dialogs(template_file, tmp_path, 3).read_text() \
        .splitlines()
    ontology_texts, headers = _fuzz_strategies(st, json.loads(lines[0]))
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5]))
    params3 = tmp_path / "params3.json"
    params3.write_text(json.dumps([0.3, 0.8, 0.5]))
    flat, ontology, corpus = (_flat_template(tmp_path),
                              tmp_path / "ontology.json",
                              tmp_path / "fuzzed.jsonl")
    small = ["--out", str(tmp_path / "out"), "--seed", "1", "--episodes", "2",
             "--noise", "0.1"]
    ontology_runs = [
        ["train-sim", "--template", str(template_file), *small, "--pop", "4",
         "--n-mut", "1", "--k", "2", "--generations", "1"],
        ["evaluate", "--template", str(template_file), "--params",
         str(params), *small],
        ["make-corpus", "--template", str(template_file), *small]]
    corpus_runs = [
        ["train-corpus", "--template", str(flat), "--corpus", str(corpus),
         "--out", str(tmp_path / "out"), "--seed", "1", "--resamples", "1",
         "--l-max", "2", "--trees", "2", "--pop", "4", "--n-mut", "1",
         "--k", "2", "--generations", "1"],
        ["evaluate", "--template", str(flat), "--params", str(params3),
         "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--seed",
         "1", "--l-max", "2", "--trees", "2"]]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(case=st.one_of(
        ontology_texts.map(lambda text: ("ontology", text)),
        headers.map(lambda obj: ("corpus", json.dumps(obj)))))
    def check(case):
        kind, text = case
        if kind == "ontology":
            ontology.write_text(text, encoding="utf-8")
            runs = [argv + ["--ontology", str(ontology)]
                    for argv in ontology_runs]
        else:
            corpus.write_text("\n".join([text] + lines[1:]) + "\n",
                              encoding="utf-8")
            runs = corpus_runs
        for argv in runs:
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert 2 <= code <= 5, (argv[0], text, code)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err

    check()


_TEMPLATE_TOKENS = ("if", "then", "else", "and", "or", "(", ")", "<", ">",
                    "==", "=", ",", "p0", "p3", "p9", "p-1", "%%", "#", "\n",
                    "bool", "num", "action", "foo", "lambda", "__import__",
                    "s", "get", "Offer(filter=p0)", "Offer(p0=filter)", "é",
                    "\x00", "1e5", "(" * 101, " or slu_empty" * 101,
                    "bool slu_empty\n", "bool turn_frac\n",
                    "action Repeat\n")


def _template_texts(st, shipped: str):
    """The shipped template with tokens deleted or inserted, and random
    templates over state variables and odd names."""
    pieces = re.split(r"(\s+)", shipped)

    def edited(edits):
        out = list(pieces)
        for position, token in edits:
            i = int(position * len(out))
            out[i:i + 1] = [token] if token is not None else []
        return "".join(out)

    edits = st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                               st.none() | st.sampled_from(_TEMPLATE_TOKENS)),
                     min_size=1, max_size=3)
    names = st.lists(st.sampled_from(
        ("dialog_begin", "slu_empty", "slot_denied", "top_slu_score",
         "min_slot_score", "turn_frac", "lambda", "s", "__import__")),
        min_size=2, max_size=5, unique=True)
    schemas = names.flatmap(lambda n: st.integers(1, len(n) - 1).map(
        lambda k: StateSchema(tuple(n[:k]), tuple(n[k:]),
                              ("Welcome", "Repeat", "Request", "Offer"))))
    generated = st.builds(
        lambda schema, seed: pretty_print(random_template(
            random.Random(seed), schema=schema)),
        schemas, st.integers(0, 2 ** 32))
    return edits.map(edited) | generated


def test_fuzzed_templates_exit_without_traceback(template_file, tmp_path,
                                                 capsys, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
    params = tmp_path / "params.json"
    params.write_text(json.dumps([0.3, 0.8, 0.5, 0.5]))
    template = tmp_path / "fuzzed.template"
    common = ["--template", str(template), "--out", str(tmp_path / "out"),
              "--seed", "1"]
    runs = {"train-sim": ["train-sim", *_SMALL_RUN["train-sim"]],
            "evaluate": ["evaluate", *_SMALL_RUN["evaluate"], "--params",
                         str(params)],
            "make-corpus": ["make-corpus", *_SMALL_RUN["make-corpus"]],
            "train-corpus": ["train-corpus", *_SMALL_RUN["train-corpus"],
                             "--corpus", str(corpus), "--pop", "4",
                             "--n-mut", "1", "--k", "2", "--generations", "1"],
            "evaluate-corpus": ["evaluate", "--params", str(params),
                                "--corpus", str(corpus), "--l-max", "2",
                                "--trees", "2"]}

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(text=_template_texts(st, default_template_text()),
                      run=st.sampled_from(sorted(runs)))
    def check(text, run):
        template.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(runs[run][:1] + common + runs[run][1:])
        err = capsys.readouterr().err
        assert code == 0 or 2 <= code <= 5, (run, text, code)
        assert code == 0 or (err.startswith("error: ")
                             and err.count("\n") == 1), err
        assert "Traceback" not in err

    check()


def _params_texts(st):
    """``--params`` file texts: lists and objects of JSON values near a
    valid parameter list, with extra keys, non-finite and huge numbers,
    repeated keys, and truncated texts."""
    numbers = (st.floats(0, 1) | st.integers(0, 1) | st.floats()
               | st.integers() | st.integers(min_value=2 ** 1024))
    leaves = (numbers | st.none() | st.booleans()
              | st.text(max_size=4) | numbers.map(str))
    values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=5)
                          | st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3), max_leaves=8)
    in_range = st.floats(0, 1) | st.integers(0, 1)
    lists = (st.lists(in_range, min_size=4, max_size=4)
             | st.lists(in_range, min_size=3, max_size=5)
             | st.lists(leaves, max_size=5))
    objects = st.builds(lambda params, extra: {**extra, "params": params},
                        lists | values, st.dictionaries(
                            st.sampled_from(["fitness", "seed", "ablate",
                                             "round"]), values, max_size=3))
    texts = (lists | objects | values).map(json.dumps)
    truncated = st.builds(lambda text, cut: text[:int(len(text) * cut)],
                          texts, st.floats(0, 1, exclude_max=True))
    repeated = lists.map(lambda params: '{"params": %s, "params": %s}'
                         % (json.dumps(params), json.dumps(params)))
    return texts | truncated | repeated


def test_fuzzed_params_files_exit_without_traceback(template_file, tmp_path,
                                                    capsys, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.delenv("EVODIAL_WORKERS", raising=False)
    corpus = _corpus_with_dialogs(template_file, tmp_path, 3)
    params = tmp_path / "fuzzed.json"
    common = ["--params", str(params), "--out", str(tmp_path / "out"),
              "--seed", "1"]
    runs = {"evaluate": ["evaluate", "--template", str(template_file),
                         *_SMALL_RUN["evaluate"]],
            "make-corpus": ["make-corpus", "--template", str(template_file),
                            *_SMALL_RUN["make-corpus"]],
            "evaluate-corpus": ["evaluate", "--template",
                                str(_flat_template(tmp_path)), "--corpus",
                                str(corpus), "--l-max", "2", "--trees", "2"]}

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(text=_params_texts(st), run=st.sampled_from(sorted(runs)))
    def check(text, run):
        params.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(runs[run] + common)
        err = capsys.readouterr().err
        assert code == 0 or 2 <= code <= 5, (run, text, code)
        assert code == 0 or (err.startswith("error: ")
                             and err.count("\n") == 1), err
        assert "Traceback" not in err

    check()
