"""Command-line experiment runners.

Subcommands reproduce the standard protocols: online GA training against the
simulated user, corpus-side GA training with the batch-RL fitness signals,
policy evaluation (noise sweeps, population sweeps, off-policy corpus
scores), and synthetic corpus generation.  All outputs are CSV or JSON and
byte-stable for a fixed seed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import batch_rl, corpus_io, dsl, evolution, simulator
from .core import (ACTIONS, CORPUS_REWARDS, SIM_REWARDS,
                   template_feature_columns)

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5

_PARSE_ERRORS = (dsl.TemplateError, corpus_io.CorpusParseError)
_DATA_ERRORS = (corpus_io.SchemaMismatch, corpus_io.MissingTerminal,
                batch_rl.MalformedEpisode)
_NUMERIC_ERRORS = (evolution.FitnessEvaluationFailure,)


def _workers() -> int:
    return max(1, int(os.environ.get("EVODIAL_WORKERS", "1")))


def _noise_level(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"noise level {x} lies outside [0, 1]")
    return x


def _parse_levels(text: str) -> tuple[float, ...]:
    """Noise levels in [0, 1], either 'a,b,c' or 'lo:hi:step' (inclusive
    endpoints); at least one."""
    if ":" in text:
        lo, hi, step = (float(x) for x in text.split(":"))
        if not step > 0:
            raise ValueError("noise step must be positive")
        # the loop below makes about (hi - lo) / step + 1 levels
        if lo + step == lo or (hi + 1e-9 - lo) / step >= 10_001:
            raise ValueError(f"noise schedule {text!r} would hold more than "
                             f"10001 levels")
        levels = []
        x = lo
        while x <= hi + 1e-9:
            levels.append(_noise_level(round(x, 10)))
            x += step
    else:
        levels = [_noise_level(float(x)) for x in text.split(",")]
    if not levels:
        raise ValueError(f"noise schedule {text!r} holds no level")
    return tuple(levels)


def _parse_ablate(text: str) -> list[int]:
    ids = []
    for part in text.split(","):
        match = re.fullmatch(r"c?([0-9]+)", part.strip().lower())
        if match is None:
            raise ValueError(f"--ablate takes clause ids such as c4 or 4, "
                             f"got {part!r}")
        clause = int(match[1])
        if clause in ids:
            raise ValueError(f"--ablate names clause c{clause} twice")
        ids.append(clause)
    return ids


def _load_template(path: str, ablate_ids=None, simulated: bool = True):
    """The template at ``path``; a ``simulated`` one may pick only the acts
    that the simulated user answers, while a corpus fitness punishes a label
    outside the corpus's action set."""
    source = Path(path).read_text(encoding="utf-8")
    ast = dsl.parse_template(source)
    if ablate_ids:
        ast = dsl.ablate(ast, ablate_ids)
    dsl.check_state_variables(ast)
    for clause in ast.clauses:
        if simulated and clause.action.act not in ACTIONS:
            raise dsl.TemplateValidationError(
                f"the simulated user knows no action {clause.action.act!r}")
    return ast


def _load_params(path: str | None, ast) -> np.ndarray:
    """The template's parameter vector in [0, 1] from a JSON file (a list,
    or an object with a 'params' list); without a file, the heuristic
    defaults."""
    values, source = simulator.HEURISTIC_PARAMS, "default parameters"
    if path:
        with open(path, encoding="utf-8") as fp:
            try:
                obj = json.load(
                    fp, object_pairs_hook=corpus_io.reject_repeated_keys)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        values = obj.get("params") if isinstance(obj, dict) else obj
        source = path
    # exact types, since a cast would read true or "0.3" as a number; NaN
    # fails both comparisons
    if not (type(values) in (list, tuple) and all(
            type(v) in (int, float) and 0.0 <= v <= 1.0 for v in values)):
        raise ValueError(f"{source}: parameters must be a list of numbers "
                         f"in [0, 1], or an object with such a 'params' list")
    if len(values) != ast.param_count:
        raise dsl.ArityMismatch(f"{source}: template takes {ast.param_count} "
                                f"parameters, got {len(values)}")
    return np.array(values, dtype=np.float64)


def _load_ontology(args) -> simulator.Ontology:
    if getattr(args, "ontology", None):
        return simulator.load_ontology(args.ontology)
    return simulator.default_ontology()


def _load_corpus(path: str) -> corpus_io.Corpus:
    """The corpus at ``path``; its features must hold every column that
    the template variables and the rewards read."""
    corpus = corpus_io.load_corpus(path)
    header = corpus.header
    header.require_columns(template_feature_columns(header.feature_names)
                           + corpus_io.REWARD_COLUMNS)
    return corpus


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, headers, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _policy_artifact(ast, params, ablate_ids=None) -> str:
    lines = [dsl.pretty_print(ast).rstrip("\n"), "", "# bound parameter values:"]
    for i, value in enumerate(params):
        lines.append(f"# p{i} = {float(value)!r}")
    if ablate_ids:
        lines.append("# disabled clauses: " + ", ".join(f"c{i}" for i in sorted(ablate_ids)))
    return "\n".join(lines) + "\n"


def _ga_config(args) -> evolution.GaConfig:
    return evolution.GaConfig(
        n_pop=args.pop, n_mut=args.n_mut, t_max=args.generations, k=args.k,
        sigma=args.sigma, mu_mut=args.mu_mut, seed=args.seed,
        convergence_window=args.convergence_window)


def _add_ga_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pop", type=int, default=100, help="population size")
    parser.add_argument("--generations", type=int, default=30)
    parser.add_argument("--n-mut", type=int, default=5,
                        help="mutants of the fittest per generation")
    parser.add_argument("--k", type=int, default=3, help="tournament size")
    parser.add_argument("--sigma", type=float, default=2.0,
                        help="perturbation scale")
    parser.add_argument("--mu-mut", type=float, default=0.25,
                        help="per-gene mutation probability")
    parser.add_argument("--convergence-window", type=int, default=None,
                        help="stop after this many generations without "
                             "improvement (default: run all generations)")


def cmd_train_sim(args) -> int:
    ablate_ids = _parse_ablate(args.ablate) if args.ablate else None
    ast = _load_template(args.template, ablate_ids)
    ontology = _load_ontology(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fitness = simulator.SimulationFitness(
        ast, ontology, SIM_REWARDS, n_episodes=args.episodes,
        schedule=_parse_levels(args.noise))
    best, trace = evolution.run_ga(fitness, _ga_config(args), n_workers=_workers())
    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fp:
        trace.write_csv(fp)
    _write_json(out / "best_params.json", {
        "params": [float(v) for v in best.genome],
        "fitness": best.fitness,
        "seed": args.seed,
        "ablate": sorted(ablate_ids) if ablate_ids else [],
    })
    (out / "policy.txt").write_text(_policy_artifact(ast, best.genome, ablate_ids),
                                    encoding="utf-8")
    print(f"best fitness {best.fitness:.4f} after {len(trace.rows) - 1} generations")
    return 0


_DM_NAMES = ("GA-NPoints", "GA-QVal", "SL-Original", "SL-MaxQ",
             "ThresholdedQ")


def _round_job(shared, job):
    """One pool job of a train-corpus round, on split ``job[1]``: the
    behaviour classifier, a first FQE ensemble, or one policy's FQE."""
    problems, cfg = shared
    kind, split, *args = job
    if kind == "classifier":
        return batch_rl.fit_action_classifier(problems[split].corpus, cfg)
    if kind == "first":
        return batch_rl.first_fqe_ensemble(problems[split], cfg)
    pi_next, first = args
    return batch_rl.fitted_q_evaluation(problems[split], [pi_next], cfg,
                                        first)[0]


def _corpus_round(splits, ast, fq_cfg, qv_cfg, ga_cfg):
    """One resampling round of train-corpus on ``splits`` (train, test).

    Returns each policy's FQE scores ``[train, test]`` by name, collected
    in ``_DM_NAMES`` order, and the corpus GAs' parameters.  Each job goes
    to the pool as soon as its inputs exist, while the parent fits the
    Q-model and then runs the GAs.  Each split's ``FqeProblem`` is built
    once, before the pool starts, and serves fitted-Q and all of the
    split's FQE jobs.  The final Q-model and the classifier predict each
    split's open successor states once for all three reference policies,
    and the train states once for both corpus GAs.
    """
    train, header = splits[0], splits[0].header
    problems = [batch_rl.FqeProblem.of(split) for split in splits]
    with evolution.worker_map(_round_job, (problems, fq_cfg),
                              _workers()) as map_jobs:
        early = map_jobs([("classifier", 0)] + (
            [("first", 1)] if fq_cfg.l_max > 1 else []))
        firsts = [None, None]  # per split, for l_max > 1

        def keep_first(l, Q, reg):
            # fitted-Q's first ensemble is the train split's FQE one
            if l == 1 < fq_cfg.l_max:
                firsts[0] = reg

        q = batch_rl.fitted_q_iteration(problems[0], fq_cfg, keep_first)
        clf = next(early)
        if fq_cfg.l_max > 1:
            firsts[1] = next(early)

        def fqe_jobs(pi_nexts):  # one array per split
            return map_jobs([("fqe", i, pi_next, firsts[i])
                             for i, pi_next in enumerate(pi_nexts)])

        references = [batch_rl.reference_next_actions(q, clf, qv_cfg, split)
                      for split in splits]
        values = {name: fqe_jobs([ref[name] for ref in references])
                  for name in references[0]}
        params_by_dm = {}
        qval = batch_rl.CorpusFitness(ast, train.S, header.feature_names,
                                      "qval", q, clf, qv_cfg)
        for name, fitness in (("GA-NPoints", qval.as_npoints()),
                              ("GA-QVal", qval)):
            # a corpus fitness call takes ~0.1 ms: dispatch would cost more
            best, _ = evolution.run_ga(fitness, ga_cfg, n_workers=1)
            policy = batch_rl.template_corpus_policy(
                ast, best.genome, header.feature_names, header.action_set)
            params_by_dm[name] = [float(v) for v in best.genome]
            values[name] = fqe_jobs([batch_rl.policy_next_actions(policy, split)
                                     for split in splits])
        return {name: list(values[name]) for name in _DM_NAMES}, params_by_dm


def cmd_train_corpus(args) -> int:
    # check the flags that need no corpus before reading it
    ga_cfg = _ga_config(args)
    ga_cfg.validate()
    qv_cfg = batch_rl.QValConfig(delta=args.delta, r_punish=args.punish)
    plan = corpus_io.ResamplePlan(n_rounds=args.resamples, seed=args.seed)
    ast = _load_template(args.template, simulated=False)
    if ast.has_structural_params:
        raise dsl.StructuralParamForbidden(
            "corpus training needs a template without structural action "
            "parameters")
    corpus = _load_corpus(args.corpus)
    header, n_dialogs = corpus.header, corpus.n_dialogs
    print(f"corpus: {n_dialogs} dialogs, {len(corpus)} transitions")
    fq_cfg = batch_rl.FittedQConfig(
        l_max=args.l_max, gamma=header.reward_config.gamma, trees=args.trees,
        n_min=args.n_min, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scores = {d: {"train": [], "test": []} for d in _DM_NAMES}
    chosen = "GA-QVal" if args.fitness == "qval" else "GA-NPoints"
    best_rounds = []
    if not len(corpus):
        raise batch_rl.MalformedEpisode("corpus has no transitions")
    for r, (train, test) in enumerate(corpus_io.resample_splits(corpus, plan)):
        if not len(train):  # the test side always keeps at least one dialog
            raise batch_rl.MalformedEpisode(
                f"resampling round {r} leaves the train split empty "
                f"({n_dialogs} dialog{'' if n_dialogs == 1 else 's'})")
        values, params_by_dm = _corpus_round((train, test), ast, fq_cfg,
                                             qv_cfg, ga_cfg)
        for name in _DM_NAMES:
            for split_name, value in zip(("train", "test"), values[name]):
                scores[name][split_name].append(value)
        best_rounds.append({"round": r, "params": params_by_dm[chosen],
                            "test_score": scores[chosen]["test"][-1]})
        print(f"round {r}: {chosen} test score "
              f"{scores[chosen]['test'][-1]:.2f}")
    rows = []
    for name in _DM_NAMES:
        tr = np.array(scores[name]["train"])
        te = np.array(scores[name]["test"])
        rows.append([name, float(tr.mean()), float(tr.std()),
                     float(te.mean()), float(te.std())])
    _write_csv(out / "results.csv",
               ["dm", "train_mean", "train_std", "test_mean", "test_std"], rows)
    top = max(best_rounds, key=lambda b: b["test_score"])
    _write_json(out / "best_params.json", {
        "params": top["params"], "fitness_mode": args.fitness,
        "round": top["round"], "test_score": top["test_score"],
        "seed": args.seed})
    (out / "policy.txt").write_text(_policy_artifact(ast, top["params"]),
                                    encoding="utf-8")
    return 0


def _sweep_level(shared, rate: float) -> list:
    ast, params, ontology, episodes, seed = shared
    res = simulator.evaluate_policy_sim(
        simulator.template_policy(ast, params), ontology, SIM_REWARDS,
        episodes, seed, error_rate=rate)
    return [rate, res.mean_reward, float(res.rewards.std()), res.mean_length,
            float(res.lengths.std()), res.completion_rate]


def _noise_sweep(args, ast, params, ontology, out: Path) -> None:
    rows = evolution.parallel_map(
        _sweep_level, _parse_levels(args.noise), _workers(),
        (ast, params, ontology, args.episodes, args.seed))
    _write_csv(out / "noise_sweep.csv",
               ["error_rate", "mean_reward", "std_reward", "mean_length",
                "std_length", "completion_rate"], rows)


def _pop_sweep(args, ast, ontology, out: Path) -> None:
    pops = [int(x) for x in args.pop_sweep.split(",")]
    for flag, value in (("--repeats", args.repeats),
                        ("--test-episodes", args.test_episodes)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    rows = []
    for pop in pops:
        train_scores, test_scores = [], []
        for rep in range(args.repeats):
            cfg = evolution.GaConfig(
                n_pop=pop, n_mut=min(args.n_mut, max(0, pop - 1)),
                t_max=args.generations, k=min(args.k, pop), sigma=args.sigma,
                mu_mut=args.mu_mut, seed=args.seed + rep,
                convergence_window=args.convergence_window)
            fitness = simulator.SimulationFitness(
                ast, ontology, SIM_REWARDS, n_episodes=args.episodes,
                schedule=_parse_levels(args.noise))
            best, _ = evolution.run_ga(fitness, cfg, n_workers=_workers())
            policy = simulator.template_policy(ast, best.genome)
            res = simulator.evaluate_policy_sim(
                policy, ontology, SIM_REWARDS, args.test_episodes,
                args.seed + rep, schedule=_parse_levels(args.noise))
            train_scores.append(best.fitness)
            test_scores.append(res.mean_reward)
        tr, te = np.array(train_scores), np.array(test_scores)
        rows.append([pop, float(tr.mean()), float(tr.std()),
                     float(te.mean()), float(te.std())])
    _write_csv(out / "pop_sweep.csv",
               ["pop", "train_mean", "train_std", "test_mean", "test_std"], rows)


def cmd_evaluate(args) -> int:
    ast = _load_template(args.template,
                         _parse_ablate(args.ablate) if args.ablate else None,
                         simulated=bool(args.pop_sweep or not args.corpus))
    ontology = _load_ontology(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.pop_sweep:
        _pop_sweep(args, ast, ontology, out)
        return 0
    if not args.params:
        raise ValueError("--params is required unless --pop-sweep is given")
    params = _load_params(args.params, ast)
    if args.corpus:
        corpus = _load_corpus(args.corpus)
        header = corpus.header
        cfg = batch_rl.FittedQConfig(
            l_max=args.l_max, gamma=header.reward_config.gamma,
            trees=args.trees, n_min=args.n_min, seed=args.seed)
        policy = batch_rl.template_corpus_policy(
            ast, params, header.feature_names, header.action_set)
        score = batch_rl.evaluate_policy_on_corpus(policy, corpus, cfg)
        _write_csv(out / "corpus_eval.csv", ["policy", "score"],
                   [["template", score]])
        print(f"estimated starting-turn value: {score:.3f}")
        return 0
    _noise_sweep(args, ast, params, ontology, out)
    return 0


def cmd_make_corpus(args) -> int:
    ast = _load_template(args.template)
    params = _load_params(args.params, ast)
    ontology = _load_ontology(args)
    rewards = CORPUS_REWARDS if args.rewards == "corpus" else SIM_REWARDS
    corpus = simulator.make_synthetic_corpus(
        ast, params, ontology, args.episodes, args.seed, rewards,
        schedule=_parse_levels(args.noise), epsilon=args.epsilon)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    corpus_io.save_corpus(str(out), corpus)
    print(f"wrote {corpus.n_dialogs} dialogs / {len(corpus)} transitions "
          f"to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evodial",
        description="Genetic optimization of templated dialog policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-sim", help="optimize a template against the "
                                         "simulated user")
    p.add_argument("--template", required=True)
    p.add_argument("--ontology")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--episodes", type=int, default=16,
                   help="episodes per fitness evaluation")
    p.add_argument("--noise", default="0.0:0.6:0.1",
                   help="noise schedule, 'a,b,c' or 'lo:hi:step'")
    p.add_argument("--ablate", help="disable clauses, e.g. 'c4' or 'c3,c4'")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_train_sim)

    p = sub.add_parser("train-corpus", help="optimize a template against a "
                                            "dialog corpus")
    p.add_argument("--template", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fitness", choices=("npoints", "qval"), default="qval")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--punish", type=float, default=-100.0)
    p.add_argument("--resamples", type=int, default=12)
    p.add_argument("--l-max", type=int, default=20)
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--n-min", type=int, default=5)
    _add_ga_flags(p)
    p.set_defaults(func=cmd_train_corpus)

    p = sub.add_parser("evaluate", help="noise sweeps, population sweeps and "
                                        "off-policy corpus scores")
    p.add_argument("--template", required=True)
    p.add_argument("--params", help="JSON file with the bound parameters")
    p.add_argument("--ontology")
    p.add_argument("--corpus", help="score the policy on this corpus instead "
                                    "of running simulations")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--test-episodes", type=int, default=1000)
    p.add_argument("--noise", default="0.0:0.6:0.1")
    p.add_argument("--ablate")
    p.add_argument("--pop-sweep", help="comma list of population sizes to "
                                       "train and test")
    p.add_argument("--repeats", type=int, default=5,
                   help="seeded repetitions per sweep point")
    p.add_argument("--l-max", type=int, default=20)
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--n-min", type=int, default=5)
    _add_ga_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("make-corpus", help="bootstrap a synthetic corpus from "
                                           "a templated behavior policy")
    p.add_argument("--template", required=True)
    p.add_argument("--params")
    p.add_argument("--ontology")
    p.add_argument("--out", required=True, help="corpus file to write")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--noise", default="0.0:0.6:0.1")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="behavior-policy exploration rate")
    p.add_argument("--rewards", choices=("sim", "corpus"), default="corpus")
    p.set_defaults(func=cmd_make_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dsl.StructuralParamForbidden as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (evolution.InvalidConfig, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
