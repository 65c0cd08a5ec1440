"""evodial: genetic optimization of human-readable dialog policies.

Templates written in a small condition-action language carry free parameters
in [0, 1]; a real-vector genetic algorithm tunes them against either a
simulated noisy user (online) or a serialized dialog corpus through batch
reinforcement learning (offline), and any policy can be scored off-policy on
held-out dialogs.
"""
from .core import (ACTIONS, CORPUS_REWARDS, SIM_REWARDS, ActionDecision,
                   DialogAct, DialogState, NBestList, RewardConfig,
                   discounted_return, featurize, feature_names,
                   resolve_action)
from .dsl import (ArityMismatch, DanglingElse, MissingStateVariable,
                  StructuralParamForbidden, TemplateAst, TemplateSyntaxError,
                  UnknownIdentifier, ablate, evaluate_policy,
                  evaluate_policy_batch, parse_template, pretty_print)
from .evolution import (FitnessEvaluationFailure, GaConfig, GenerationTrace,
                        Individual, InvalidConfig, crossover, mutate, perturb,
                        run_ga, tournament_select)
from .simulator import (HEURISTIC_PARAMS, NoiseConfig, Ontology,
                        SimulatedDialogEnv, SimulationFitness, SluChannel,
                        default_ontology, default_template_text,
                        load_ontology, make_synthetic_corpus, run_episode,
                        template_policy)
from .batch_rl import (CorpusFitness, FittedQConfig, QModel, QValConfig,
                       evaluate_policy_on_corpus, fit_action_classifier,
                       fitted_q_iteration, template_corpus_policy)
from .corpus_io import (Corpus, CorpusHeader, ResamplePlan, load_corpus,
                        resample_splits, save_corpus)

__version__ = "0.1.0"
