"""Command-line front end: generate, simulate, query, learn, compare, export.

Exit codes: 0 success (or equivalent), 1 not equivalent, 2 usage error,
3 runtime error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .automaton import format_word, parse_word, to_dot
from .benchgen import GenConfig, random_system
from .errors import InvalidEvent, SwitchLearnError
from .learner import learn
from .linalg import LABEL_TOL, check_label_tol
from .oracle import (BoundedTestingEquivalenceOracle, WhiteBoxEquivalenceOracle,
                     WhiteBoxObservationOracle)
from .output_query import compute_output
from .switched_system import execute, load_json, save_json

USAGE_ERROR = 2
RUNTIME_ERROR = 3


class CliError(Exception):
    def __init__(self, message, code=RUNTIME_ERROR):
        super().__init__(message)
        self.code = code


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _load_model(path: str):
    try:
        return load_json(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_cli_word(text: str, alphabet):
    try:
        return parse_word(text, alphabet)
    except InvalidEvent as exc:
        raise CliError(str(exc), code=USAGE_ERROR) from exc


def _label_tol(text: str) -> float:
    """argparse type for --tol: a float that check_label_tol accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    try:
        return check_label_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(minimum: int):
    """argparse type for an integer flag that must be at least minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _parse_x0(text: str, d: int) -> np.ndarray:
    entries = text.split(",")
    values = []
    for i, entry in enumerate(entries):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CliError(f"--x0 entry {i} ({entry!r}) is not a finite number",
                           code=USAGE_ERROR)
        values.append(value)
    if len(values) != d:
        raise CliError(f"--x0 has {len(values)} entries, model dimension is "
                       f"{d}", code=USAGE_ERROR)
    return np.array(values)


def cmd_gen(args) -> int:
    config = GenConfig(num_nodes=args.nodes, num_events=args.events,
                       num_labels=args.labels, dim=args.dim, seed=args.seed,
                       require_reachable=not args.allow_unreachable)
    Path(args.out).write_text(save_json(random_system(config)))
    return 0


def cmd_simulate(args) -> int:
    system = _load_model(args.model)
    word = _parse_cli_word(args.word, system.fa.alphabet)
    x0 = _parse_x0(args.x0, system.d)
    for state in execute(system, x0, word):
        print(" ".join(_fmt(v, args.precision) for v in state))
    return 0


def cmd_output(args) -> int:
    system = _load_model(args.model)
    word = _parse_cli_word(args.word, system.fa.alphabet)
    matrix = compute_output(WhiteBoxObservationOracle(system), word)
    for row in matrix:
        print(" ".join(_fmt(v, args.precision) for v in row))
    return 0


def cmd_learn(args) -> int:
    if args.L is not None and args.eq != "bounded":
        raise CliError("--L applies only with --eq bounded", code=USAGE_ERROR)
    hidden = _load_model(args.model)
    obs = WhiteBoxObservationOracle(hidden)
    if args.eq == "exact":
        eq = WhiteBoxEquivalenceOracle(hidden, tol=args.tol)
    else:
        l_max = args.L if args.L is not None else 2 * hidden.fa.num_nodes + 1
        eq = BoundedTestingEquivalenceOracle(obs, l_max, tol=args.tol)
    result = learn(obs, eq, hidden.fa.alphabet, label_tol=args.tol)
    Path(args.out).write_text(save_json(result.system))
    if args.stats:
        Path(args.stats).write_text(json.dumps(result.stats_dict(), indent=2) + "\n")
    print(f"learned {result.system.fa.num_nodes} nodes, "
          f"{len(result.system.matrices)} labels in {result.rounds} rounds")
    return 0


def cmd_equiv(args) -> int:
    a = _load_model(args.a)
    b = _load_model(args.b)
    counterexample = WhiteBoxEquivalenceOracle(a, tol=args.tol).check(b)
    if counterexample is None:
        print("equivalent")
        return 0
    print(f"not equivalent, counterexample: "
          f"{format_word(counterexample, a.fa.alphabet) or '(empty word)'}")
    return 1


def cmd_export_dot(args) -> int:
    system = _load_model(args.model)
    Path(args.out).write_text(to_dot(system.fa))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchlearn",
        description="identify event-driven switched linear systems from traces")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random system")
    gen.add_argument("--nodes", type=_int_at_least(1), required=True)
    gen.add_argument("--events", type=_int_at_least(1), required=True)
    gen.add_argument("--labels", type=_int_at_least(1), required=True)
    gen.add_argument("--dim", type=_int_at_least(1), required=True)
    gen.add_argument("--seed", type=_int_at_least(0), required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--allow-unreachable", action="store_true")
    gen.set_defaults(func=cmd_gen)

    simulate = sub.add_parser("simulate", help="print the state trace of a word")
    simulate.add_argument("--model", required=True)
    simulate.add_argument("--x0", required=True,
                          help="comma-separated initial state, e.g. '0.5,0.5'")
    simulate.add_argument("--word", required=True,
                          help="space-separated event names, '' for the empty word")
    simulate.add_argument("--precision", type=_int_at_least(0), default=6)
    simulate.set_defaults(func=cmd_simulate)

    output = sub.add_parser("output", help="recover the last-applied matrix of a word")
    output.add_argument("--model", required=True)
    output.add_argument("--word", required=True)
    output.add_argument("--precision", type=_int_at_least(0), default=6)
    output.set_defaults(func=cmd_output)

    learn_cmd = sub.add_parser("learn", help="learn the model behind the oracles")
    learn_cmd.add_argument("--model", required=True)
    learn_cmd.add_argument("--eq", choices=("exact", "bounded"), default="exact")
    learn_cmd.add_argument("--L", type=_int_at_least(0), default=None,
                           help="search depth for --eq bounded "
                                "(default 2*nodes+1)")
    learn_cmd.add_argument("--tol", type=_label_tol, default=LABEL_TOL)
    learn_cmd.add_argument("--out", required=True)
    learn_cmd.add_argument("--stats", default=None)
    learn_cmd.set_defaults(func=cmd_learn)

    equiv = sub.add_parser("equiv", help="compare two models")
    equiv.add_argument("--a", required=True)
    equiv.add_argument("--b", required=True)
    equiv.add_argument("--tol", type=_label_tol, default=LABEL_TOL)
    equiv.set_defaults(func=cmd_equiv)

    export = sub.add_parser("export-dot", help="write a Graphviz view of a model")
    export.add_argument("--model", required=True)
    export.add_argument("--out", required=True)
    export.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (SwitchLearnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
