"""Operator CLI: simulate sessions, run attack scenarios, emit cost tables."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, TextIO

from . import backends  # noqa: F401  (registers the real KEM suites)
from . import attacks, bench, sim
from .crypto import get_suite, registered_suites
from .rng import SeededRandom


def _open_out(parser: argparse.ArgumentParser,
              path: Optional[str]) -> contextlib.AbstractContextManager[TextIO]:
    """The --out file, opened before any work so that a bad path costs
    none; stdout when no path is given."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror}")


# SeededRandom takes 0 <= seed < 2**256, and a game seeds with up to seed + 17
MAX_SEED = 2**256 - 18
_SEED_RANGE = "0 to 2**256-18"


def _check_seed(parser: argparse.ArgumentParser, seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        parser.error(f"--seed {seed} is not in {_SEED_RANGE}")


def _write_lines(out: TextIO, lines: list[str]) -> None:
    out.write("\n".join(lines) + ("\n" if lines else ""))


def _suite_or_exit(parser: argparse.ArgumentParser, name: str):
    try:
        return get_suite(name)
    except KeyError:
        parser.error(
            f"unknown KEM suite {name!r}; registered: {', '.join(registered_suites())}")


def cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.sessions < 0:
        parser.error("--sessions must not be negative")
    suite = _suite_or_exit(parser, args.kem)
    if not suite.available:
        parser.error(f"KEM suite {suite.name!r} has no operational backend")
    _check_seed(parser, args.seed)
    with _open_out(parser, args.out) as out:
        rng = SeededRandom(args.seed)
        world = sim.make_world(suite.name, seed=rng)
        outcomes = []
        for i in range(args.sessions):
            if args.mode == "mixed":
                mode = "supi" if i % 2 == 0 else "guti"
            else:
                mode = args.mode
            if mode == "guti" and world.ue.guti is None:
                mode = "supi"    # nothing to resolve yet; provision first
            outcomes.append(sim.run_session(world, mode, rng=rng))
        _write_lines(out, sim.export_transcript(outcomes))
    failed = [i for i, o in enumerate(outcomes) if not o.completed]
    for i in failed:
        print(f"session {i} aborted at {outcomes[i].abort_step}", file=sys.stderr)
    return 1 if failed else 0


def cmd_attack(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    suite = _suite_or_exit(parser, args.kem)
    if not suite.available:
        parser.error(f"KEM suite {suite.name!r} has no operational backend")
    names = list(attacks.SCENARIOS) if args.scenario == "all" else [args.scenario]
    weaken = frozenset(args.weaken or [])
    try:
        attacks.weakened_roles(names, weaken)
    except attacks.UnusedWeakening as exc:
        parser.error(str(exc))
    _check_seed(parser, args.seed)
    with _open_out(parser, args.out) as out:
        verdicts = attacks.run_scenarios(names, suite.name, args.seed, weaken=weaken)
        lines = [v.to_line() for v in verdicts]
        _write_lines(out, lines)
    if args.out:
        for line in lines:
            print(line.split(" evidence=")[0])
    return 0 if all(v.holds for v in verdicts) else 1


def _suite_list(parser: argparse.ArgumentParser, csv: str) -> list[str]:
    names = [n.strip() for n in csv.split(",") if n.strip()]
    for n in names:
        _suite_or_exit(parser, n)
    return names


def cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.iters < 2:
        parser.error("--iters must be at least 2: the IQR needs two samples")
    names = _suite_list(parser, args.kem)
    with _open_out(parser, args.out) as out:
        rows = bench.run_bench(names, args.iters)
        print(bench.format_bench_table(rows))
        if args.out:
            _write_lines(out, bench.rows_jsonl(rows))
    return 0


def cmd_sizes(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = _suite_list(parser, args.kem)
    with _open_out(parser, args.out) as out:
        rows = bench.run_sizes(names)
        print(bench.format_size_table(rows))
        if args.out:
            _write_lines(out, bench.rows_jsonl(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqaka",
        description="KEM-based AKA protocol simulator, attack suite and benchmarks")
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate authentication sessions")
    p_run.add_argument("--kem", default="test")
    p_run.add_argument("--sessions", type=int, default=1)
    p_run.add_argument("--mode", choices=["supi", "guti", "mixed"], default="supi")
    p_run.add_argument("--seed", type=int, default=0, help=f"{_SEED_RANGE} (default 0)")
    p_run.add_argument("--out", help="transcript output file")
    p_run.set_defaults(func=cmd_run)

    p_attack = sub.add_parser("attack", help="run adversary-game scenarios")
    p_attack.add_argument("scenario", choices=sorted(attacks.SCENARIOS) + ["all"])
    p_attack.add_argument("--kem", default="test")
    p_attack.add_argument("--seed", type=int, default=0, help=f"{_SEED_RANGE} (default 0)")
    p_attack.add_argument("--out", help="verdict output file")
    p_attack.add_argument("--weaken", action="append", choices=sorted(attacks.WEAKENINGS),
                          help=argparse.SUPPRESS)   # negative-control hook
    p_attack.set_defaults(func=cmd_attack)

    p_bench = sub.add_parser("bench", help="time KEM primitives per suite")
    p_bench.add_argument("--kem", default="test",
                         help="comma-separated suite names")
    p_bench.add_argument("--iters", type=int, default=100)
    p_bench.add_argument("--out", help="JSONL report file")
    p_bench.set_defaults(func=cmd_bench)

    p_sizes = sub.add_parser("sizes", help="communication cost table")
    p_sizes.add_argument("--kem", default=",".join(registered_suites()),
                         help="comma-separated suite names")
    p_sizes.add_argument("--out", help="JSONL report file")
    p_sizes.set_defaults(func=cmd_sizes)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            defaults = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    if not isinstance(defaults, dict):
        parser.error("config must be a JSON object")
    # config values become flags (one per list item) right after the command,
    # so argparse checks them like any flag and a user flag after them wins
    flags = [f"--{key.replace('_', '-')}={v}" for key, value in defaults.items()
             if hasattr(args, key) for v in (value if isinstance(value, list) else [value])]
    start = argv.index("--config") + 2 if "--config" in argv else 0   # past its path
    at = argv.index(args.command, start) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
