"""Operator CLI: simulate sessions, run attack scenarios, emit cost tables."""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, TextIO

from . import backends  # noqa: F401  (registers the real KEM suites)
from . import attacks, bench, sim
from .crypto import available_suites, get_suite, registered_suites
from .rng import SEED_RANGE, SeededRandom


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


def _seeded(parser: argparse.ArgumentParser, seed: int) -> SeededRandom:
    """SeededRandom(seed); a seed it refuses is a usage error."""
    try:
        return SeededRandom(seed)
    except OverflowError:
        parser.error(f"--seed {seed} is not in {SEED_RANGE}")


def _write_lines(out: TextIO, lines: list[str]) -> None:
    out.write("\n".join(lines) + ("\n" if lines else ""))


def cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.sessions < 0:
        parser.error("--sessions must not be negative")
    rng = _seeded(parser, args.seed)
    with _open_out(parser, args.out) as out:
        world = sim.make_world(args.kem, seed=rng)
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
    names = list(attacks.SCENARIOS) if args.scenario == "all" else [args.scenario]
    weaken = frozenset(args.weaken or [])
    try:
        attacks.weakened_roles(names, weaken)
    except attacks.UnusedWeakening as exc:
        parser.error(str(exc))
    _seeded(parser, args.seed)
    with _open_out(parser, args.out) as out:
        verdicts = attacks.run_scenarios(names, args.kem, args.seed, weaken=weaken)
        lines = [v.to_line() for v in verdicts]
        _write_lines(out, lines)
    if args.out:
        for line in lines:
            print(line.split(" evidence=")[0])
    return 0 if all(v.holds for v in verdicts) else 1


def _suite_list(csv: str) -> list[str]:
    """The --kem type of bench and sizes: a comma list naming registered suites."""
    names = [n.strip() for n in csv.split(",") if n.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"{csv!r} names no suite")
    for n in names:
        try:
            get_suite(n)
        except KeyError as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None
    return names


def cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.iters < 2:
        parser.error("--iters must be at least 2: the IQR needs two samples")
    with _open_out(parser, args.out) as out:
        rows = bench.run_bench(args.kem, args.iters)
        print(bench.format_bench_table(rows))
        if args.out:
            _write_lines(out, bench.rows_jsonl(rows))
    return 0


def cmd_sizes(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    with _open_out(parser, args.out) as out:
        rows = bench.run_sizes(args.kem)
        print(bench.format_size_table(rows))
        if args.out:
            _write_lines(out, bench.rows_jsonl(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqaka",
        description="KEM-based AKA protocol simulator, attack suite and benchmarks",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate authentication sessions")
    p_run.add_argument("--kem", choices=available_suites(), default="test")
    p_run.add_argument("--sessions", type=int, default=1)
    p_run.add_argument("--mode", choices=["supi", "guti", "mixed"], default="supi")
    p_run.add_argument("--seed", type=int, default=0, help=f"{SEED_RANGE} (default 0)")
    p_run.add_argument("--out", help="transcript output file")
    p_run.set_defaults(func=cmd_run)

    p_attack = sub.add_parser("attack", help="run adversary-game scenarios")
    p_attack.add_argument("scenario", choices=sorted(attacks.SCENARIOS) + ["all"])
    p_attack.add_argument("--kem", choices=available_suites(), default="test")
    p_attack.add_argument("--seed", type=int, default=0, help=f"{SEED_RANGE} (default 0)")
    p_attack.add_argument("--out", help="verdict output file")
    p_attack.add_argument("--weaken", action="append", choices=sorted(attacks.WEAKENINGS),
                          help=argparse.SUPPRESS)   # negative-control hook
    p_attack.set_defaults(func=cmd_attack)

    p_bench = sub.add_parser("bench", help="time KEM primitives per suite")
    p_bench.add_argument("--kem", type=_suite_list, default="test",
                         help="comma-separated suite names")
    p_bench.add_argument("--iters", type=int, default=100)
    p_bench.add_argument("--out", help="JSONL report file")
    p_bench.set_defaults(func=cmd_bench)

    p_sizes = sub.add_parser("sizes", help="communication cost table")
    p_sizes.add_argument("--kem", type=_suite_list, default=",".join(registered_suites()),
                         help="comma-separated suite names")
    p_sizes.add_argument("--out", help="JSONL report file")
    p_sizes.set_defaults(func=cmd_sizes)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
