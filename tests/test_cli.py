"""CLI: exit codes, outputs, flag files."""

import hashlib
import importlib.util
import json

import pytest

from pqaka import attacks, bench, cli, sim
from pqaka.crypto import available_suites, get_suite, registered_suites
from pqaka.rng import SeededRandom
from test_pinned_outputs import MIXED_RUN_SHA256, PINNED_SUITES, VERDICT_LINES


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.mark.parametrize("kem,flag_file", [(kem, False) for kem in MIXED_RUN_SHA256]
                         + [("test", True)], ids=[*MIXED_RUN_SHA256, "test-@file"])
def test_run_mixed_sessions(tmp_path, capsys, kem, flag_file):
    """The pinned mixed run, its flags given inline with --out, or read from
    a file of one argument per line with the transcript on stdout."""
    argv = ["--kem", kem, "--sessions", "20", "--mode", "mixed", "--seed", "3"]
    if flag_file:
        flags = tmp_path / "flags"
        flags.write_text("".join(arg + "\n" for arg in argv))
        assert run_cli("run", f"@{flags}") == 0
        text = capsys.readouterr().out
    else:
        out = tmp_path / "t.log"
        assert run_cli("run", *argv, "--out", str(out)) == 0
        text = out.read_text()
    assert {line.split()[0] for line in text.splitlines()} == {str(i) for i in range(20)}
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_RUN_SHA256[kem]


def test_run_zero_sessions(tmp_path):
    out = tmp_path / "empty.log"
    assert run_cli("run", "--sessions", "0", "--out", str(out)) == 0
    assert out.read_text() == ""


def test_run_reports_each_aborted_session(tmp_path, monkeypatch, capsys):
    """Sessions whose challenge the radio drops are named on stderr with
    their abort step, and the run exits 1."""
    real = sim.run_session
    drop = sim.ScriptedAttacker({"challenge": lambda data, ctx: None})
    monkeypatch.setattr(sim, "run_session",
                        lambda world, mode, rng=None: real(world, mode, drop, rng))
    assert run_cli("run", "--sessions", "2", "--out", str(tmp_path / "t.log")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "session 0 aborted at challenge", "session 1 aborted at challenge"]


def test_run_negative_sessions_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--sessions", "-3")
    assert exc.value.code == 2
    assert "--sessions" in capsys.readouterr().err


# the largest seed SeededRandom takes: every session of a game draws from
# the game's one SeededRandom(seed)
LARGEST_SEED = 2**256 - 1


@pytest.mark.parametrize("seed", [
    pytest.param(-1, id="negative"), pytest.param(LARGEST_SEED + 1, id="2**256")])
@pytest.mark.parametrize("argv", [["run"], ["attack", "replay"]], ids=["run", "attack"])
def test_out_of_range_seed_usage_error(tmp_path, capsys, argv, seed):
    """A seed that SeededRandom cannot take is refused before --out is
    opened."""
    out = tmp_path / "kept.log"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", str(seed), "--out", str(out))
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("pqaka: error:")]
    assert len(errors) == 1 and "--seed" in errors[0]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [["run", "--mode", "mixed", "--sessions", "2"],
                                  ["attack", "all"]], ids=["run", "attack"])
def test_largest_seed_runs(argv):
    assert run_cli(*argv, "--seed", str(LARGEST_SEED)) == 0


@pytest.mark.parametrize("argv", [["run"], ["attack", "replay"]])
def test_unwritable_out_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("pqaka: error:")]
    assert len(errors) == 1 and str(out) in errors[0]


@pytest.mark.parametrize("argv", [["run", "--sessions", "3"], ["attack", "replay"]])
def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    monkeypatch.setattr(sim, "run_session", no_work)
    monkeypatch.setattr(attacks, "run_scenarios", no_work)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path / "missing" / "x"))
    assert exc.value.code == 2


def test_unused_weakening_leaves_out_untouched(tmp_path):
    out = tmp_path / "verdicts.log"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("attack", "linkability", "--weaken", "ue-mac", "--out", str(out))
    assert exc.value.code == 2
    assert out.read_text() == "kept\n"


def test_run_unknown_kem_usage_error(capsys):
    """argparse's choices error names the value and lists the operational
    suites only."""
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--kem", "nosuch")
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    head, listed = error.split(" (choose from ")
    assert head.startswith("pqaka run: error: argument --kem: invalid choice: ")
    assert "nosuch" in head
    # Python 3.10 and 3.11 quote each choice; later versions may not
    assert [n.strip("'") for n in listed.rstrip(")").split(", ")] == available_suites()


def test_run_metadata_only_kem_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--kem", "kyber", "--sessions", "1")
    assert exc.value.code == 2


def test_run_guti_mode(tmp_path):
    out = tmp_path / "g.log"
    assert run_cli("run", "--sessions", "3", "--mode", "guti",
                   "--out", str(out)) == 0


@pytest.mark.parametrize("kem", PINNED_SUITES)
def test_attack_all_passes(tmp_path, kem):
    """Every game holds, with the pinned verdict lines."""
    out = tmp_path / "verdicts.log"
    assert run_cli("attack", "all", "--kem", kem, "--seed", "0",
                   "--out", str(out)) == 0
    assert out.read_text().splitlines() == VERDICT_LINES


def test_attack_single_scenario():
    assert run_cli("attack", "replay") == 0


def test_attack_unknown_scenario_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("attack", "nosuch")
    assert exc.value.code == 2


@pytest.mark.parametrize("scenario", list(attacks.SCENARIOS))
def test_attack_weakening_on_game_without_it_is_usage_error(scenario, capsys):
    """A weakening that does not list the game would run the honest game."""
    unlisted = [w for w, (_make, games) in attacks.WEAKENINGS.items()
                if scenario not in games]
    assert unlisted
    for weakening in unlisted:
        with pytest.raises(SystemExit) as exc:
            run_cli("attack", scenario, "--weaken", weakening)
        assert exc.value.code == 2
        assert scenario in capsys.readouterr().err


@pytest.mark.parametrize("weakening", list(attacks.WEAKENINGS))
def test_attack_weakening_fails_each_game_it_lists(weakening):
    _make, games = attacks.WEAKENINGS[weakening]
    for scenario in sorted(games) + ["all"]:
        assert run_cli("attack", scenario, "--weaken", weakening) == 1, scenario


def test_attack_unknown_weakening_usage_error(capsys):
    """A misspelt negative control is refused, not run as the honest game."""
    with pytest.raises(SystemExit) as exc:
        run_cli("attack", "replay", "--weaken", "ue-mca")
    assert exc.value.code == 2
    assert "ue-mca" in capsys.readouterr().err


def test_sizes_kyber_row(capsys):
    assert run_cli("sizes", "--kem", "kyber") == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("kyber"))
    assert ["1632", "800", "768", "32"] == row.split()[1:5]


def test_sizes_mceliece_pk_dominates(tmp_path):
    out = tmp_path / "sizes.jsonl"
    assert run_cli("sizes", "--kem", "mceliece", "--out", str(out)) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["pk_len"] == 261120
    assert row["msg_bytes"]["IdResponseMsg"] > 261120


def test_sizes_default_covers_all_registered(capsys):
    assert run_cli("sizes") == 0
    out = capsys.readouterr().out
    for name in ("test", "kyber", "mceliece", "bike", "hqc"):
        assert any(line.startswith(name) for line in out.splitlines())


def _supi_then_guti(kem) -> list[list[tuple[str, str, int]]]:
    """Each transcript entry's channel, label and length, over a seeded SUPI
    session and the GUTI session after it."""
    rng = SeededRandom(1)
    world = sim.make_world(kem, seed=rng, supi=sim.DEFAULT_SUPI)
    outcomes = [sim.run_session(world, mode, rng=rng) for mode in ("supi", "guti")]
    assert all(outcome.completed for outcome in outcomes)
    return [[(e.channel, e.annotation, len(e.data)) for e in outcome.transcript.entries]
            for outcome in outcomes]


@pytest.mark.parametrize("suite", ["test", "ecies-x25519", "ecies-p256"] + [
    name for name in ("ml-kem-768", "ml-kem-1024") if name in registered_suites()])
def test_sizes_match_a_real_supi_session(suite, capsys):
    """The message columns, read off a session over bench's stand-in, are
    the lengths an honest SUPI session of the same SUPI sends; assign is its
    sealed GUTI assignment. The stand-in's premise: a seeded SUPI session and
    the GUTI session after it send, over the stand-in and over the suite
    itself, the same messages at the same lengths on both channels."""
    assert run_cli("sizes", "--kem", suite) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    row = next(r for r in rows if r.split()[0] == suite)
    columns = dict(zip(header.split(), row.split()))
    real = _supi_then_guti(get_suite(suite))
    assert _supi_then_guti(bench.stand_in(get_suite(suite))) == real
    sent = {label: n for _channel, label, n in real[0]}
    entries = {"id-resp": "id-response", "hn-sn": "auth-vector",
               "chall": "challenge", "resp": "response", "assign": "guti-assign"}
    assert {col: int(columns[col]) for col in entries} == \
        {col: sent[entry] for col, entry in entries.items()}


@pytest.mark.parametrize("suite", registered_suites())
def test_every_size_row_is_a_completed_session(suite):
    """Metadata-only suites included, the stand-in's SUPI session completes
    with one K_seaf at UE, SN and HN."""
    world = sim.make_world(bench.stand_in(get_suite(suite)))
    outcome = sim.run_session(world, "supi", rng=SeededRandom(0))
    assert outcome.completed and outcome.key_source == "supi"
    assert outcome.k_seaf_ue == outcome.k_seaf_sn == outcome.k_seaf_hn is not None


# `pqaka sizes` with no flags: the communication-cost columns, whose message
# sizes are read off one honest SUPI session over each suite's stand-in.
# Re-pinned when the GUTI went to 4 bytes, the 5G-TMSI's width: the sealed
# assign column is 12 bytes shorter on every row. Re-pinned when the SUPI went
# to a format byte and packed BCD digits: id-resp and hn-sn, which carry it
# in SUCI_conc and in M, are 11 bytes shorter on every row. Re-pinned when the
# HN identity went to a 3-octet PLMN identity and the GUTI assignment to one
# sealed field: id-resp is 8 bytes shorter and assign 2 on every row.
# test_default_sizes_table_pinned checks both the table printed and the --out
# JSONL rows against it
SIZES_TABLE = """\
algorithm            sk       pk       ct   key  id-resp    hn-sn    chall   resp  assign
-----------------------------------------------------------------------------------------
bike               5223     1541     1573    32     3164     1669     1610     17      21
ecies-p256           32       33       33    32      110      127       68     17      21
ecies-x25519         32       32       32    32      108      126       67     17      21
hqc                2289     2249     4481    64     6780     4577     4518     17      21
kyber              1632      800      768    32     1618      864      805     17      21
mceliece           6452   261120      128    32   261299      223      164     17      21
ml-kem-1024          64     1568     1568    32     3186     1664     1605     17      21
ml-kem-768           64     1184     1088    32     2322     1184     1125     17      21
test                 32       32       32    32      108      126       67     17      21
"""
MLKEM_ROWS = ("ml-kem-768 ", "ml-kem-1024 ")


# pinned from the built-in size metadata: with liboqs importable, backends
# replaces the bike/hqc/kyber/mceliece rows with liboqs's own lengths. The
# ml-kem rows exist only where cryptography has its mlkem module; without
# it the other rows are checked
@pytest.mark.skipif(importlib.util.find_spec("oqs") is not None,
                    reason="liboqs sets the post-quantum rows")
def test_default_sizes_table_pinned(tmp_path, capsys):
    out = tmp_path / "sizes.jsonl"
    assert run_cli("sizes", "--out", str(out)) == 0
    table = SIZES_TABLE if "ml-kem-768" in registered_suites() else "".join(
        line for line in SIZES_TABLE.splitlines(keepends=True) if not line.startswith(MLKEM_ROWS))
    assert capsys.readouterr().out == table
    # each --out row: its four lengths and five msg_bytes, by table column
    header, _rule, *lines = table.splitlines()
    want = {f[0]: dict(zip(header.split()[1:], map(int, f[1:]))) for f in map(str.split, lines)}
    lengths = {"sk": "sk_len", "pk": "pk_len", "ct": "ct_len", "key": "key_len"}
    msgs = {"id-resp": "IdResponseMsg", "hn-sn": "HnToSnAuthMsg", "chall": "ChallengeMsg",
            "resp": "ResponseMsg", "assign": "GutiAssignMsg"}
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(want)
    assert {r["name"]: {**{col: r[key] for col, key in lengths.items()},
                        **{col: r["msg_bytes"][key] for col, key in msgs.items()}}
            for r in rows} == want


def test_bench_runs_on_test_kem(tmp_path, capsys):
    out = tmp_path / "bench.jsonl"
    assert run_cli("bench", "--kem", "test", "--iters", "5",
                   "--out", str(out)) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["available"] and row["iterations"] == 5
    assert row["ue_cost_ms"] >= row["hn_cost_ms"] >= 0


@pytest.mark.parametrize("iters", ["0", "1"])
def test_bench_fewer_than_two_iters_usage_error(capsys, iters):
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--kem", "test", "--iters", iters)
    assert exc.value.code == 2
    assert "--iters" in capsys.readouterr().err


def test_bench_unavailable_suite_reported(capsys):
    assert run_cli("bench", "--kem", "kyber", "--iters", "2") == 0
    assert "unavailable" in capsys.readouterr().out


def test_flag_file_values_apply(tmp_path):
    """A file of one argument per line runs as the same flags given inline."""
    flags = tmp_path / "flags"
    flags.write_text("--kem\ntest\n--sessions=3\n--mode=mixed\n--seed\n5\n")
    from_file, inline = tmp_path / "file.log", tmp_path / "inline.log"
    assert run_cli("run", f"@{flags}", "--out", str(from_file)) == 0
    assert run_cli("run", "--kem", "test", "--sessions", "3", "--mode", "mixed",
                   "--seed", "5", "--out", str(inline)) == 0
    assert {line.split()[0] for line in from_file.read_text().splitlines()} == {"0", "1", "2"}
    assert from_file.read_bytes() == inline.read_bytes()


@pytest.mark.parametrize("argv,sessions", [
    pytest.param(["@FLAGS", "--sessions", "1"], {"0"}, id="after-wins"),
    pytest.param(["@FLAGS", "--sessions=1"], {"0"}, id="after-with-equals-wins"),
    pytest.param(["--sessions=1", "@FLAGS"], {"0", "1", "2"}, id="before-loses")])
def test_flag_file_expands_in_place_and_the_later_flag_wins(tmp_path, argv, sessions):
    flags = tmp_path / "flags"
    flags.write_text("--sessions=3\n")
    out = tmp_path / "c.log"
    argv = [a.replace("FLAGS", str(flags)) for a in argv]
    assert run_cli("run", *argv, "--out", str(out)) == 0
    assert {line.split()[0] for line in out.read_text().splitlines()} == sessions


def test_flag_file_repeats_a_repeatable_flag(tmp_path, monkeypatch):
    flags = tmp_path / "flags"
    flags.write_text("--weaken=ue-mac\n--weaken=hn-seal-ak\n")
    seen = []
    monkeypatch.setattr(attacks, "run_scenarios",
                        lambda names, suite, seed, weaken: seen.append(weaken) or [])
    assert run_cli("attack", "sn-binding", f"@{flags}") == 0
    assert seen == [frozenset({"ue-mac", "hn-seal-ak"})]


def test_flag_file_holds_the_command(tmp_path):
    flags = tmp_path / "flags"
    flags.write_text("attack\nreplay\n--weaken=ue-mac\n")
    assert run_cli(f"@{flags}") == 1


@pytest.mark.parametrize("command,line", [
    (["run"], "--sessions=two"), (["run"], "--sessions=2.5"), (["run"], "--mode=bogus"),
    (["attack", "replay"], "--weaken=typo"), (["run"], "--seed=-1")])
def test_flag_file_value_rejected_is_usage_error(tmp_path, capsys, command, line):
    flags = tmp_path / "flags"
    out = tmp_path / "c.log"
    flags.write_text(f"{line}\n--out={out}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, f"@{flags}")
    assert exc.value.code == 2
    assert line.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_missing_flag_file_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        run_cli("run", f"@{missing}")
    assert exc.value.code == 2
    assert f"No such file or directory: '{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["sizes", "--kem", "test,nosuch"], "'nosuch'"),
    (["bench", "--kem", "nosuch"], "'nosuch'"),
    (["sizes", "--kem", ","], "',' names no suite"),
    (["bench", "--kem", ""], "'' names no suite"),
], ids=["sizes", "bench", "sizes-empty", "bench-empty"])
def test_unknown_suite_in_list_usage_error(tmp_path, capsys, argv, named):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif("ecies-x25519" not in available_suites(),
                    reason="ECIES backend not compiled in")
def test_run_on_real_backend(tmp_path):
    out = tmp_path / "x.log"
    assert run_cli("run", "--kem", "ecies-x25519", "--sessions", "2",
                   "--mode", "mixed", "--out", str(out)) == 0
