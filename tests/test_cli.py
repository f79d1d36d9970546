"""CLI: exit codes, outputs, config handling."""

import json

import pytest

from pqaka import attacks, cli, sim
from pqaka.crypto import available_suites


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_mixed_sessions(tmp_path):
    out = tmp_path / "t.log"
    assert run_cli("run", "--kem", "test", "--sessions", "10",
                   "--mode", "mixed", "--seed", "7", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    session_ids = {line.split()[0] for line in lines}
    assert session_ids == {str(i) for i in range(10)}


def test_run_zero_sessions(tmp_path):
    out = tmp_path / "empty.log"
    assert run_cli("run", "--sessions", "0", "--out", str(out)) == 0
    assert out.read_text() == ""


def test_run_negative_sessions_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--sessions", "-3")
    assert exc.value.code == 2
    assert "--sessions" in capsys.readouterr().err


# the largest seed whose seed + 17, the largest offset a game adds, still
# fits SeededRandom's 256 bits
LARGEST_SEED = 2**256 - 18


@pytest.mark.parametrize("seed", [
    pytest.param(-1, id="negative"), pytest.param(LARGEST_SEED + 1, id="largest+1"),
    pytest.param(2**256, id="2**256")])
@pytest.mark.parametrize("argv", [["run"], ["attack", "replay"]], ids=["run", "attack"])
def test_out_of_range_seed_usage_error(tmp_path, capsys, argv, seed):
    """A seed that some game's SeededRandom(seed + offset) cannot take is
    refused before --out is opened."""
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
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--kem", "nosuch")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "test" in err     # lists registered suites


def test_run_metadata_only_kem_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--kem", "kyber", "--sessions", "1")
    assert exc.value.code == 2


def test_run_guti_mode(tmp_path):
    out = tmp_path / "g.log"
    assert run_cli("run", "--sessions", "3", "--mode", "guti",
                   "--out", str(out)) == 0


def test_attack_all_passes(tmp_path):
    out = tmp_path / "verdicts.log"
    assert run_cli("attack", "all", "--kem", "test", "--seed", "0",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and all("holds=True" in line for line in lines)


def test_attack_single_scenario():
    assert run_cli("attack", "replay") == 0


def test_attack_unknown_scenario_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("attack", "nosuch")
    assert exc.value.code == 2


def test_attack_weakened_ue_fails():
    assert run_cli("attack", "replay", "--weaken", "ue-mac") == 1


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


def test_attack_unknown_weakening_usage_error(tmp_path, capsys):
    """A misspelt negative control is refused, not run as the honest game."""
    with pytest.raises(SystemExit) as exc:
        run_cli("attack", "replay", "--weaken", "ue-mca")
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weaken": ["typo"]}))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(cfg), "attack", "replay")
    assert exc.value.code == 2
    assert "typo" in capsys.readouterr().err


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


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sessions": 3, "seed": 5}))
    out = tmp_path / "c.log"
    assert run_cli("--config", str(cfg), "run", "--out", str(out)) == 0
    assert {line.split()[0] for line in out.read_text().splitlines()} == {"0", "1", "2"}
    # explicit flag wins over the config value
    assert run_cli("--config", str(cfg), "run", "--sessions", "1",
                   "--out", str(out)) == 0
    assert {line.split()[0] for line in out.read_text().splitlines()} == {"0"}


def test_config_yields_to_flag_given_with_equals_sign(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sessions": 3}))
    out = tmp_path / "c.log"
    assert run_cli("--config", str(cfg), "run", "--sessions=1",
                   f"--out={out}") == 0
    assert {line.split()[0] for line in out.read_text().splitlines()} == {"0"}


def test_config_values_are_parsed_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "c.log"
    cfg.write_text(json.dumps({"sessions": "2"}))
    assert run_cli("--config", str(cfg), "run", "--out", str(out)) == 0
    assert {line.split()[0] for line in out.read_text().splitlines()} == {"0", "1"}
    cfg.write_text(json.dumps({"weaken": ["ue-mac"]}))
    assert run_cli("--config", str(cfg), "attack", "replay", "--out", str(out)) == 1


@pytest.mark.parametrize("config", [
    {"sessions": "two"}, {"sessions": 2.5}, {"mode": "bogus"}])
def test_config_value_rejected_by_argparse_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(cfg), "run", "--out", str(tmp_path / "c.log"))
    assert exc.value.code == 2
    assert next(iter(config)) in capsys.readouterr().err


def test_config_unreadable_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(tmp_path / "missing.json"), "run")
    assert exc.value.code == 2
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(cfg), "run")
    assert exc.value.code == 2


@pytest.mark.skipif("ecies-x25519" not in available_suites(),
                    reason="ECIES backend not compiled in")
def test_run_on_real_backend(tmp_path):
    out = tmp_path / "x.log"
    assert run_cli("run", "--kem", "ecies-x25519", "--sessions", "2",
                   "--mode", "mixed", "--out", str(out)) == 0
