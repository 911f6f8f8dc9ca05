"""Command-line interface: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from isccsim import cli, policies
from isccsim.cli import COMMANDS, _schedule_for, main
from isccsim.config import ConfigError, RunConfig, parse_seed_list
from isccsim.episode import InvariantBroken, RoundEnv, audit_trace, run_episode
from isccsim.gain import GainGraph, SensingParams
from isccsim.mlp import Mlp
from isccsim.network import ChannelParams, ScenarioConfig, generate_scenario
from isccsim.policies import GreedyGainPolicy
from isccsim.pool import PoolBank, PoolConfig
from isccsim.schedule import Mode, plan_pipeline
from isccsim.sac import CURVE_FIELDS, PARAMS_MAGIC, SacAgent, load_policy

TINY_SCENARIO = {
    "area_m": 200.0,
    "num_clients": 3,
    "num_targets": 10,
    "num_edges": 2,
    "num_classes": 3,
    "num_models": 1,
    "v_max_mps": 5.0,
    "vs_radius_m": 80.0,
    "ws_radius_m": 120.0,
}


def tiny_config(tmp_path, **extra):
    data = {
        "scenario": TINY_SCENARIO,
        "rounds": 2,
        "seeds": [0, 1],
        "out": str(tmp_path / "out"),
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_summary(out_dir):
    with open(f"{out_dir}/summary.json") as fh:
        return json.load(fh)


# -- config schema -------------------------------------------------------------


def test_config_roundtrips_through_dict():
    cfg = RunConfig(policy="ml-c", seeds=(3, 4), rounds=4, slots=7)
    twin = RunConfig.from_dict(cfg.to_dict())
    assert twin == cfg


def test_config_rejects_unknown_top_level_field(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema_versoin": 1}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2


def test_config_rejects_unknown_section_field(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"num_cleints": 3}}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "num_cleints" in capsys.readouterr().err


def test_config_rejects_wrong_schema_version(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema_version": 99}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "schema_version" in capsys.readouterr().err


def test_config_reports_json_parse_line(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{\n  broken\n}")
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_config_rejects_empty_seeds():
    with pytest.raises(ConfigError):
        RunConfig(seeds=()).validate()


def test_config_rejects_pool_slot_conflict():
    with pytest.raises(ConfigError):
        RunConfig(pool={"num_slots": 5}, slots=9).validate()


def test_seed_list_parsing():
    assert parse_seed_list("0,3,11") == (0, 3, 11)
    with pytest.raises(ConfigError):
        parse_seed_list("0,two")


# -- simulate --------------------------------------------------------------------


def test_simulate_writes_trace_and_summary(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--policy", "greedy"]) == 0
    out = tmp_path / "out"
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "seed,gr,client,model,workload,gain,feasible"
    # 2 seeds x 2 rounds x 3 clients data rows.
    assert len(trace) == 1 + 12
    summary = read_summary(out)
    assert summary["command"] == "simulate"
    assert len(summary["results"]["per_seed"]) == 2
    assert summary["results"]["audit_all_ok"] is True
    assert all(0.0 < row["peak_cell_use"] <= 1.0 + 1e-9 for row in summary["results"]["per_seed"])
    assert main(["simulate", "--config", cfg, "--policy", "greedy"]) == 0
    assert json.dumps(read_summary(out)["results"]) == json.dumps(summary["results"])


def test_simulate_counts_infeasible_edges(tmp_path):
    """The summary's counter equals the infeasible edges of every round's
    gain graph, counted on lazily built edge objects."""
    path = tiny_config(tmp_path, scenario={**TINY_SCENARIO, "num_clients": 6, "num_targets": 30})
    assert main(["simulate", "--config", path, "--policy", "greedy"]) == 0
    per_seed = read_summary(tmp_path / "out")["results"]["per_seed"]
    cfg = RunConfig.from_file(path)
    for row in per_seed:
        scenario = generate_scenario(cfg.scenario_config(), row["seed"])
        env = RoundEnv(lambda _: scenario, _schedule_for(cfg), cfg.pool_config(),
                       cfg.sensing_params())
        obs, done, expected = env.reset(), False, 0
        while not done:
            expected += sum(not e.solution.feasible for e in obs.graph.edges)
            obs, _, done = env.step(GreedyGainPolicy().decide(obs))
        assert row["infeasible_edges"] == expected
    assert sum(row["infeasible_edges"] for row in per_seed) > 0


def test_program_fault_exits_five_with_summary(tmp_path, monkeypatch, capsys):
    """A fault of the program, here negative residuals the pools could never
    report, is not a usage error: exit 5, with the error in summary.json."""
    monkeypatch.setattr(PoolBank, "rect_bandwidth_hz",
                        lambda self, free=None: np.full(len(self.time_freq), -1.0))
    rc = main(["simulate", "--config", tiny_config(tmp_path), "--policy", "greedy"])
    assert rc == 5
    assert "program fault: InvalidProblem" in capsys.readouterr().err
    summary = read_summary(tmp_path / "out")
    assert summary["results"] == {
        "error": "bandwidth_hz must be >= 0", "error_type": "InvalidProblem"
    }
    assert summary["meta"]["traceback"][0].startswith("Traceback")


def test_program_fault_keeps_trace_rows_of_finished_seeds(tmp_path, monkeypatch):
    """A fault on the second seed leaves the first seed's trace rows on disk,
    the same rows a run of the first seed alone writes."""
    assert main(["simulate", "--config", tiny_config(tmp_path, seeds=[0]), "--policy", "greedy",
                 "--out", str(tmp_path / "first")]) == 0
    expected = (tmp_path / "first" / "trace.csv").read_text()
    episodes = []

    def faulty_run_episode(*args):
        episodes.append(args)
        if len(episodes) == 2:
            raise InvariantBroken("fault on the second seed")
        return run_episode(*args)

    monkeypatch.setattr(cli, "run_episode", faulty_run_episode)
    assert main(["simulate", "--config", tiny_config(tmp_path), "--policy", "greedy"]) == 5
    out = tmp_path / "out"
    assert read_summary(out)["results"]["error_type"] == "InvariantBroken"
    rows = (out / "trace.csv").read_text()
    assert rows == expected
    assert {line.split(",")[0] for line in rows.splitlines()[1:]} == {"0"}


def test_program_fault_keeps_finished_rounds_of_the_failing_seed(tmp_path, monkeypatch):
    """A fault in round 2 of the second seed leaves that seed's round-1 rows
    after the first seed's rows: what a run without the fault writes up to
    the fault."""
    assert main(["simulate", "--config", tiny_config(tmp_path), "--policy", "greedy",
                 "--out", str(tmp_path / "whole")]) == 0
    header, *rows = (tmp_path / "whole" / "trace.csv").read_text().splitlines()
    make_policy = cli._make_policy

    class FailsInRound2(GreedyGainPolicy):
        def decide(self, obs):
            if obs.round_index == 2:
                raise InvariantBroken("fault in round 2")
            return super().decide(obs)

    monkeypatch.setattr(
        cli, "_make_policy", lambda name, seed: FailsInRound2() if seed == 1 else make_policy(name, seed)
    )
    assert main(["simulate", "--config", tiny_config(tmp_path), "--policy", "greedy"]) == 5
    kept = [row for row in rows if row.split(",")[0] == "0" or row.split(",")[:2] == ["1", "1"]]
    assert len(kept) == 3 * TINY_SCENARIO["num_clients"]
    assert (tmp_path / "out" / "trace.csv").read_text().splitlines() == [header, *kept]


@pytest.mark.parametrize("section, field, value", [
    ("sensing", "epsilon", 0.0),
    ("sensing", "tau_s", -1.0),
    ("scenario", "dl_bits_base", -1.0),
    ("scenario", "num_classes", 1),
    ("scenario", "num_clients", 0),
    ("scenario", "vs_radius_m", float("nan")),
    ("pool", "hz_per_lane", 0.0),
    ("pool", "slot_duration", float("nan")),
    ("sensing", "epsilon", float("nan")),
    ("sac", "gamma", 1.5),
    ("pool", "freq_lanes", 2.5),
    ("pool", "comp_lanes", True),
    ("scenario", "num_clients", 3.5),
    ("sac", "batch_size", 4.5),
    ("sensing", "samples_per_target", 2.5),
    ("sac", "eval_interval_episodes", 0),
    ("sac", "hidden", -1),
    ("sac", "hidden", 0),
    ("scenario", "channel", {"tx_power_w": -1.0}),
    ("scenario", "channel", {"noise_power_w": 0.0}),
    ("scenario", "channel", {"path_loss_exp": float("nan")}),
    ("sac", "lr_actor", float("nan")),
    ("sac", "target_gain", float("inf")),
    ("sac", "updates_per_step", 0),
    ("sac", "updates_per_step", -1),
    ("sac", "warmup_steps", -1),
    ("sac", "lr_actor", -1e-4),
    ("sac", "lr_critic", -1e-4),
    ("sac", "lr_alpha", -1e-4),
    ("sac", "target_entropy_factor", 1.5),
    ("sac", "target_entropy_factor", -0.1),
    ("sac", "seed", -1),
    ("scenario", "ws_radius_m", float("inf")),
    ("sensing", "tau_s", float("inf")),
])
def test_invalid_section_values_exit_two(tmp_path, capsys, section, field, value):
    rc = main(["simulate", "--config", tiny_config(tmp_path, **{section: {field: value}})])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}:")


@pytest.mark.parametrize("field, value", [
    ("rounds", float("nan")),
    ("rounds", 2.5),
    ("rounds", True),
    ("slots", 9.5),
    ("episode_seed_stride", float("nan")),
    ("schema_version", 1.0),
    ("seeds", [True]),
    ("seeds", [0, 1.0]),
    ("pool", []),
    ("scenario", 5),
    ("out", ""),
    ("out", 5),
    ("params", 5),
    ("seeds", [-3]),
])
def test_invalid_top_level_values_exit_two(tmp_path, capsys, field, value):
    rc = main(["simulate", "--config", tiny_config(tmp_path, **{field: value})])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


def test_compare_non_string_policy_exits_two(tmp_path, capsys):
    assert main(["compare", "--config", tiny_config(tmp_path, policy=5)]) == 2
    assert capsys.readouterr().err.startswith("config error: policy:")
    assert not (tmp_path / "out").exists()


def test_float_fields_accept_integers(tmp_path):
    pool = {"slot_duration": 1, "hz_per_lane": 1000000}
    cfg = RunConfig.from_file(tiny_config(tmp_path, pool=pool, sensing={"epsilon": 1}))
    assert cfg.pool_config().slot_duration == 1.0 and cfg.sensing_params().epsilon == 1


def test_scenario_channel_section_builds_channel_params(tmp_path):
    path = tiny_config(tmp_path, scenario={**TINY_SCENARIO, "channel": {"tx_power_w": 1.0}})
    assert RunConfig.from_file(path).scenario_config().channel == ChannelParams(tx_power_w=1.0)
    assert main(["simulate", "--config", path]) == 0
    assert read_summary(tmp_path / "out")["config"]["scenario"]["channel"] == {"tx_power_w": 1.0}


def test_scenario_channel_unknown_key_exits_two(tmp_path, capsys):
    path = tiny_config(tmp_path, scenario={**TINY_SCENARIO, "channel": {"tx_power": 1.0}})
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: scenario.channel.tx_power:")


def test_simulate_unknown_policy_lists_valid_names(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    rc = main(["simulate", "--config", cfg, "--policy", "gredy"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "greedy" in err and "mp-tsc" in err and "sac" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_unusable_out_exits_two(tmp_path, capsys, out):
    """An --out that is a regular file, or lies under one, is an input error:
    exit 2 with no traceback, and nothing is written."""
    (tmp_path / "afile").write_text("kept")
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "config error: out" in err and "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    out = tmp_path / "out"
    first_trace = (out / "trace.csv").read_bytes()
    first_summary = json.loads((out / "summary.json").read_text())
    assert main(["simulate", "--config", cfg]) == 0
    assert (out / "trace.csv").read_bytes() == first_trace
    second_summary = json.loads((out / "summary.json").read_text())
    first_summary.pop("meta")
    second_summary.pop("meta")
    assert json.dumps(first_summary, sort_keys=True) == json.dumps(
        second_summary, sort_keys=True
    )


def test_summary_config_echo_reproduces_run(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--policy", "ml-cc"]) == 0
    summary = read_summary(tmp_path / "out")
    echo = summary["config"]
    echo["out"] = str(tmp_path / "out2")
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo))
    assert main(["simulate", "--config", str(echo_path)]) == 0
    again = read_summary(tmp_path / "out2")
    assert again["results"]["per_seed"] == summary["results"]["per_seed"]
    assert again["results"]["mean_gain"] == summary["results"]["mean_gain"]


def test_simulate_supports_exhaustive_policy(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[0], scenario={**TINY_SCENARIO, "num_clients": 1})
    assert main(["simulate", "--config", cfg, "--policy", "exhaustive"]) == 0
    summary = read_summary(tmp_path / "out")
    assert summary["results"]["mean_gain"] > 0.0


def test_simulate_exhaustive_simulates_one_episode_per_seed(tmp_path, monkeypatch):
    """The oracle's own re-simulation is the episode reported: `simulate`
    does not replay the optimum a second time."""
    episodes = []

    def counted(*args, **kwargs):
        episodes.append(args[0])
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", counted)
    monkeypatch.setattr(policies, "run_episode", counted)
    cfg = tiny_config(tmp_path, scenario={**TINY_SCENARIO, "num_clients": 1})
    assert main(["simulate", "--config", cfg, "--policy", "exhaustive"]) == 0
    assert len(episodes) == 2
    per_seed = read_summary(tmp_path / "out")["results"]["per_seed"]
    assert [p["seed"] for p in per_seed] == [0, 1]


# -- compare -----------------------------------------------------------------------


def test_compare_emits_five_policy_table_in_given_order(tmp_path):
    cfg = tiny_config(tmp_path)
    names = "greedy,ml-c,ml-cc,ml-scc,mp-tsc"
    assert main(["compare", "--config", cfg, "--policy", names]) == 0
    summary = read_summary(tmp_path / "out")
    table = summary["results"]["table"]
    assert [row["policy"] for row in table] == names.split(",")
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert lines[0] == "policy,seed,gain"
    assert len(lines) == 1 + 5 * 2


def test_compare_duplicate_policy_gives_identical_rows(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["compare", "--config", cfg, "--policy", "random,random"]) == 0
    table = read_summary(tmp_path / "out")["results"]["table"]
    assert table[0]["per_seed_gain"] == table[1]["per_seed_gain"]


def test_compare_requires_two_policies(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["compare", "--config", cfg, "--policy", "greedy"]) == 2
    assert "two" in capsys.readouterr().err


def test_runtime_paths_build_no_reference_object(tmp_path, monkeypatch):
    """The commands and an audited episode read `PoolConfig` and the gain
    graph's arrays: none builds a claim-level pool or a `GainEdge`."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a runtime path built a reference object")

    monkeypatch.setattr(PoolConfig, "build", refuse)
    monkeypatch.setattr(GainGraph, "edge", refuse)
    cfg = tiny_config(tmp_path, seeds=[0])
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["robustness", "--rounds", "3", "--out", str(tmp_path / "rob")]) == 0
    scenario = generate_scenario(ScenarioConfig(**TINY_SCENARIO), 0)
    schedule = plan_pipeline(3, 9, Mode.SERIAL)
    trace = run_episode(scenario, GreedyGainPolicy(), schedule, PoolConfig(), SensingParams())
    assert audit_trace(trace, schedule, PoolConfig())["ok"]


# -- the command runner -------------------------------------------------------------

# Ends before warmup, so training never updates or evaluates.
SHORT_SAC = {"total_steps": 4, "warmup_steps": 8, "batch_size": 4, "replay_capacity": 16,
             "hidden": 4}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_writes_strict_summary(tmp_path, command):
    cfg = tiny_config(tmp_path, sac=SHORT_SAC)
    args = {"compare": ["--policy", "greedy,random"]}.get(command, [])
    if command == "eval":
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "sac")]) == 0
        args = ["--params", str(tmp_path / "sac" / "params.bin")]
    assert main([command, "--config", cfg, *args]) == 0
    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=pytest.fail)
    assert summary["command"] == command
    if command == "train":
        assert summary["results"]["best_eval_gain"] is None


def test_simulate_sac_loads_params_once(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, sac=SHORT_SAC)
    params = str(tmp_path / "sac" / "params.bin")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "sac")]) == 0
    calls = []
    monkeypatch.setattr(cli, "load_policy", lambda path: calls.append(path) or load_policy(path))
    assert main(["simulate", "--config", cfg, "--policy", "sac", "--params", params]) == 0
    assert calls == [params]
    assert len(read_summary(tmp_path / "out")["results"]["per_seed"]) == 2


# -- robustness ---------------------------------------------------------------------


def test_robustness_slack_instance_passes(tmp_path):
    out = str(tmp_path / "rob")
    assert main(["robustness", "--rounds", "3", "--out", out]) == 0
    summary = read_summary(out)
    res = summary["results"]
    assert res["within_tolerance"] is True
    assert res["claims_differ"] is True
    assert res["audit_all_ok"] is True
    slots = [arm["slots"] for arm in res["arms"]]
    assert slots == [9, 5]
    for arm in res["arms"]:
        assert arm["w_star"] == arm["oracle_w_star"] == 20


def test_robustness_negative_control_fails_with_dump(tmp_path, capsys):
    out = str(tmp_path / "rob")
    rc = main(["robustness", "--rounds", "3", "--out", out, "--negative-control"])
    assert rc == 3
    assert "dumped" in capsys.readouterr().err
    res = read_summary(out)["results"]
    assert res["within_tolerance"] is False
    assert all(arm["claims"] for arm in res["arms"])


@pytest.mark.parametrize("flags", [[], ["--slots", "9"]])
def test_robustness_rerun_on_echoed_config_reproduces_it(tmp_path, flags):
    """The echoed config carries the reduced arm's slot count, so a rerun on
    it runs the same two arms."""
    first = str(tmp_path / "first")
    code = main(["robustness", "--rounds", "3", "--out", first, *flags])
    config = read_summary(first)["config"]
    config["out"] = str(tmp_path / "second")
    (tmp_path / "echo.json").write_text(json.dumps(config))
    assert main(["robustness", "--config", str(tmp_path / "echo.json")]) == code
    arms = [[(arm["slots"], arm["cumulative_gain"]) for arm in read_summary(out)["results"]["arms"]]
            for out in (first, config["out"])]
    assert arms[0] == arms[1]
    assert arms[0][1][0] == (int(flags[1]) if flags else 5)


def test_robustness_degenerate_pair_is_identical(tmp_path):
    out = str(tmp_path / "rob")
    assert main(["robustness", "--rounds", "3", "--out", out, "--slots", "9"]) == 0
    res = read_summary(out)["results"]
    gains = [arm["cumulative_gain"] for arm in res["arms"]]
    assert gains[0] == gains[1]


# -- train / eval ---------------------------------------------------------------------


def train_config(tmp_path):
    return tiny_config(
        tmp_path,
        rounds=3,
        seeds=[0],
        episode_seed_stride=0,
        sac={
            "total_steps": 60,
            "warmup_steps": 12,
            "batch_size": 8,
            "replay_capacity": 128,
            "hidden": 8,
            "eval_interval_episodes": 10,
        },
    )


def test_train_then_eval_matches_final_evaluation(tmp_path):
    cfg = train_config(tmp_path)
    assert main(["train", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "params.bin").exists()
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "episode,steps,cumulative_gain,actor_loss,critic_loss,alpha,entropy"
    assert len(curve) > 1
    train_summary = read_summary(out)

    eval_out = str(tmp_path / "ev")
    assert main([
        "eval", "--config", cfg, "--params", str(out / "params.bin"),
        "--seeds", "0,5,6", "--out", eval_out,
    ]) == 0
    rows = (tmp_path / "ev" / "eval.csv").read_text().splitlines()
    assert len(rows) == 1 + 3
    eval_summary = read_summary(eval_out)
    master_row = eval_summary["results"]["per_seed"][0]
    assert master_row["seed"] == 0
    assert master_row["cumulative_gain"] == pytest.approx(
        train_summary["results"]["final_eval_gain"], abs=1e-12
    )


def test_params_file_does_not_depend_on_out(tmp_path):
    cfg = train_config(tmp_path)
    first, second = tmp_path / "a", tmp_path / "elsewhere" / "b"
    for out in (first, second):
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    blob = (first / "params.bin").read_bytes()
    assert (second / "params.bin").read_bytes() == blob
    assert main(["eval", "--config", cfg, "--params", str(second / "params.bin")]) == 0
    assert read_summary(tmp_path / "out")["results"]["per_seed"][0]["seed"] == 0


def test_non_finite_training_exits_four_with_diagnostics(tmp_path, monkeypatch, capsys):
    def nan_targets(self, batch, scratch=None):
        return np.full((batch["rewards"].size, self.num_clients), np.nan)

    monkeypatch.setattr(SacAgent, "critic_targets", nan_targets)
    assert main(["train", "--config", train_config(tmp_path)]) == 4
    assert "diagnostics dumped to" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not (out / "params.bin").exists()
    # The episodes finished before the failing update keep their curve rows.
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == ",".join(CURVE_FIELDS)
    assert len(curve) > 1
    summary = read_summary(out)
    assert summary["command"] == "train"
    diag = summary["results"]["diagnostics"]
    assert diag["critic_loss"] == "nan"
    assert diag["max_abs_target"] == "nan"
    assert set(diag) == {"critic_loss", "actor_loss", "alpha_loss", "alpha",
                         "entropy", "max_abs_target", "max_abs_actor_param"}
    # Strict JSON: no NaN or Infinity tokens anywhere in the file.
    json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)


@pytest.mark.parametrize("blob", [b"not a policy", PARAMS_MAGIC + b"\x01"])
def test_eval_unreadable_params_exits_two(tmp_path, capsys, blob):
    params = tmp_path / "bad.bin"
    params.write_bytes(blob)
    assert main(["eval", "--config", tiny_config(tmp_path), "--params", str(params)]) == 2
    assert capsys.readouterr().err.startswith("config error: params:")


def test_eval_stale_params_exits_two(tmp_path, capsys):
    """A policy file whose actor reads the whole state next to each client's
    rows, as files saved before the per-client actor did, must be retrained."""
    cfg = tiny_config(tmp_path, sac=SHORT_SAC)
    params = tmp_path / "sac" / "params.bin"
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "sac")]) == 0
    agent = SacAgent.load(str(params))
    stale_in = agent.block + agent.num_models + agent.state_dim
    agent.actor = Mlp((stale_in, *agent.actor.sizes[1:]), np.random.default_rng(0))
    agent.save(str(params))
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--params", str(params)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: params:")
    assert "layer sizes" in err
    assert f"[{stale_in}, " in err
    assert not (tmp_path / "out").exists()


def test_eval_missing_params_exits_two(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    rc = main(["eval", "--config", cfg, "--params", str(tmp_path / "nope.bin")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


# -- oracle -----------------------------------------------------------------------------


def test_oracle_emits_dominance_table(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[0])
    assert main(["oracle", "--config", cfg]) == 0
    summary = read_summary(tmp_path / "out")
    res = summary["results"]
    assert res["sequences_tried"] == 2 ** (3 * 2)
    assert res["dominated"] is True
    assert [r["policy"] for r in res["table"]][0] == "exhaustive"
    lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
    assert lines[0] == "policy,gain,ratio_to_optimal"
    assert len(lines) == 1 + 7


def test_oracle_oversized_instance_exits_two(tmp_path, capsys, monkeypatch):
    """An instance whose round needs more graph rows than the oracle's limit
    is an input error: round 1 of 20 clients needs 20."""
    monkeypatch.setattr(policies, "EXHAUSTIVE_LIMIT", 19)
    cfg = tiny_config(tmp_path, scenario={**TINY_SCENARIO, "num_clients": 20})
    rc = main(["oracle", "--config", cfg])
    assert rc == 2
    assert "graph rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
