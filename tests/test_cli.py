"""Command-line interface: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from isccsim.cli import _schedule_for, main
from isccsim.config import ConfigError, RunConfig, parse_seed_list
from isccsim.episode import RoundEnv
from isccsim.network import generate_scenario
from isccsim.policies import GreedyGainPolicy
from isccsim.pool import PoolBank
from isccsim.sac import CURVE_FIELDS, PARAMS_MAGIC, SacAgent

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
    monkeypatch.setattr(PoolBank, "rect_bandwidth_hz", lambda self: np.full(len(self.time_freq), -1.0))
    rc = main(["simulate", "--config", tiny_config(tmp_path), "--policy", "greedy"])
    assert rc == 5
    assert "program fault: InvalidProblem" in capsys.readouterr().err
    summary = read_summary(tmp_path / "out")
    assert summary["results"] == {
        "error": "bandwidth_hz must be >= 0", "error_type": "InvalidProblem"
    }
    assert summary["meta"]["traceback"][0].startswith("Traceback")


@pytest.mark.parametrize("section, field, value", [
    ("sensing", "epsilon", 0.0),
    ("sensing", "tau_s", -1.0),
    ("scenario", "dl_bits_base", -1.0),
    ("scenario", "num_classes", 1),
    ("scenario", "num_clients", 0),
    ("pool", "hz_per_lane", 0.0),
    ("sac", "gamma", 1.5),
])
def test_invalid_section_values_exit_two(tmp_path, capsys, section, field, value):
    rc = main(["simulate", "--config", tiny_config(tmp_path, **{section: {field: value}})])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}:")


def test_simulate_unknown_policy_lists_valid_names(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    rc = main(["simulate", "--config", cfg, "--policy", "gredy"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "greedy" in err and "mp-tsc" in err and "sac" in err


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


def test_non_finite_training_exits_four_with_diagnostics(tmp_path, monkeypatch, capsys):
    def nan_targets(self, batch):
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


def test_oracle_oversized_instance_exits_two(tmp_path, capsys):
    cfg = tiny_config(tmp_path, scenario={**TINY_SCENARIO, "num_clients": 20})
    rc = main(["oracle", "--config", cfg])
    assert rc == 2
    assert "sequences" in capsys.readouterr().err
