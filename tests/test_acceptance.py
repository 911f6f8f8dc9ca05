"""End-to-end acceptance suite.

Eight checks, one test each, ordered; every test finishes by printing a
single PASS line with the measured numbers (visible with -s, or in the
report on failure). They exercise the full stack: solver vs brute-force
oracle, pipelined schedule length and timing-order cleanliness, baseline
ordering on the reference scenario, learned-policy near-optimality against
exhaustive enumeration, the slot-reduction robustness pair, finite-difference
gradient verification, pool-conservation audits, and byte-level output
determinism.
"""

import json

import numpy as np
import pytest

from conftest import TINY_ROUNDS, TINY_SCENARIO, random_problem
from isccsim.cli import main
from isccsim.episode import RoundEnv, audit_trace, run_episode
from isccsim.gain import SensingParams
from isccsim.mlp import gradient_check, scalar_gradient_check
from isccsim.network import ScenarioConfig, generate_scenario
from isccsim.policies import exhaustive_optimal, make_policy
from isccsim.pool import PoolConfig
from isccsim.sac import SacAgent, SacConfig, SacPolicy, train
from isccsim.schedule import Mode, makespan, plan_pipeline
from isccsim.workload import oracle_workload, solve_workload

REFERENCE_SCENARIO = ScenarioConfig()  # 500 m, 50 clients, 100 targets
REFERENCE_ROUNDS = 5
REFERENCE_SEEDS = range(10)
BASELINES = ("greedy", "ml-c", "ml-cc", "ml-scc", "mp-tsc", "random")


@pytest.fixture(scope="module")
def reference_runs():
    """All baselines on the reference scenario: shared by checks 2, 3, 7."""
    schedule = plan_pipeline(REFERENCE_ROUNDS, 9, Mode.ZEROS)
    pool_cfg = PoolConfig()
    sensing = SensingParams()
    traces = {}
    for name in BASELINES:
        traces[name] = []
        for seed in REFERENCE_SEEDS:
            scenario = generate_scenario(REFERENCE_SCENARIO, seed)
            policy = make_policy(name, seed=seed)
            traces[name].append(run_episode(scenario, policy, schedule, pool_cfg, sensing))
    return {"schedule": schedule, "pool_cfg": pool_cfg, "traces": traces}


@pytest.fixture(scope="module")
def tiny_training():
    """Exhaustive optimum plus three SAC runs on the fixed tiny instance."""
    scenario = generate_scenario(TINY_SCENARIO, 0)
    schedule = plan_pipeline(TINY_ROUNDS, 9, Mode.ZEROS)
    pool_cfg = PoolConfig()
    sensing = SensingParams()
    best = exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models=2)
    runs = []
    for sac_seed in (0, 1, 2):
        env = RoundEnv(lambda _i: scenario, schedule, pool_cfg, sensing)
        config = SacConfig(seed=sac_seed, total_steps=20_000,
                           target_gain=0.95 * best.gain,
                           eval_interval_episodes=25)
        result = train(env, config)
        trace = run_episode(scenario, SacPolicy(result.agent), schedule, pool_cfg, sensing)
        runs.append((sac_seed, result, trace))
    return {"best": best, "runs": runs, "schedule": schedule,
            "pool_cfg": pool_cfg}


@pytest.fixture(scope="module")
def robustness_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("robustness")
    slack_dir = base / "slack"
    binding_dir = base / "binding"
    slack_rc = main(["robustness", "--rounds", "3", "--out", str(slack_dir)])
    binding_rc = main([
        "robustness", "--rounds", "3", "--out", str(binding_dir),
        "--negative-control",
    ])
    with open(slack_dir / "summary.json") as fh:
        slack = json.load(fh)
    with open(binding_dir / "summary.json") as fh:
        binding = json.load(fh)
    return {"slack_rc": slack_rc, "binding_rc": binding_rc,
            "slack": slack, "binding": binding}


def test_criterion_1_solver_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    worst = 0
    modes = {"VS": 0, "WS": 0}
    for _ in range(200):
        problem = random_problem(rng)
        modes[problem.mode.name] += 1
        solved = solve_workload(problem).w_star
        bruteforce = oracle_workload(problem, grid=400)
        worst = max(worst, abs(solved - bruteforce))
        assert abs(solved - bruteforce) <= 1
    assert modes["VS"] > 0 and modes["WS"] > 0
    print(f"criterion 1: PASS max |solver-oracle| = {worst} over 200 problems "
          f"({modes['VS']} VS / {modes['WS']} WS)")


def test_criterion_2_pipeline_makespan_and_timing_order(reference_runs):
    zeros = plan_pipeline(5, 9, Mode.ZEROS)
    serial = plan_pipeline(5, 9, Mode.SERIAL)
    assert makespan(zeros) == 54
    assert makespan(serial) == 90
    violations = 0
    episodes = 0
    for traces in reference_runs["traces"].values():
        for trace in traces:
            episodes += 1
            violations += len(trace.violations)
    assert violations == 0
    print(f"criterion 2: PASS makespan 54 vs 90 slots; {violations} timing "
          f"violations across {episodes} overlapped episodes")


def test_criterion_3_greedy_dominates_baselines(reference_runs):
    means = {
        name: float(np.mean([t.cumulative_gain for t in traces]))
        for name, traces in reference_runs["traces"].items()
    }
    stds = {
        name: float(np.std([t.cumulative_gain for t in traces]))
        for name, traces in reference_runs["traces"].items()
    }
    print("criterion 3 table (mean +/- std cumulative gain, 10 seeds):")
    for name in BASELINES:
        print(f"  {name:8s} {means[name]:10.4f} +/- {stds[name]:.4f}")
    for name in BASELINES[1:]:
        assert means["greedy"] >= means[name], (
            f"greedy {means['greedy']:.4f} < {name} {means[name]:.4f}"
        )
    print("criterion 3: PASS greedy mean >= every baseline mean")


def test_criterion_4_learned_policy_near_optimal(tiny_training):
    best = tiny_training["best"]
    assert best.sequences_tried == 512
    for sac_seed, result, trace in tiny_training["runs"]:
        ratio = trace.cumulative_gain / best.gain
        assert result.steps <= 20_000
        assert trace.cumulative_gain >= 0.95 * best.gain, (
            f"seed {sac_seed}: {trace.cumulative_gain:.4f} < "
            f"0.95 x {best.gain:.4f}"
        )
        print(f"  sac seed {sac_seed}: ratio {ratio:.4f} after {result.steps} steps")
    print("criterion 4: PASS 3/3 seeds reached >= 0.95 x exhaustive optimum "
          "within 20k steps")


def test_criterion_5_slot_reduction_robustness(robustness_outputs):
    slack = robustness_outputs["slack"]["results"]
    binding = robustness_outputs["binding"]["results"]
    assert robustness_outputs["slack_rc"] == 0
    assert slack["within_tolerance"] is True
    assert slack["claims_differ"] is True
    g9, g5 = (arm["cumulative_gain"] for arm in slack["arms"])
    assert robustness_outputs["binding_rc"] == 3
    assert binding["within_tolerance"] is False
    print(f"criterion 5: PASS 9-slot gain {g9:.4f} == 5-slot gain {g5:.4f} "
          f"(gap {slack['relative_gap']:.2%}) with different claims; "
          f"binding control fails as required (gap {binding['relative_gap']:.2%})")


def test_criterion_6_gradients_match_finite_differences():
    env = RoundEnv(lambda _i: generate_scenario(TINY_SCENARIO, 0),
                   plan_pipeline(TINY_ROUNDS, 9, Mode.ZEROS),
                   PoolConfig(), SensingParams())
    obs = env.reset()
    agent = SacAgent(obs.state.size, 3, 2, SacConfig(),
                     np.random.default_rng(0))
    # Each network draws from its own stream, so no network's parameters
    # depend on the size of another.
    for k, net in enumerate((agent.actor, agent.critic1, agent.critic2,
                             agent.target1, agent.target2)):
        net.set_flat(np.random.default_rng([42, k]).normal(0.0, 0.5, size=net.num_params))
    rng = np.random.default_rng(42)
    batch = {
        "states": rng.random((8, agent.state_dim)),
        "actions": rng.integers(0, 2, size=(8, 3)),
        "rewards": rng.random(8),
        "next_states": rng.random((8, agent.state_dim)),
        "dones": rng.integers(0, 2, size=8).astype(float),
    }
    targets = agent.critic_targets(batch)
    actor_err = gradient_check(
        agent.actor, lambda: agent.actor_loss(batch)[:2], np.random.default_rng(1)
    )
    critic_err = gradient_check(
        agent.critic1, lambda: agent.critic_loss(agent.critic1, batch, targets),
        np.random.default_rng(2),
    )
    _, _, entropy = agent.actor_loss(batch)
    temp_err = scalar_gradient_check(
        agent.log_alpha, lambda la: agent.temperature_loss(la, entropy)
    )
    assert actor_err <= 1e-4
    assert critic_err <= 1e-4
    assert temp_err <= 1e-4
    print(f"criterion 6: PASS max relative errors actor {actor_err:.2e}, "
          f"critic {critic_err:.2e}, temperature {temp_err:.2e}")


def test_criterion_7_conservation_audit(reference_runs, tiny_training,
                                        robustness_outputs):
    audited = 0
    peak = 0.0
    for traces in reference_runs["traces"].values():
        for trace in traces:
            audit = audit_trace(trace, reference_runs["schedule"], reference_runs["pool_cfg"])
            assert audit["ok"], audit
            peak = max(peak, audit["max_cell_utilization"])
            audited += 1
    for _seed, _result, trace in tiny_training["runs"]:
        audit = audit_trace(trace, tiny_training["schedule"], tiny_training["pool_cfg"])
        assert audit["ok"], audit
        peak = max(peak, audit["max_cell_utilization"])
        audited += 1
    for key in ("slack", "binding"):
        for arm in robustness_outputs[key]["results"]["arms"]:
            assert arm["audit_ok"] is True
            audited += 1
    assert peak <= 1.0 + 1e-9
    print(f"criterion 7: PASS {audited} episodes audited, no cell above "
          f"capacity (peak utilization {peak:.6f}), releases restore residuals")


def test_criterion_8_byte_identical_outputs(tmp_path):
    out = tmp_path / "run"
    args = ["simulate", "--policy", "greedy", "--seeds", "0,1,2",
            "--rounds", "2", "--out", str(out)]
    assert main(args) == 0
    trace_first = (out / "trace.csv").read_bytes()
    summary_first = json.loads((out / "summary.json").read_text())
    assert main(args) == 0
    trace_second = (out / "trace.csv").read_bytes()
    summary_second = json.loads((out / "summary.json").read_text())
    assert trace_first == trace_second
    summary_first.pop("meta")
    summary_second.pop("meta")
    assert json.dumps(summary_first, sort_keys=True) == json.dumps(
        summary_second, sort_keys=True
    )
    print("criterion 8: PASS trace.csv byte-identical and summary.json "
          "identical outside the timestamp metadata")
