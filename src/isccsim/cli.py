"""Command-line entry point: simulation runs, policy comparisons, the
9-to-5-slot robustness experiment, SAC training and evaluation, and the
exhaustive-oracle report.

Every command writes deterministic CSV/JSON artifacts: with a fixed config
and seed list the bytes are identical across runs, except for the volatile
fields isolated under the summary's "meta" key. Exit codes: 0 success,
2 usage or configuration error, 3 failed experiment assertion, 4 training
produced a non-finite loss (its diagnostics go to summary.json), 5 a fault
of the program itself (the error goes to summary.json).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import struct
import sys
import time
import traceback

import numpy as np

from .config import ConfigError, RunConfig, parse_seed_list
from .episode import RoundEnv, audit_trace, run_episode
from .gain import SensingParams, num_models
from .network import (
    ChannelParams,
    Client,
    EdgeServer,
    Scenario,
    ScenarioConfig,
    SensingMode,
    Target,
    generate_scenario,
)
from .policies import FixedSequencePolicy, InstanceTooLarge, exhaustive_optimal, make_policy
from .pool import PoolConfig
from .sac import CURVE_FIELDS, NonFiniteLoss, evaluate, load_policy, train
from .schedule import Mode, makespan, plan_pipeline
from .workload import oracle_workload

log = logging.getLogger("isccsim.cli")

ORACLE_POLICY_ORDER = ("greedy", "ml-c", "ml-cc", "ml-scc", "mp-tsc", "random")


# -- deterministic writers ------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_curve(out: str, curve: list[dict]) -> None:
    rows = [tuple(row[k] for k in CURVE_FIELDS) for row in curve]
    write_csv(os.path.join(out, "curve.csv"), CURVE_FIELDS, rows)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def summary_payload(command: str, cfg: RunConfig, results: dict, t0: float) -> dict:
    return {
        "schema_version": cfg.schema_version,
        "command": command,
        "config": cfg.to_dict(),
        "results": results,
        "meta": {
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "wall_clock_s": round(time.time() - t0, 3),
        },
    }


def claim_dict(claim) -> dict:
    return {
        "client": claim.client_id,
        "round": claim.round_index,
        "process": claim.process.name,
        "grid": claim.grid.name,
        "slots": list(claim.slot_range),
        "lanes": list(claim.lanes),
        "amount_per_cell": claim.amount_per_cell,
    }


def _enum_safe(data: dict) -> dict:
    return {k: (v.name if hasattr(v, "name") else v) for k, v in data.items()}


# -- shared episode plumbing -----------------------------------------------------


def _schedule_for(cfg: RunConfig):
    mode = Mode.ZEROS if cfg.mode == "zeros" else Mode.SERIAL
    return plan_pipeline(cfg.rounds, cfg.slots, mode)


def _run_policy_episode(name: str, cfg: RunConfig, seed: int, schedule,
                        pool_cfg, sensing):
    scenario = generate_scenario(cfg.scenario_config(), seed)
    if name == "exhaustive":
        result = _exhaustive(scenario, schedule, pool_cfg, sensing)
        policy = FixedSequencePolicy([list(r) for r in result.decisions])
    elif name == "sac":
        policy = _load_sac(cfg, scenario)
    else:
        policy = _make_policy(name, seed)
    return run_episode(scenario, policy, schedule, pool_cfg, sensing)


def _exhaustive(scenario, schedule, pool_cfg, sensing):
    try:
        return exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models(scenario))
    except InstanceTooLarge as err:
        raise ConfigError("scenario", str(err)) from err


def _make_policy(name: str, seed: int):
    try:
        return make_policy(name, seed=seed)
    except ValueError as err:
        raise ConfigError("policy", str(err)) from err


def _load_sac(cfg: RunConfig, scenario: Scenario):
    if not cfg.params:
        raise ConfigError("params", "the sac policy needs --params FILE")
    if not os.path.exists(cfg.params):
        raise ConfigError("params", f"file not found: {cfg.params}")
    try:
        policy = load_policy(cfg.params)
    except (ValueError, KeyError, struct.error) as err:
        raise ConfigError("params", f"{cfg.params}: {err}") from err
    trained = (policy.agent.num_clients, policy.agent.num_models)
    if trained != (len(scenario.clients), num_models(scenario)):
        raise ConfigError(
            "params", f"{cfg.params} was trained for (clients, models) = {trained}, "
            f"the scenario has {(len(scenario.clients), num_models(scenario))}"
        )
    return policy


def _trace_rows(seed: int, trace):
    for record in trace.rounds:
        for i, model in enumerate(record.decisions):
            yield (seed, record.round_index, i, model, record.workloads[i],
                   record.gains[i], record.feasible[i])


TRACE_HEADER = ("seed", "gr", "client", "model", "workload", "gain", "feasible")


# -- commands ---------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig) -> int:
    t0 = time.time()
    schedule = _schedule_for(cfg)
    pool_cfg = cfg.pool_config()
    sensing = cfg.sensing_params()
    rows, per_seed, utilization = [], [], []
    all_ok = True
    for seed in cfg.seeds:
        trace = _run_policy_episode(cfg.policy, cfg, seed, schedule, pool_cfg, sensing)
        audit = audit_trace(trace, schedule, pool_cfg)
        all_ok = all_ok and audit["ok"] and not trace.violations
        rows.extend(_trace_rows(seed, trace))
        per_seed.append({
            "seed": seed,
            "cumulative_gain": trace.cumulative_gain,
            "violations": len(trace.violations),
            "audit_ok": audit["ok"],
            "infeasible_edges": trace.infeasible_edges,
            "peak_cell_use": audit["max_cell_utilization"],
        })
        utilization.append({"seed": seed, "frames": list(trace.utilization)})
    gains = np.array([p["cumulative_gain"] for p in per_seed])
    results = {
        "policy": cfg.policy,
        "per_seed": per_seed,
        "mean_gain": float(gains.mean()),
        "std_gain": float(gains.std()),
        "utilization": utilization,
        "schedule": _schedule_summary(schedule),
        "audit_all_ok": all_ok,
    }
    os.makedirs(cfg.out, exist_ok=True)
    write_csv(os.path.join(cfg.out, "trace.csv"), TRACE_HEADER, rows)
    write_json(os.path.join(cfg.out, "summary.json"),
               summary_payload("simulate", cfg, results, t0))
    log.info("simulate: %d seeds, mean gain %.4f", len(cfg.seeds), results["mean_gain"])
    return 0


def _schedule_summary(schedule) -> dict:
    return {
        "mode": schedule.mode.value,
        "num_rounds": schedule.num_rounds,
        "cr_length": schedule.cr_length,
        "total_frames": schedule.total_frames,
        "makespan_slots": makespan(schedule),
    }


def cmd_compare(cfg: RunConfig) -> int:
    t0 = time.time()
    names = [p.strip() for p in cfg.policy.split(",") if p.strip()]
    if len(names) < 2:
        raise ConfigError("policy", "compare needs at least two comma-separated policies")
    schedule = _schedule_for(cfg)
    pool_cfg = cfg.pool_config()
    sensing = cfg.sensing_params()
    rows, table = [], []
    for name in names:
        gains = []
        for seed in cfg.seeds:
            trace = _run_policy_episode(name, cfg, seed, schedule, pool_cfg, sensing)
            gains.append(trace.cumulative_gain)
            rows.append((name, seed, trace.cumulative_gain))
        arr = np.array(gains)
        table.append({
            "policy": name,
            "mean_gain": float(arr.mean()),
            "std_gain": float(arr.std()),
            "per_seed_gain": gains,
        })
    results = {"table": table, "schedule": _schedule_summary(schedule)}
    os.makedirs(cfg.out, exist_ok=True)
    write_csv(os.path.join(cfg.out, "compare.csv"), ("policy", "seed", "gain"), rows)
    write_json(os.path.join(cfg.out, "summary.json"),
               summary_payload("compare", cfg, results, t0))
    for entry in table:
        log.info("compare: %-8s mean %.4f std %.4f",
                 entry["policy"], entry["mean_gain"], entry["std_gain"])
    return 0


# -- robustness experiment ----------------------------------------------------------


def robustness_scenario() -> tuple[Scenario, SensingParams]:
    """Single static VS client with a slack consumption budget: the workload
    cap (20 samples) binds, not time, so shorter frames can be paid for with
    wider bandwidth and faster compute."""
    client = Client(
        client_id=0,
        sensing_mode=SensingMode.VS,
        sensing_radius_m=300.0,
        dl_bits=(5e5,),
        ul_bits=(5e5,),
        cycles_per_sample=(1e6,),
    )
    edge = EdgeServer(0, (100.0, 100.0), ((0.25, 0.25, 0.25, 0.25),))
    targets = [
        Target(t, (40.0 + 8.0 * t, 80.0 + 5.0 * t), t % 4) for t in range(10)
    ]
    scenario = Scenario(
        area_m=200.0, clients=[client], edges=[edge], targets=targets,
        num_classes=4, channel=ChannelParams(),
        positions=[(60.0, 100.0)], velocities=[(0.0, 0.0)],
    )
    return scenario, SensingParams(tau_s=0.02, samples_per_target=2)


def robustness_pool(slots: int, boosted: bool) -> PoolConfig:
    if boosted:
        return PoolConfig(num_slots=slots, freq_lanes=2, comp_lanes=1,
                          slot_duration=0.1, hz_per_lane=1e6,
                          cycles_per_lane_slot=1.5e7)
    return PoolConfig(num_slots=slots, freq_lanes=1, comp_lanes=1,
                      slot_duration=0.1, hz_per_lane=1e6,
                      cycles_per_lane_slot=5e6)


def _robustness_arm(cfg: RunConfig, scenario, sensing, slots: int,
                    pool_cfg: PoolConfig) -> dict:
    mode = Mode.ZEROS if cfg.mode == "zeros" else Mode.SERIAL
    schedule = plan_pipeline(cfg.rounds, slots, mode)
    env = RoundEnv(lambda _i: scenario, schedule, pool_cfg, sensing)
    obs = env.reset()
    edge = obs.graph.edge(0, 0)
    oracle_w = oracle_workload(edge.problem, grid=400)
    policy = make_policy("greedy")
    trace = run_episode(scenario, policy, schedule, pool_cfg, sensing)
    audit = audit_trace(trace, schedule, pool_cfg)
    return {
        "slots": slots,
        "total_frames": schedule.total_frames,
        "makespan_slots": makespan(schedule),
        "bandwidth_hz": pool_cfg.freq_lanes * pool_cfg.hz_per_lane,
        "compute_cps": pool_cfg.comp_lanes * pool_cfg.cycles_per_lane_slot
        / pool_cfg.slot_duration,
        "cumulative_gain": trace.cumulative_gain,
        "per_round_workloads": [list(r.workloads) for r in trace.rounds],
        "problem": _enum_safe(dataclasses.asdict(edge.problem)),
        "w_star": edge.solution.w_star,
        "oracle_w_star": oracle_w,
        "claims": [claim_dict(c) for c in trace.all_claims()],
        "audit_ok": audit["ok"] and not trace.violations,
    }


def cmd_robustness(cfg: RunConfig, reduced_slots: int = 5) -> int:
    t0 = time.time()
    scenario, sensing = robustness_scenario()
    base = _robustness_arm(cfg, scenario, sensing, 9, robustness_pool(9, boosted=False))
    reduced = _robustness_arm(
        cfg, scenario, sensing, reduced_slots,
        robustness_pool(reduced_slots, boosted=not cfg.negative_control),
    )
    g9, g5 = base["cumulative_gain"], reduced["cumulative_gain"]
    gap = abs(g9 - g5) / max(g9, 1e-12)
    results = {
        "arms": [base, reduced],
        "relative_gap": gap,
        "within_tolerance": gap <= 0.01,
        "claims_differ": base["claims"] != reduced["claims"],
        "audit_all_ok": base["audit_ok"] and reduced["audit_ok"],
        "negative_control": cfg.negative_control,
    }
    os.makedirs(cfg.out, exist_ok=True)
    write_json(os.path.join(cfg.out, "summary.json"),
               summary_payload("robustness", cfg, results, t0))
    if not results["within_tolerance"]:
        print(
            f"robustness check failed: gain {g9:.6f} at 9 slots vs {g5:.6f} "
            f"at {reduced_slots} slots (gap {gap:.2%}); both allocations "
            f"dumped to {os.path.join(cfg.out, 'summary.json')}",
            file=sys.stderr,
        )
        return 3
    log.info("robustness: gap %.4g over %d vs %d slots", gap, 9, reduced_slots)
    return 0


# -- learning commands ----------------------------------------------------------------


def _train_env(cfg: RunConfig) -> RoundEnv:
    scen_cfg = cfg.scenario_config()
    base_seed = cfg.seeds[0]
    stride = cfg.episode_seed_stride

    def factory(i: int):
        return generate_scenario(scen_cfg, base_seed + stride * i)

    return RoundEnv(factory, _schedule_for(cfg), cfg.pool_config(), cfg.sensing_params())


def cmd_train(cfg: RunConfig) -> int:
    t0 = time.time()
    env = _train_env(cfg)
    result = train(env, cfg.sac_config())
    final_eval = evaluate(env, result.agent)
    os.makedirs(cfg.out, exist_ok=True)
    params_path = os.path.join(cfg.out, "params.bin")
    result.agent.save(params_path, norms=env.norms,
                      extra={"run_config": cfg.to_dict()})
    write_curve(cfg.out, result.curve)
    results = {
        "steps": result.steps,
        "episodes": len(result.curve),
        "stopped_early": result.stopped_early,
        "best_eval_gain": result.best_eval_gain,
        "final_eval_gain": final_eval,
        "params_file": params_path,
    }
    write_json(os.path.join(cfg.out, "summary.json"),
               summary_payload("train", cfg, results, t0))
    log.info("train: %d steps, final eval gain %.4f", result.steps, final_eval)
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    t0 = time.time()
    schedule = _schedule_for(cfg)
    pool_cfg = cfg.pool_config()
    sensing = cfg.sensing_params()
    scen_cfg = cfg.scenario_config()
    policy = _load_sac(cfg, generate_scenario(scen_cfg, cfg.seeds[0]))
    rows, per_seed = [], []
    for seed in cfg.seeds:
        scenario = generate_scenario(scen_cfg, seed)
        trace = run_episode(scenario, policy, schedule, pool_cfg, sensing)
        rows.append((seed, trace.cumulative_gain))
        per_seed.append({"seed": seed, "cumulative_gain": trace.cumulative_gain})
    gains = np.array([p["cumulative_gain"] for p in per_seed])
    results = {
        "per_seed": per_seed,
        "mean_gain": float(gains.mean()),
        "std_gain": float(gains.std()),
    }
    os.makedirs(cfg.out, exist_ok=True)
    write_csv(os.path.join(cfg.out, "eval.csv"), ("seed", "gain"), rows)
    write_json(os.path.join(cfg.out, "summary.json"),
               summary_payload("eval", cfg, results, t0))
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    t0 = time.time()
    schedule = _schedule_for(cfg)
    pool_cfg = cfg.pool_config()
    sensing = cfg.sensing_params()
    scenario = generate_scenario(cfg.scenario_config(), cfg.seeds[0])
    best = _exhaustive(scenario, schedule, pool_cfg, sensing)
    rows = [("exhaustive", best.gain, 1.0)]
    for name in ORACLE_POLICY_ORDER:
        policy = _make_policy(name, cfg.seeds[0])
        trace = run_episode(scenario, policy, schedule, pool_cfg, sensing)
        ratio = trace.cumulative_gain / best.gain if best.gain > 0 else 1.0
        rows.append((name, trace.cumulative_gain, ratio))
    results = {
        "sequences_tried": best.sequences_tried,
        "optimal_gain": best.gain,
        "optimal_decisions": [list(r) for r in best.decisions],
        "table": [
            {"policy": n, "gain": g, "ratio_to_optimal": r} for n, g, r in rows
        ],
        "dominated": all(r <= 1.0 + 1e-12 for _, _, r in rows),
    }
    os.makedirs(cfg.out, exist_ok=True)
    write_csv(os.path.join(cfg.out, "oracle.csv"),
              ("policy", "gain", "ratio_to_optimal"), rows)
    write_json(os.path.join(cfg.out, "summary.json"),
               summary_payload("oracle", cfg, results, t0))
    return 0


# -- argument parsing --------------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags override it)")
    sub.add_argument("--policy", help="policy name (comma-separated for compare)")
    sub.add_argument("--seeds", help="comma-separated integer seeds")
    sub.add_argument("--rounds", type=int, help="rounds per episode")
    sub.add_argument("--mode", choices=("zeros", "serial"), help="schedule mode")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--slots", type=int, help="frame length in slots")
    sub.add_argument("--params", help="learned parameter file (sac policy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isccsim",
        description="Round-based ISCC orchestration simulator and SAC trainer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, info in (
        ("simulate", "run one policy over seeds; write trace.csv and summary.json"),
        ("compare", "run several policies over shared seeds; write compare.csv"),
        ("robustness", "9-slot vs reduced-slot paired experiment"),
        ("train", "train the SAC policy; write params.bin and curve.csv"),
        ("eval", "evaluate a saved SAC policy over seeds"),
        ("oracle", "exhaustive enumeration plus heuristic dominance table"),
    ):
        cmd = sub.add_parser(name, help=info)
        _add_common_flags(cmd)
        if name == "robustness":
            cmd.add_argument(
                "--negative-control", action="store_true",
                help="use the binding instance that must fail the equality check",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.policy is not None:
        cfg.policy = args.policy
    if args.seeds is not None:
        cfg.seeds = parse_seed_list(args.seeds)
    if args.rounds is not None:
        cfg.rounds = args.rounds
    if args.mode is not None:
        cfg.mode = args.mode
    if args.out is not None:
        cfg.out = args.out
    if args.slots is not None:
        cfg.slots = args.slots
    if args.params is not None:
        cfg.params = args.params
    if getattr(args, "negative_control", False):
        cfg.negative_control = True
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("ISCCSIM_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        cfg = config_from_args(args)
    except (TypeError, ValueError) as err:
        # Only the given flags and config file can fail here.
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "robustness":
            reduced = args.slots if args.slots is not None else 5
            return cmd_robustness(cfg, reduced_slots=reduced)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        raise ConfigError("command", f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonFiniteLoss as err:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "summary.json")
        # Strict JSON has no NaN or infinity: those values are written as text.
        diagnostics = {k: v if math.isfinite(v) else str(v)
                       for k, v in err.diagnostics.items()}
        results = {"error": str(err), "diagnostics": diagnostics}
        write_json(path, summary_payload(args.command, cfg, results, t0))
        write_curve(cfg.out, err.curve)
        print(f"training failed: {err}; diagnostics dumped to {path}", file=sys.stderr)
        return 4
    except Exception as err:
        # Input errors were all raised as ConfigError above: this one is a
        # fault of the program, such as a broken invariant or a shape mismatch.
        trace = traceback.format_exc()
        print(trace, end="", file=sys.stderr)
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "summary.json")
        results = {"error": str(err), "error_type": type(err).__name__}
        payload = summary_payload(args.command, cfg, results, t0)
        payload["meta"]["traceback"] = trace.splitlines()
        write_json(path, payload)
        print(f"program fault: {type(err).__name__}; details dumped to {path}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
