"""Command-line entry point: simulation runs, policy comparisons, the
9-to-5-slot robustness experiment, SAC training and evaluation, and the
exact-optimum report.

Every command writes deterministic CSV/JSON artifacts: with a fixed config
and seed list the bytes are identical across runs, except for the volatile
fields isolated under the summary's "meta" key. Exit codes: 0 success,
2 usage or configuration error, 3 failed experiment assertion, 4 training
produced a non-finite loss (its diagnostics go to summary.json), 5 a fault
of the program itself (the error goes to summary.json, and simulate keeps the
trace rows of the seeds that finished). Every exit but 2 writes summary.json.
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
    SensingMode,
    Target,
    generate_scenario,
)
from .policies import InstanceTooLarge, exhaustive_optimal, make_policy
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


def write_csv(out: str, name: str, header: tuple[str, ...], rows) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_curve(out: str, curve: list[dict]) -> None:
    rows = [tuple(row[k] for k in CURVE_FIELDS) for row in curve]
    write_csv(out, "curve.csv", CURVE_FIELDS, rows)


def write_summary(command: str, cfg: RunConfig, results: dict, t0: float, **meta) -> str:
    """Write `summary.json` and return its path. Strict JSON: a NaN or
    infinity in the results raises ValueError instead of being written."""
    payload = {
        "schema_version": cfg.schema_version,
        "command": command,
        "config": cfg.to_dict(),
        "results": results,
        "meta": {
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "wall_clock_s": round(time.time() - t0, 3),
            **meta,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


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


def _schedule_for(cfg: RunConfig, slots: int | None = None):
    return plan_pipeline(cfg.rounds, cfg.slots if slots is None else slots, Mode(cfg.mode))


def _episodes(name: str, cfg: RunConfig):
    """Yield (seed, trace) of one episode of policy `name` per seed of `cfg`.
    The sac policy is loaded once and checked against the first seed's scenario."""
    schedule = _schedule_for(cfg)
    pool_cfg = cfg.pool_config()
    sensing = cfg.sensing_params()
    scen_cfg = cfg.scenario_config()
    sac = None
    for seed in cfg.seeds:
        scenario = generate_scenario(scen_cfg, seed)
        if name == "exhaustive":
            yield seed, _exhaustive(scenario, schedule, pool_cfg, sensing).trace
            continue
        if name == "sac":
            policy = sac = sac or _load_sac(cfg, scenario)
        else:
            policy = _make_policy(name, seed)
        yield seed, run_episode(scenario, policy, schedule, pool_cfg, sensing)


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


def _gain_stats(gains: list[float]) -> dict:
    arr = np.array(gains)
    return {"mean_gain": float(arr.mean()), "std_gain": float(arr.std())}


def _trace_rows(seed: int, trace):
    for record in trace.rounds:
        for i, model in enumerate(record.decisions):
            yield (seed, record.round_index, i, model, record.workloads[i],
                   record.gains[i], record.feasible[i])


TRACE_HEADER = ("seed", "gr", "client", "model", "workload", "gain", "feasible")


# -- commands ---------------------------------------------------------------------
# Each command takes the run config and the parsed flags, writes its own
# tables and returns (results, exit code); `main` writes summary.json.


def cmd_simulate(cfg: RunConfig, _args) -> tuple[dict, int]:
    schedule = _schedule_for(cfg)
    pool_cfg = cfg.pool_config()
    rows, per_seed, utilization = [], [], []
    try:
        for seed, trace in _episodes(cfg.policy, cfg):
            audit = audit_trace(trace, schedule, pool_cfg)
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
    except ConfigError:
        raise
    except Exception as err:
        # A program fault (exit 5) keeps the rows of the seeds that finished,
        # then those of the failing seed's finished rounds, which an episode
        # that raised carries.
        if getattr(err, "trace", None) is not None:
            rows.extend(_trace_rows(cfg.seeds[len(per_seed)], err.trace))
        write_csv(cfg.out, "trace.csv", TRACE_HEADER, rows)
        raise
    results = {
        "policy": cfg.policy,
        "per_seed": per_seed,
        **_gain_stats([p["cumulative_gain"] for p in per_seed]),
        "utilization": utilization,
        "schedule": _schedule_summary(schedule),
        "audit_all_ok": all(p["audit_ok"] and not p["violations"] for p in per_seed),
    }
    write_csv(cfg.out, "trace.csv", TRACE_HEADER, rows)
    log.info("simulate: %d seeds, mean gain %.4f", len(cfg.seeds), results["mean_gain"])
    return results, 0


def _schedule_summary(schedule) -> dict:
    return {
        "mode": schedule.mode.value,
        "num_rounds": schedule.num_rounds,
        "cr_length": schedule.cr_length,
        "total_frames": schedule.total_frames,
        "makespan_slots": makespan(schedule),
    }


def cmd_compare(cfg: RunConfig, _args) -> tuple[dict, int]:
    names = [p.strip() for p in cfg.policy.split(",") if p.strip()]
    if len(names) < 2:
        raise ConfigError("policy", "compare needs at least two comma-separated policies")
    rows, table = [], []
    for name in names:
        gains = [trace.cumulative_gain for _seed, trace in _episodes(name, cfg)]
        rows.extend((name, seed, gain) for seed, gain in zip(cfg.seeds, gains))
        table.append({"policy": name, **_gain_stats(gains), "per_seed_gain": gains})
    write_csv(cfg.out, "compare.csv", ("policy", "seed", "gain"), rows)
    for entry in table:
        log.info("compare: %-8s mean %.4f std %.4f",
                 entry["policy"], entry["mean_gain"], entry["std_gain"])
    return {"table": table, "schedule": _schedule_summary(_schedule_for(cfg))}, 0


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
    schedule = _schedule_for(cfg, slots)
    graph = RoundEnv(lambda _i: scenario, schedule, pool_cfg, sensing).reset().graph
    problem = graph.problems.problem(0, 0)
    oracle_w = oracle_workload(problem, grid=400)
    policy = make_policy("greedy")
    trace = run_episode(scenario, policy, schedule, pool_cfg, sensing)
    audit = audit_trace(trace, schedule, pool_cfg)
    return {
        "slots": slots,
        "total_frames": schedule.total_frames,
        "makespan_slots": makespan(schedule),
        "bandwidth_hz": pool_cfg.freq_lanes * pool_cfg.hz_per_lane,
        "compute_cps": pool_cfg.compute_cps,
        "cumulative_gain": trace.cumulative_gain,
        "per_round_workloads": [list(r.workloads) for r in trace.rounds],
        "problem": _enum_safe(dataclasses.asdict(problem)),
        "w_star": int(graph.solutions[0, 0, 0]),
        "oracle_w_star": oracle_w,
        "claims": [claim_dict(c) for c in trace.all_claims()],
        "audit_ok": audit["ok"] and not trace.violations,
    }


def cmd_robustness(cfg: RunConfig, _args) -> tuple[dict, int]:
    scenario, sensing = robustness_scenario()
    base = _robustness_arm(cfg, scenario, sensing, 9, robustness_pool(9, boosted=False))
    reduced = _robustness_arm(
        cfg, scenario, sensing, cfg.reduced_slots,
        robustness_pool(cfg.reduced_slots, boosted=not cfg.negative_control),
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
    if not results["within_tolerance"]:
        print(
            f"robustness check failed: gain {g9:.6f} at 9 slots vs {g5:.6f} "
            f"at {cfg.reduced_slots} slots (gap {gap:.2%}); both allocations "
            f"dumped to {os.path.join(cfg.out, 'summary.json')}",
            file=sys.stderr,
        )
        return results, 3
    log.info("robustness: gap %.4g over %d vs %d slots", gap, 9, cfg.reduced_slots)
    return results, 0


# -- learning commands ----------------------------------------------------------------


def cmd_train(cfg: RunConfig, _args) -> tuple[dict, int]:
    scen_cfg = cfg.scenario_config()
    base_seed = cfg.seeds[0]
    stride = cfg.episode_seed_stride

    def factory(i: int):
        return generate_scenario(scen_cfg, base_seed + stride * i)

    env = RoundEnv(factory, _schedule_for(cfg), cfg.pool_config(), cfg.sensing_params())
    try:
        result = train(env, cfg.sac_config())
    except NonFiniteLoss as err:
        write_curve(cfg.out, err.curve)
        # Strict JSON has no NaN or infinity: those values are written as text.
        diagnostics = {k: v if math.isfinite(v) else str(v)
                       for k, v in err.diagnostics.items()}
        print(f"training failed: {err}; diagnostics dumped to "
              f"{os.path.join(cfg.out, 'summary.json')}", file=sys.stderr)
        return {"error": str(err), "diagnostics": diagnostics}, 4
    final_eval = evaluate(env, result.agent)
    write_curve(cfg.out, result.curve)
    params_path = os.path.join(cfg.out, "params.bin")
    # The echo leaves `out` out, so a policy's bytes do not depend on where it is written.
    run_config = {k: v for k, v in cfg.to_dict().items() if k != "out"}
    result.agent.save(params_path, norms=env.norms, extra={"run_config": run_config})
    results = {
        "steps": result.steps,
        "episodes": len(result.curve),
        "stopped_early": result.stopped_early,
        # -inf is the value before any evaluation: no evaluation ran.
        "best_eval_gain": None if result.best_eval_gain == -math.inf else result.best_eval_gain,
        "final_eval_gain": final_eval,
        "params_file": params_path,
    }
    log.info("train: %d steps, final eval gain %.4f", result.steps, final_eval)
    return results, 0


def cmd_eval(cfg: RunConfig, _args) -> tuple[dict, int]:
    per_seed = [{"seed": seed, "cumulative_gain": trace.cumulative_gain}
                for seed, trace in _episodes("sac", cfg)]
    write_csv(cfg.out, "eval.csv", ("seed", "gain"),
              [(p["seed"], p["cumulative_gain"]) for p in per_seed])
    return {"per_seed": per_seed, **_gain_stats([p["cumulative_gain"] for p in per_seed])}, 0


def cmd_oracle(cfg: RunConfig, _args) -> tuple[dict, int]:
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
    write_csv(cfg.out, "oracle.csv", ("policy", "gain", "ratio_to_optimal"), rows)
    return results, 0


# -- argument parsing --------------------------------------------------------------------

COMMANDS = {
    "simulate": ("run one policy over seeds; write trace.csv and summary.json", cmd_simulate),
    "compare": ("run several policies over shared seeds; write compare.csv", cmd_compare),
    "robustness": ("9-slot vs reduced-slot paired experiment", cmd_robustness),
    "train": ("train the SAC policy; write params.bin and curve.csv", cmd_train),
    "eval": ("evaluate a saved SAC policy over seeds", cmd_eval),
    "oracle": ("exact optimum by dynamic programming plus heuristic dominance table", cmd_oracle),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isccsim",
        description="Round-based ISCC orchestration simulator and SAC trainer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (info, _run) in COMMANDS.items():
        cmd = sub.add_parser(name, help=info)
        cmd.add_argument("--config", help="JSON config file (flags override it)")
        cmd.add_argument("--policy", help="policy name (comma-separated for compare)")
        cmd.add_argument("--seeds", help="comma-separated integer seeds")
        cmd.add_argument("--rounds", type=int, help="rounds per episode")
        cmd.add_argument("--mode", choices=("zeros", "serial"), help="schedule mode")
        cmd.add_argument("--out", help="output directory")
        slots = "reduced_slots" if name == "robustness" else "slots"
        cmd.add_argument("--slots", type=int, dest=slots,
                         help="frame length in slots (robustness: the reduced arm's, default 5)")
        cmd.add_argument("--params", help="learned parameter file (sac policy)")
        if name == "robustness":
            cmd.add_argument(
                "--negative-control", action="store_true",
                help="use the binding instance that must fail the equality check",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for name in ("policy", "rounds", "mode", "out", "slots", "reduced_slots", "params"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    if args.seeds is not None:
        cfg.seeds = parse_seed_list(args.seeds)
    if getattr(args, "negative_control", False):
        cfg.negative_control = True
    cfg.validate()
    # --out is a directory, or can be made as one under a writable directory.
    path = os.path.abspath(cfg.out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK)):
        raise ConfigError("out", f"{cfg.out} cannot be a directory: {path} is not a writable one")
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
        results, code = COMMANDS[args.command][1](cfg, args)
        write_summary(args.command, cfg, results, t0)
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # Input errors were all raised as ConfigError above: this one is a
        # fault of the program, such as a broken invariant or a shape mismatch.
        trace = traceback.format_exc()
        print(trace, end="", file=sys.stderr)
        results = {"error": str(err), "error_type": type(err).__name__}
        path = write_summary(args.command, cfg, results, t0, traceback=trace.splitlines())
        print(f"program fault: {type(err).__name__}; details dumped to {path}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
