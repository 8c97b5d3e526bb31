"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``plan``    recommend a D-CHAG configuration for a model/channel/TP budget
``tune``    search (strategy, tp, fsdp, dp) factorizations for a GPU budget
"""

from __future__ import annotations

import argparse
import sys


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core import plan_channel_stage
    from .perf import GiB, Workload, frontier, named_model

    machine = frontier()
    model = named_model(args.model)
    choice = plan_channel_stage(
        model, Workload(args.channels, args.batch), machine, tp=args.tp
    )
    est = choice.estimate
    print(f"model {args.model} | {args.channels} channels | TP{args.tp} on {machine.name}")
    print(f"recommended: {choice.plan.label}")
    print(f"  micro-batch: {est.micro_batch}")
    print(f"  memory:      {est.memory.total / GiB:.1f} GB/GPU ({est.memory.utilization(machine):.0%})")
    print(f"  throughput:  {est.tflops_per_gpu:.1f} TFLOP/s/GPU")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .perf import frontier, named_model, search_configurations

    machine = frontier()
    results = search_configurations(
        named_model(args.model), args.channels, args.gpus, machine, args.global_batch
    )
    if not results:
        print("no feasible configuration")
        return 1
    print(f"{len(results)} feasible configurations for {args.model} / "
          f"{args.channels}ch on {args.gpus} GCDs (global batch {args.global_batch}):")
    for t in results[: args.top]:
        print(f"  {t.summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="recommend a D-CHAG configuration")
    p_plan.add_argument("--model", default="7B")
    p_plan.add_argument("--channels", type=int, default=500)
    p_plan.add_argument("--tp", type=int, default=8)
    p_plan.add_argument("--batch", type=int, default=8)
    p_plan.set_defaults(fn=_cmd_plan)

    p_tune = sub.add_parser("tune", help="search (strategy, tp, fsdp, dp) factorizations")
    p_tune.add_argument("--model", default="7B")
    p_tune.add_argument("--channels", type=int, default=500)
    p_tune.add_argument("--gpus", type=int, default=1024)
    p_tune.add_argument("--global-batch", type=int, default=4096)
    p_tune.add_argument("--top", type=int, default=5)
    p_tune.set_defaults(fn=_cmd_tune)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
