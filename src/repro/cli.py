"""Command-line interface: regenerate the paper's figures and inspect kernels.

Usage::

    python -m repro fig1
    python -m repro fig7 --kernel crypt --rates 10,30,50,100
    python -m repro fig8 --kernel raytracer
    python -m repro fig9 --workers 1,2,4,8,16,32
    python -m repro timeline --approach pyjama_async --rate 30
    python -m repro kernels [--size A]

Each ``figN`` prints the table of one :mod:`repro.sim` sweep
(``repro.sim.figure1`` ... ``figure9``); with default arguments that is
byte for byte the file ``benchmarks/bench_figN_*.py`` archives under
``benchmarks/results/`` after asserting the paper's shape on the same data.
The runtime itself is timed by ``benchmarks/e2e``, not here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Collection, Sequence

__all__ = ["main"]

# Each command imports the subsystem it drives, so a command that needs
# none of them (``cluster-worker``, the agent other processes spawn) starts
# without loading numpy or the simulator.


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _unknown(what: str, name: str | None, have: Collection[str]) -> bool:
    """True, after naming the valid choices on stderr, if *name* is given
    and not one of *have* (the command then exits 2)."""
    if name is None or name in have:
        return False
    print(f"unknown {what} {name!r} (have: {', '.join(sorted(have))})", file=sys.stderr)
    return True


def cmd_fig1(args: argparse.Namespace) -> int:
    from .sim import figures

    _, lines = figures.figure1(args.handler_ms, args.spacing_ms, args.events)
    print("\n".join(lines))
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    from .sim import GUI_KERNELS, figures

    if _unknown("kernel", args.kernel, GUI_KERNELS):
        return 2
    approaches = args.approaches.split(",") if args.approaches else figures.FIG7_APPROACHES
    try:
        _, lines = figures.figure7(args.kernel, args.rates or figures.RATES, args.events,
                                   approaches, args.metric, args.calibrate)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    from .sim import GUI_KERNELS, figures

    if _unknown("kernel", args.kernel, GUI_KERNELS):
        return 2
    _, lines = figures.figure8(args.kernel, args.rates or figures.RATES, args.events,
                               args.team, args.calibrate)
    print("\n".join(lines))
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    from .sim import figures

    _, lines = figures.figure9(args.workers or figures.WORKERS, args.users, args.team)
    print("\n".join(lines))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render an EDT/worker occupancy Gantt for one approach."""
    from .sim import (
        APPROACHES,
        GUI_KERNELS,
        GuiBenchConfig,
        TraceRecorder,
        render_ascii,
        run_gui_benchmark,
    )

    if _unknown("approach", args.approach, APPROACHES) or _unknown(
        "kernel", args.kernel, GUI_KERNELS
    ):
        return 2
    trace = TraceRecorder()
    result = run_gui_benchmark(GuiBenchConfig(
        approach=args.approach, kernel=GUI_KERNELS[args.kernel],
        rate=float(args.rate), n_events=args.events, await_style=args.await_style,
    ), trace=trace)
    print(f"timeline: {args.approach} on {args.kernel}, {args.rate} req/s, "
          f"{args.events} events")
    print(render_ascii(trace, width=args.width))
    print(f"mean response: {result.response.mean * 1000:.1f} ms; "
          f"EDT busy: {trace.lane_busy_time('edt') * 1000:.1f} ms")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Pyjama-style file compilation: ``repro compile app.py -o app_omp.py``."""
    from .compiler import compile_source
    from .compiler.codegen import BRIDGE, RUNTIME

    try:
        source = open(args.input, encoding="utf-8").read()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        compiled = compile_source(source, filename=args.input)
    except SyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # DirectiveSyntaxError and friends
        print(f"compile error: {exc}", file=sys.stderr)
        return 2

    prelude = (
        "# Generated by `python -m repro compile`; do not edit.\n"
        f"import repro.compiler.bridge as {BRIDGE}\n"
        f"{RUNTIME} = None  # None = the process-default PjRuntime\n\n"
    )
    output = prelude + compiled + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(output)
        print(f"wrote {args.output}")
    else:
        print(output, end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a script under event tracing; export a Chrome/Perfetto trace.

    ``python -m repro trace examples/traced_gui_pipeline.py -o trace.json``
    then open the file at https://ui.perfetto.dev or ``chrome://tracing``.
    """
    import runpy

    from . import obs

    obs.enable(buffer_size=args.buffer)
    old_argv = sys.argv
    sys.argv = [args.script, *args.args]
    try:
        try:
            runpy.run_path(args.script, run_name="__main__")
        except SystemExit as exc:  # scripts may sys.exit(); keep the trace
            if exc.code not in (None, 0):
                print(f"script exited with {exc.code}", file=sys.stderr)
        except OSError as exc:
            print(f"cannot run {args.script}: {exc}", file=sys.stderr)
            return 2
    finally:
        sys.argv = old_argv
        obs.disable()
    events = obs.session().events()
    obs.write_chrome_trace(args.output, events)
    stats = obs.session().stats()
    print(
        f"wrote {args.output}: {len(events)} event(s) from "
        f"{stats['threads']} thread(s), {stats['dropped']} dropped "
        f"(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    if args.timeline:
        print(obs.to_text_timeline(events))
    if args.metrics:
        print(obs.format_metrics(obs.compute_metrics(events)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Concurrency stress + trace-invariant checker (docs/CHECKING.md).

    ``python -m repro check --profile smoke --seed 1234`` runs seeded random
    workloads and verifies the recorded trace; non-zero exit means an
    invariant was violated, and re-running with the printed seed reproduces
    the report byte-for-byte.
    """
    from . import check as c

    if _unknown("inject mode", args.inject, c.TAMPERS):
        return 2
    result = c.run_check(
        profile=args.profile,
        seed=args.seed,
        iterations=args.iterations,
        ops=args.ops,
        inject=args.inject,
        dist=args.dist,
        serve=args.serve,
        cluster=args.cluster,
        policy=args.policy,
    )
    print(c.render_report(result))
    return 0 if result.ok else 1


def cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Serve as a cluster worker agent until interrupted (docs/DISTRIBUTION.md).

    ``python -m repro cluster-worker --listen 127.0.0.1:0`` binds a
    kernel-assigned port and announces it on stdout; cluster targets
    created with ``virtual_target_create_cluster`` connect to the announced
    ``host:port`` and dispatch region bodies here.
    """
    from .cluster import ClusterAgent, parse_endpoint
    from .cluster.agent import announce_line

    try:
        host, port = parse_endpoint(args.listen)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    agent = ClusterAgent(host, port, max_slots=args.slots)
    try:
        agent.start()
    except OSError as exc:
        print(f"cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return 2
    try:  # a SIGINT right after the announce line is a stop too
        print(announce_line(agent.host, agent.port), flush=True)
        agent.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; stopping agent", file=sys.stderr)
    finally:
        agent.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Live event-driven HTTP serving on virtual targets (docs/SERVING.md).

    ``python -m repro serve`` stands up the Fig. 9 server for real traffic
    and prints its ``/stats`` snapshot when it stops.  Load comes from
    outside the process: ``benchmarks/e2e/run.py --workload serve_small``
    starts the server exactly this way.
    """
    import asyncio
    import json as _json

    from . import obs
    from .serve import HttpServer, ServeConfig

    if args.trace:
        obs.enable()
    config = ServeConfig(
        host=args.host, port=args.port, backend=args.backend,
        workers=args.workers, queue_capacity=args.capacity,
        policy=args.policy, request_timeout=args.request_timeout,
        rounds=args.rounds,
        edt_name=f"http-edt-{args.backend}",
        cpu_target=f"http-cpu-{args.backend}",
    )

    def finish_trace() -> None:
        if args.trace:
            events = obs.session().events()
            obs.write_chrome_trace(args.trace, events)
            obs.disable()
            print(f"wrote {args.trace}: {len(events)} event(s) "
                  "(open in https://ui.perfetto.dev or chrome://tracing)")

    async def serve_main() -> HttpServer:
        server = HttpServer(config)
        await server.start()
        print(f"serving on http://{args.host}:{server.port}/ "
              f"(backend={args.backend}, policy={args.policy}) — "
              "POST /encrypt, GET /stats, GET /healthz", flush=True)
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # Ctrl-C cancels and drains
        finally:
            await server.stop()
        return server

    try:
        server = asyncio.run(serve_main())
    except KeyboardInterrupt:
        print("\ninterrupted; drained and stopped", file=sys.stderr)
        finish_trace()
        return 0
    print(_json.dumps(server.stats.snapshot(), indent=2))
    finish_trace()
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Systematic interleaving exploration (docs/CHECKING.md, Exploration).

    ``python -m repro explore --workload post-2x1`` enumerates every
    interleaving of a workload model; a violating run writes its exact
    schedule to a file that ``--replay FILE`` re-executes step for step.
    Exit codes: 0 clean, 1 violation found, 2 replay diverged/mismatched.
    """
    from . import explore as x

    if args.list:
        width = max(len(n) for n in x.WORKLOADS)
        for name in sorted(x.WORKLOADS):
            print(f"{name:<{width}}  {x.WORKLOADS[name].description}")
        return 0

    if args.replay is not None:
        try:
            result = x.replay(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        print(x.render_replay_report(result, args.replay))
        return 0 if result.identical else 2

    bound = None if args.preemptions < 0 else args.preemptions
    try:
        result = x.explore(
            args.workload,
            preemption_bound=bound,
            max_schedules=args.max_schedules,
            inject=args.inject,
            seed=args.seed,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    schedule_path = None
    if result.violating is not None:
        schedule_path = x.save_schedule(args.out, x.ScheduleFile(
            workload=result.workload,
            steps=result.violating.choices,
            inject=result.inject,
            violations=[v.render() for v in result.violating.violations],
            meta={"preemption_bound": result.preemption_bound,
                  "seed": result.seed},
        ))
    print(x.render_explore_report(result, schedule_path))
    return 0 if result.ok else 1


def cmd_kernels(args: argparse.Namespace) -> int:
    from .kernels import KERNELS, get_kernel, time_kernel

    print(f"{'kernel':>12} | {'size':>8} | {'valid':>5} | {'t (ms)':>8} | paper | description")
    for name in sorted(KERNELS):
        spec = get_kernel(name)
        size = spec.sizes[args.size]
        ok = spec.validate(size)
        t = time_kernel(name, args.size, repeats=1)
        print(f"{name:>12} | {size:>8} | {str(ok):>5} | {t * 1000:>8.1f} | "
              f"{'yes' if spec.in_paper else 'ext':>5} | {spec.description}")
    return 0


def cmd_dist_info(args: argparse.Namespace) -> int:
    """Report what process/cluster-backed targets get from this host."""
    import multiprocessing
    import os

    from .cluster.transport import MAX_FRAME_BYTES
    from .dist.arena import ARENA_MAX_BYTES
    from .dist.process_target import DEFAULT_START_METHOD
    from .dist.remote_target import RemoteLaneTarget as Lanes
    from .dist.wire import ATTACH_MIN_BYTES, HAVE_CLOUDPICKLE, PROTOCOL_VERSION

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    rows = [
        ("cpu_count", os.cpu_count()),
        ("usable_cores (affinity)", usable),
        ("start_method (default)", DEFAULT_START_METHOD),
        ("start_methods (available)", ", ".join(multiprocessing.get_all_start_methods())),
        ("cloudpickle", "yes (closures/lambdas cross the wire)" if HAVE_CLOUDPICKLE
         else "no (module-level functions only)"),
        ("defaults", f"max_restarts={Lanes.max_restarts} "
         f"heartbeat=1.0sx{Lanes.heartbeat_misses} cancel_grace={Lanes.cancel_grace}s"),
        ("cluster protocol", f"version {PROTOCOL_VERSION} "
         "(hello handshake on every connection)"),
        ("cluster framing", "length-prefixed pickled message, payload of "
         f"{ATTACH_MIN_BYTES // 1024} KiB or more beside it; max frame "
         f"{MAX_FRAME_BYTES // (1024 * 1024)} MiB"),
        ("pipe lanes", f"payloads of {ATTACH_MIN_BYTES // 1024} KiB to "
         f"{ARENA_MAX_BYTES // (1024 * 1024)} MiB cross in shared memory"),
        ("cluster agent", "python -m repro cluster-worker --listen HOST:PORT"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:>{width}} : {value}")
    if usable < 2:
        print(f"{'note':>{width}} : single usable core — process pools add "
              "isolation and crash containment here, not parallel speedup")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Towards an Event-Driven "
                    "Programming Model for OpenMP' (ICPP 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="dispatch timelines (Figure 1)")
    p.add_argument("--handler-ms", type=float, default=200.0)
    p.add_argument("--spacing-ms", type=float, default=50.0)
    p.add_argument("--events", type=int, default=3)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig7", help="GUI response time vs load (Figure 7)")
    p.add_argument("--kernel", default="crypt")
    p.add_argument("--rates", type=_parse_int_list, default=None)
    p.add_argument("--events", type=int, default=200)
    p.add_argument("--approaches", default=None)
    p.add_argument("--metric", choices=["response", "dispatch"], default="response",
                   help="dispatch = EDT responsiveness (fire -> handler start)")
    p.add_argument("--calibrate", action="store_true",
                   help="derive kernel times from this host's real kernels")
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("fig8", help="async vs async-parallel (Figure 8)")
    p.add_argument("--kernel", default="crypt")
    p.add_argument("--rates", type=_parse_int_list, default=None)
    p.add_argument("--events", type=int, default=200)
    p.add_argument("--team", type=int, default=3)
    p.add_argument("--calibrate", action="store_true",
                   help="derive kernel times from this host's real kernels")
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig9", help="HTTP throughput vs workers (Figure 9)")
    p.add_argument("--workers", type=_parse_int_list, default=None)
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--team", type=int, default=8)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("timeline", help="ASCII EDT/worker occupancy Gantt")
    p.add_argument("--approach", default="pyjama_async")
    p.add_argument("--kernel", default="crypt")
    p.add_argument("--rate", type=float, default=30.0)
    p.add_argument("--events", type=int, default=8)
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--await-style", choices=["continuation", "pumping"],
                   default="continuation",
                   help="pumping = Algorithm 1's nested message loops")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("kernels", help="validate and time the kernel suite")
    p.add_argument("--size", choices=["A", "B", "C"], default="A")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser(
        "dist-info",
        help="report host capabilities for process-backed targets",
    )
    p.set_defaults(func=cmd_dist_info)

    p = sub.add_parser(
        "trace",
        help="run a script under event tracing; export a Chrome/Perfetto trace",
    )
    p.add_argument("script", help="python script to run (e.g. an example)")
    p.add_argument("args", nargs="*", help="arguments passed to the script")
    p.add_argument("-o", "--output", default="trace.json",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--buffer", type=int, default=None,
                   help="per-thread ring-buffer capacity (events)")
    p.add_argument("--timeline", action="store_true",
                   help="also print the plain-text timeline")
    p.add_argument("--metrics", action="store_true",
                   help="also print latency histograms (p50/p95/p99)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "check",
        help="concurrency stress + trace-invariant checker (docs/CHECKING.md)",
    )
    p.add_argument("--profile", choices=["smoke", "soak"], default="smoke",
                   help="workload size: smoke = CI-sized, soak = long "
                        "schedules plus every fault phase")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; a failing report replays "
                        "byte-for-byte under the same seed")
    p.add_argument("--iterations", type=int, default=None,
                   help="override the profile's iteration count")
    p.add_argument("--ops", type=int, default=None,
                   help="override the profile's operations per iteration")
    p.add_argument("--inject", nargs="?", const="lying-exec-outcome", default=None,
                   help="tamper with iteration 0's recorded events to prove "
                        "the checker catches a lying trace (forces exit 1)")
    p.add_argument("--dist", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the remote-lane phase's process row on/off: "
                        "a two-lane process target, one worker killed "
                        "mid-region (default: per profile; soak runs it)")
    p.add_argument("--serve", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the live HTTP worker-kill phase on/off "
                        "(default: per profile; soak runs it)")
    p.add_argument("--cluster", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the remote-lane phase's cluster row on/off: "
                        "two loopback-TCP agents, one killed mid-region "
                        "(default: per profile; soak runs it)")
    p.add_argument("--policy", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the scheduling-policy phase on/off: ring "
                        "stealing + dequeue batching under the full "
                        "verifier (default: per profile; soak runs it)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "cluster-worker",
        help="serve as a cluster worker agent (docs/DISTRIBUTION.md)",
    )
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind address; port 0 = kernel-assigned, announced "
                        "on stdout (default: 127.0.0.1:0)")
    p.add_argument("--slots", type=int, default=None,
                   help="cap concurrent task lanes this agent accepts "
                        "(default: unlimited)")
    p.set_defaults(func=cmd_cluster_worker)

    p = sub.add_parser(
        "serve",
        help="live event-driven HTTP server on virtual targets "
             "(docs/SERVING.md)",
    )
    p.add_argument("--backend", choices=["thread", "process"],
                   default="thread", help="CPU-target backing")
    p.add_argument("--policy", choices=["block", "reject", "caller_runs"],
                   default="reject",
                   help="rejection policy of the CPU target's bounded queue")
    p.add_argument("--workers", type=int, default=4,
                   help="CPU-target pool size")
    p.add_argument("--capacity", type=int, default=64,
                   help="bounded queue capacity (admission window)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 = kernel-assigned, announced on stdout)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve (0 = until Ctrl-C)")
    p.add_argument("--request-timeout", type=float, default=10.0,
                   help="per-request deadline before 504")
    p.add_argument("--rounds", type=int, default=1,
                   help="encrypt passes per request (CPU-cost knob)")
    p.add_argument("--trace", default=None, metavar="TRACE.json",
                   help="export a Chrome/Perfetto trace of the served run")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "explore",
        help="systematic interleaving exploration (docs/CHECKING.md)",
    )
    p.add_argument("--workload", default="post-2x1",
                   help="workload model to explore (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list workload models and exit")
    p.add_argument("--max-schedules", type=int, default=2000,
                   help="run budget; exploration reports whether the "
                        "schedule tree was drained within it")
    p.add_argument("--preemptions", type=int, default=-1,
                   help="preemption bound per schedule (CHESS-style); "
                        "-1 = unbounded (exhaustive)")
    p.add_argument("--inject", nargs="?", const="lying-exec-outcome", default=None,
                   help="tamper with each run's recorded events to prove "
                        "the explorer catches a lying trace (forces exit 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize continuation tie-breaks (schedule "
                        "diversity when the tree exceeds the budget); "
                        "deterministic per seed")
    p.add_argument("--out", default="explore-artifacts",
                   help="directory for violating schedule files")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-execute a saved schedule file and compare "
                        "its violations against the recording")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "compile", help="source-to-source compile a file's #omp pragmas"
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None,
                   help="output path (default: stdout)")
    p.set_defaults(func=cmd_compile)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
