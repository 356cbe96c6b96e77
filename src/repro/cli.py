"""Command-line interface: regenerate the paper's figures and inspect kernels.

Usage::

    python -m repro fig1
    python -m repro fig7 --kernel crypt --rates 10,30,50,100
    python -m repro fig8 --kernel raytracer
    python -m repro fig9 --workers 1,2,4,8,16,32
    python -m repro timeline --approach pyjama_async --rate 30
    python -m repro kernels [--size A]

Every subcommand prints the same rows the corresponding benchmark asserts
on; the benchmarks (``pytest benchmarks/ --benchmark-only``) remain the
checked source of truth.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .kernels import KERNELS, get_kernel, time_kernel
from .sim import (
    GUI_KERNELS,
    GuiBenchConfig,
    HttpBenchConfig,
    KernelCostModel,
    Machine,
    MachineConfig,
    SimEventLoop,
    SimThreadPool,
    Simulator,
    TraceRecorder,
    render_ascii,
    run_gui_benchmark,
    run_http_benchmark,
)
from .sim.approaches import APPROACHES, _HANDLERS, _build_world
from .sim.workload import fire_open_loop

__all__ = ["main"]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def cmd_fig1(args: argparse.Namespace) -> int:
    handler = KernelCostModel("fig1", serial_time=args.handler_ms / 1000.0,
                              parallel_fraction=0.9)
    for approach, title in (
        ("sequential", "(i) single-threaded event processing"),
        ("executor", "(ii) multi-threaded (thread-pool) processing"),
    ):
        result = run_gui_benchmark(
            GuiBenchConfig(approach=approach, kernel=handler,
                           rate=1000.0 / args.spacing_ms, n_events=args.events)
        )
        print(title)
        for i, rt in enumerate(result.response.samples):
            print(f"    request{i + 1}: fired at {i * args.spacing_ms:.0f}ms, "
                  f"responded after {rt * 1000:7.1f}ms")
    return 0


def _resolve_kernel(args: argparse.Namespace):
    if getattr(args, "calibrate", False):
        from .sim import calibrate_from_host

        models = calibrate_from_host()
        print(f"(calibrated from host: {args.kernel} = "
              f"{models[args.kernel].serial_time * 1000:.1f} ms serial)")
        return models[args.kernel]
    return GUI_KERNELS[args.kernel]


def cmd_fig7(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args)
    approaches = args.approaches.split(",")
    for a in approaches:
        if a not in APPROACHES:
            print(f"unknown approach {a!r}; choose from {', '.join(APPROACHES)}",
                  file=sys.stderr)
            return 2
    header = f"{'req/s':>6} | " + " | ".join(f"{a[:12]:>12}" for a in approaches)
    metric = args.metric
    print(f"Figure 7 [{args.kernel}]: mean {metric} time (ms), "
          f"kernel={kernel.serial_time * 1000:.0f}ms")
    print(header)
    print("-" * len(header))
    for rate in args.rates:
        row = []
        for approach in approaches:
            r = run_gui_benchmark(GuiBenchConfig(
                approach=approach, kernel=kernel, rate=float(rate),
                n_events=args.events))
            stats = r.response if metric == "response" else r.dispatch
            row.append(stats.mean * 1000)
        print(f"{rate:>6} | " + " | ".join(f"{v:>12.1f}" for v in row))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args)
    print(f"Figure 8 [{args.kernel}]: async vs async-parallel "
          f"({args.team} team threads), mean response (ms)")
    print(f"{'req/s':>6} | {'async':>10} | {'async-par':>10} | {'gain':>6}")
    for rate in args.rates:
        a = run_gui_benchmark(GuiBenchConfig(
            approach="pyjama_async", kernel=kernel, rate=float(rate),
            n_events=args.events)).response.mean * 1000
        p = run_gui_benchmark(GuiBenchConfig(
            approach="async_parallel", kernel=kernel, rate=float(rate),
            n_events=args.events, parallel_threads=args.team)).response.mean * 1000
        print(f"{rate:>6} | {a:>10.1f} | {p:>10.1f} | {a / p:>5.2f}x")
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    variants = [("jetty", None), ("pyjama", None),
                ("jetty", args.team), ("pyjama", args.team)]
    labels = ["jetty", "pyjama", f"jetty+par{args.team}", f"pyjama+par{args.team}"]
    header = f"{'workers':>8} | " + " | ".join(f"{l:>14}" for l in labels)
    print("Figure 9: throughput (responses/sec), "
          f"{args.users} virtual users, 16 cores")
    print(header)
    print("-" * len(header))
    for w in args.workers:
        row = []
        for server, par in variants:
            r = run_http_benchmark(HttpBenchConfig(
                server=server, worker_threads=w, parallel_threads=par,
                n_users=args.users))
            row.append(r.throughput)
        print(f"{w:>8} | " + " | ".join(f"{v:>14.1f}" for v in row))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render an EDT/worker occupancy Gantt for one approach."""
    if args.approach not in APPROACHES:
        print(f"unknown approach {args.approach!r}", file=sys.stderr)
        return 2
    cfg = GuiBenchConfig(approach=args.approach, kernel=GUI_KERNELS[args.kernel],
                         rate=float(args.rate), n_events=args.events,
                         await_style=args.await_style)
    # Rebuild the approach world with tracing enabled.
    trace = TraceRecorder()
    w = _build_world(cfg)
    w.edt.trace = trace
    for pool in w.pools.values():
        pool.trace = trace
    handler = _HANDLERS[cfg.approach]

    def fire(i: int) -> None:
        fired_at = w.sim.now
        w.edt.post(lambda: handler(w, lambda: w.stats.record(fired_at, w.sim.now)))

    fire_open_loop(w.sim, cfg.rate, cfg.n_events, fire)
    w.sim.run()
    print(f"timeline: {args.approach} on {args.kernel}, {args.rate} req/s, "
          f"{args.events} events")
    print(render_ascii(trace, width=args.width))
    print(f"mean response: {w.stats.mean * 1000:.1f} ms; "
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


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the unified benchmark harness (see docs/BENCHMARKS.md).

    ``python -m repro bench --filter dispatch`` measures the dispatch group
    and writes ``BENCH_dispatch.json``; add ``--compare BASELINE.json`` to
    gate against an archived result (non-zero exit on regression).
    """
    import pathlib
    import re

    from . import bench as b

    b.load_builtin()
    if not args.no_external:
        b.load_external()

    if args.list:
        for bm in b.all_benchmarks():
            slow = " [slow]" if bm.slow else ""
            tags = f" tags={','.join(bm.tags)}" if bm.tags else ""
            print(f"{bm.name:<28} group={bm.group}{tags}{slow}  {bm.description}")
        return 0

    selected = b.select(args.filter, include_slow=args.slow)
    if not selected:
        print(f"no benchmarks match {args.filter!r} "
              "(use --list to see what is registered)", file=sys.stderr)
        return 2
    protocol = b.Protocol(warmup=args.warmup, repeats=args.repeats, trim=args.trim)
    results = b.run_selected(
        args.filter, protocol, include_slow=args.slow,
        progress=lambda name: print(f"  running {name} ...", file=sys.stderr),
    )
    document = b.results_document(results, protocol)

    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", args.filter) if args.filter else "all"
    out = pathlib.Path(args.output) if args.output else pathlib.Path(f"BENCH_{stem}.json")
    b.write_json(out, document)
    print(b.format_table(document))
    print(f"wrote {out}")

    if args.compare is None:
        return 0
    try:
        baseline = b.load_json(args.compare)
    except (OSError, ValueError) as exc:
        print(f"cannot load baseline: {exc}", file=sys.stderr)
        return 2
    comparisons, warnings = b.compare(
        document, baseline, max_regress_pct=args.max_regress
    )
    print(b.format_comparison(comparisons, warnings,
                              max_regress_pct=args.max_regress))
    return 1 if any(c.regressed for c in comparisons) else 0


def cmd_check(args: argparse.Namespace) -> int:
    """Concurrency stress + trace-invariant checker (docs/CHECKING.md).

    ``python -m repro check --profile smoke --seed 1234`` runs seeded random
    workloads and verifies the recorded trace; non-zero exit means an
    invariant was violated, and re-running with the printed seed reproduces
    the report byte-for-byte.
    """
    from . import check as c

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
    print(announce_line(agent.host, agent.port), flush=True)
    try:
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
    from .serve import HttpServer, ServeConfig, export_trace

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
            n = export_trace(args.trace)
            obs.disable()
            print(f"wrote {args.trace}: {n} event(s) "
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
        ("defaults", "max_restarts=3 heartbeat=1.0sx3 cancel_grace=5.0s"),
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
    p.add_argument("--kernel", choices=sorted(GUI_KERNELS), default="crypt")
    p.add_argument("--rates", type=_parse_int_list,
                   default=[10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    p.add_argument("--events", type=int, default=200)
    p.add_argument("--approaches",
                   default="sequential,swingworker,executor,pyjama_async,sync_parallel")
    p.add_argument("--metric", choices=["response", "dispatch"], default="response",
                   help="dispatch = EDT responsiveness (fire -> handler start)")
    p.add_argument("--calibrate", action="store_true",
                   help="derive kernel times from this host's real kernels")
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("fig8", help="async vs async-parallel (Figure 8)")
    p.add_argument("--kernel", choices=sorted(GUI_KERNELS), default="crypt")
    p.add_argument("--rates", type=_parse_int_list, default=[10, 30, 50, 80, 100])
    p.add_argument("--events", type=int, default=200)
    p.add_argument("--team", type=int, default=3)
    p.add_argument("--calibrate", action="store_true",
                   help="derive kernel times from this host's real kernels")
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig9", help="HTTP throughput vs workers (Figure 9)")
    p.add_argument("--workers", type=_parse_int_list, default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--team", type=int, default=8)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("timeline", help="ASCII EDT/worker occupancy Gantt")
    p.add_argument("--approach", default="pyjama_async")
    p.add_argument("--kernel", choices=sorted(GUI_KERNELS), default="crypt")
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
        "bench",
        help="run the unified benchmark harness (docs/BENCHMARKS.md)",
    )
    p.add_argument("--filter", default=None,
                   help="substring matched against name/group/tags")
    p.add_argument("--warmup", type=int, default=2,
                   help="untimed warmup samples per benchmark")
    p.add_argument("--repeats", type=int, default=10,
                   help="timed samples per benchmark")
    p.add_argument("--trim", type=float, default=0.2,
                   help="fraction of slowest samples dropped before stats")
    p.add_argument("--slow", action="store_true",
                   help="include benchmarks marked slow")
    p.add_argument("--list", action="store_true",
                   help="list registered benchmarks and exit")
    p.add_argument("--no-external", action="store_true",
                   help="skip importing benchmarks/ registrations")
    p.add_argument("-o", "--output", default=None,
                   help="result JSON path (default: BENCH_<filter>.json in cwd)")
    p.add_argument("--compare", default=None, metavar="BASELINE.json",
                   help="gate against an archived result document")
    p.add_argument("--max-regress", type=float, default=25.0,
                   help="allowed p50 regression in percent (with --compare)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "check",
        help="concurrency stress + trace-invariant checker (docs/CHECKING.md)",
    )
    p.add_argument("--profile", choices=["smoke", "soak"], default="smoke",
                   help="workload size: smoke = CI-sized, soak = long "
                        "schedules plus the process-target phase")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; a failing report replays "
                        "byte-for-byte under the same seed")
    p.add_argument("--iterations", type=int, default=None,
                   help="override the profile's iteration count")
    p.add_argument("--ops", type=int, default=None,
                   help="override the profile's operations per iteration")
    p.add_argument("--inject", nargs="?", const="lying-exec-outcome",
                   choices=["lying-exec-outcome", "lost-dequeue",
                            "negative-depth"], default=None,
                   help="tamper with iteration 0's recorded events to prove "
                        "the checker catches a lying trace (forces exit 1)")
    p.add_argument("--dist", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the process-target phase on/off "
                        "(default: per profile)")
    p.add_argument("--serve", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the live HTTP worker-kill phase on/off "
                        "(default: per profile; soak runs it)")
    p.add_argument("--cluster", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force the cluster agent-kill phase on/off: two "
                        "loopback-TCP agents, one killed mid-region "
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
    p.add_argument("--inject", nargs="?", const="lying-exec-outcome",
                   choices=["lying-exec-outcome", "lost-dequeue",
                            "negative-depth"], default=None,
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
