"""Command-line interface: regenerate figures and inspect the platform.

Usage::

    python -m repro.cli figure 7 [--scale paper] [-j 4]
    python -m repro.cli figure 9 --collective-mode hybrid:sync=analytic
    python -m repro.cli figures -j 4        # all of them, 4 workers
    python -m repro.cli calibrate           # platform micro-benchmarks
    python -m repro.cli backends            # collective-fidelity backends
    python -m repro.cli protocols           # collective-I/O protocols
    python -m repro.cli zoo [--nprocs 16]   # protocol leaderboard + advisor
    python -m repro.cli faults classes      # available fault classes
    python -m repro.cli faults sweep straggler [--severities 0.5,0.9]
    python -m repro.cli faults report       # per-class impact comparison
    python -m repro.cli perf profile tileio_detailed [--full] [--top 25]
    python -m repro.cli perf list           # profileable experiments
    python -m repro.cli cache [--clear]     # inspect / clear the run cache
    python -m repro.cli validate differential [--cases 200] [--seed 0]
    python -m repro.cli serve [--port 8642] [--workers 2]   # job server
    python -m repro.cli submit tile_io --nprocs 16 --wait   # one job
    python -m repro.cli jobs [--tenant acme]                # job listing
    python -m repro.cli result j000001 [--wait]             # fetch result
    python -m repro.cli list                # what is available

``--jobs/-j N`` evaluates each figure's experiment grid on an N-worker
process pool (default 1 — serial, results are bit-identical either way);
``--no-cache`` bypasses the persistent run cache under
``benchmarks/.runcache/``.  The ``REPRO_JOBS`` / ``REPRO_RUNCACHE``
environment variables set the defaults (see
:mod:`repro.harness.parallel`).

``--collective-mode`` selects the collective-fidelity policy for the
figures whose sweeps support it: any spelling ``repro backends`` prints
(:data:`repro.simmpi.backends.SPELLINGS`).

``--validate`` runs every experiment point under the
:mod:`repro.validate` correctness oracle (``REPRO_VALIDATE=1`` sets the
default); validated and unvalidated runs never share run-cache entries.
``validate differential`` is the standalone generator-fleet gate.

The same figure definitions back the pytest benchmarks; the CLI is for
interactive exploration without the pytest machinery.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Optional

from repro.harness import figures
from repro.simmpi.backends import SPELLINGS

FIGURES: dict[str, Callable] = {
    "1": figures.fig01_collective_wall,
    "2": figures.fig02_breakdown,
    "5": figures.fig05_aggregator_distribution,
    "6": figures.fig06_ior,
    "7": figures.fig07_tileio_groups,
    "8": figures.fig08_sync_reduction,
    "9": figures.fig09_scalability,
    "10": figures.fig10_btio,
    "11": figures.fig11_flashio,
}

#: figures whose functions accept a ``scale`` keyword
_SCALED = {"1", "2", "6", "7", "8", "9", "10", "11"}


def _make_executor(jobs: Optional[int], no_cache: bool,
                   validate: bool = False):
    """An executor honoring flags first, then the environment."""
    from repro.harness.parallel import ExperimentExecutor

    overrides = {}
    if jobs is not None:
        overrides["jobs"] = jobs
    if no_cache:
        overrides["cache"] = False
    if validate:
        overrides["validate"] = True
    return ExperimentExecutor.from_env(**overrides)


def _run_figure(number: str, scale: str, chart: bool = False,
                collective_mode: str | None = None,
                executor=None) -> int:
    fn = FIGURES.get(number)
    if fn is None:
        print(f"unknown figure {number!r}; available: "
              f"{', '.join(sorted(FIGURES, key=lambda s: int(s)))}",
              file=sys.stderr)
        return 2
    params = inspect.signature(fn).parameters
    kwargs = {"scale": scale} if number in _SCALED else {}
    if executor is not None and "executor" in params:
        kwargs["executor"] = executor
    if collective_mode is not None:
        if "collective_mode" not in params:
            print(f"figure {number} does not support --collective-mode",
                  file=sys.stderr)
            return 2
        from repro.errors import MPIError
        from repro.simmpi.backends import resolve_backend

        try:
            resolve_backend(collective_mode)
        except MPIError as exc:
            print(f"bad --collective-mode: {exc}", file=sys.stderr)
            return 2
        kwargs["collective_mode"] = collective_mode
    result = fn(**kwargs)
    print(result.to_table())
    if chart:
        from repro.harness.plots import figure_chart

        print()
        print(figure_chart(result))
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.harness.fault_sweep import FAULT_CLASSES, fault_sweep

    if args.faults_command == "classes":
        for name in sorted(FAULT_CLASSES):
            fc = FAULT_CLASSES[name]
            sevs = ", ".join(f"{s:g}" for s in fc.severities)
            print(f"{name:>10}: {fc.description}")
            print(f"{'':>10}  severities [{sevs}], probe {fc.probe:g}, "
                  f"collectives {fc.collective_mode}")
        return 0
    executor = _make_executor(args.jobs, args.no_cache, validate=args.validate)
    if args.faults_command == "sweep":
        severities = None
        if args.severities:
            try:
                severities = tuple(float(s)
                                   for s in args.severities.split(","))
            except ValueError:
                print(f"bad --severities {args.severities!r}: expected "
                      "comma-separated numbers", file=sys.stderr)
                return 2
        try:
            result = fault_sweep(args.fault_class, severities=severities,
                                 scale=args.scale,
                                 collective_mode=args.collective_mode,
                                 executor=executor)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.to_table())
        if args.chart:
            from repro.harness.plots import figure_chart

            retained = [k for k in result.series if k.endswith(" retained")]
            print()
            print(figure_chart(result, series_names=retained, logx=False))
        return 0
    if args.faults_command == "report":
        from repro.analysis import fault_impact

        print(fault_impact(scale=args.scale, executor=executor).summary())
        return 0
    return 2  # pragma: no cover


def _run_perf(args: argparse.Namespace) -> int:
    from repro.harness.hotpath import CONFIGS, profile_config

    if args.perf_command == "list":
        for name, builder in sorted(CONFIGS.items()):
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"{name:>16}: {doc}")
        return 0
    if args.perf_command == "profile":
        if args.experiment not in CONFIGS:
            print(f"unknown experiment {args.experiment!r}; available: "
                  f"{', '.join(sorted(CONFIGS))}", file=sys.stderr)
            return 2
        table, perf = profile_config(args.experiment, smoke=not args.full,
                                     top=args.top, sort=args.sort,
                                     shards=args.shards)
        scale = "full" if args.full else "smoke"
        sharded = f", {args.shards} shards" if args.shards > 1 else ""
        print(f"profile of {args.experiment} ({scale} scale{sharded}, "
              "cProfile overhead included):")
        print(table)
        print("sim perf counters:")
        for label, value in perf.lines():
            print(f"  {label}: {value}")
        return 0
    return 2  # pragma: no cover


def _run_validate(args: argparse.Namespace) -> int:
    from repro.validate.differential import run_differential

    def progress(done: int, total: int) -> None:
        if done % 25 == 0 or done == total:
            print(f"  {done}/{total} cases", file=sys.stderr)

    summary = run_differential(args.cases, seed=args.seed,
                               progress=progress)
    if args.out:
        summary.write_json(args.out)
        print(f"report written to {args.out}")
    print(f"differential: {summary.passed}/{summary.cases} cases passed, "
          f"{summary.checks} oracle/invariant checks, seed {summary.seed}")
    if not summary.ok:
        for failed in summary.failures[:5]:
            print(f"FAILED case: {failed['case']}", file=sys.stderr)
            for item in failed["failures"]:
                print(f"  {item}", file=sys.stderr)
        if len(summary.failures) > 5:
            print(f"... and {len(summary.failures) - 5} more "
                  "(see the JSON report)", file=sys.stderr)
        return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigError
    from repro.service.server import ServiceConfig, serve

    try:
        config = ServiceConfig(
            host=args.host, port=args.port, workers=args.workers,
            max_queue=args.max_queue,
            max_tenant_queue=args.max_tenant_queue,
            cache=not args.no_cache, validate=args.validate,
            pool=args.pool)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def ready(server) -> None:
        print(f"simulation service listening on {server.url} "
              f"({config.workers} {config.pool} workers, "
              f"queue bound {config.max_queue})", file=sys.stderr)

    try:
        asyncio.run(serve(config, ready=ready))
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    except OSError as exc:  # port in use, bad host, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _job_line(job: dict) -> str:
    extra = ""
    if job.get("coalesced_with"):
        extra = f" <- {job['coalesced_with']}"
    return (f"{job['id']}  {job['state']:>7}  {job['source']:>9}  "
            f"tenant={job['tenant']}  {job['workload']}"
            f"/np{job['nprocs']}{extra}")


def _print_result(payload: dict) -> int:
    from repro.harness.report import mb_per_s

    job = payload.get("job", {})
    if payload.get("state") == "failed":
        error = payload.get("error") or {}
        print(f"{job.get('id', '?')} FAILED: "
              f"{error.get('type', '?')}: {error.get('message', '')}",
              file=sys.stderr)
        return 1
    result = payload["result"]
    print(_job_line(job))
    print(f"  write bandwidth: {mb_per_s(result['write_bandwidth']):8.2f} MB/s")
    if result.get("read_bandwidth"):
        print(f"  read bandwidth:  {mb_per_s(result['read_bandwidth']):8.2f} MB/s")
    print(f"  simulated time:  {result['elapsed_total']:.6f} s")
    print(f"  events: {result['events']}, messages: {result['messages']}, "
          f"backend: {result['backend']}")
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import (BackpressureError, ServiceClient,
                                      ServiceError)

    def parse_json_arg(raw: str | None, what: str) -> dict:
        if not raw:
            return {}
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad {what} JSON: {exc}")
        if not isinstance(obj, dict):
            raise ValueError(f"{what} must be a JSON object")
        return obj

    try:
        if args.task_file:
            with open(args.task_file, encoding="utf-8") as fh:
                descriptor = json.load(fh)
            if not isinstance(descriptor, dict):
                raise ValueError("--task-file must hold a JSON object")
        else:
            if not args.workload:
                print("error: pass a workload name or --task-file",
                      file=sys.stderr)
                return 2
            config = parse_json_arg(args.config, "--config")
            if args.nprocs is not None:
                config["nprocs"] = args.nprocs
            if args.shards is not None:
                config["shards"] = args.shards
            descriptor = {"config": config, "workload": args.workload}
            wl = parse_json_arg(args.workload_config, "--workload-config")
            if wl:
                descriptor["workload_config"] = wl
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    client = ServiceClient(args.url)
    try:
        job = client.submit(descriptor, tenant=args.tenant,
                            retries=args.retries)
    except BackpressureError as exc:
        print(f"rejected (backpressure): {exc}; retry after "
              f"{exc.retry_after:g}s", file=sys.stderr)
        return 3
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_job_line(job))
    if not args.wait:
        return 0
    try:
        return _print_result(client.wait(job["id"], timeout=args.timeout))
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        jobs = client.jobs(args.tenant)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(_job_line(job))
    return 0


def _run_result(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.wait:
            payload = client.wait(args.job_id, timeout=args.timeout)
        else:
            payload = client.result(args.job_id)
    except ServiceError as exc:
        if exc.status == 409:
            state = exc.payload.get("state", "pending")
            print(f"{args.job_id} is still {state} (use --wait)",
                  file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _print_result(payload)


def _add_service_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default="http://127.0.0.1:8642",
                        help="service endpoint "
                             "(default http://127.0.0.1:8642)")


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                        help="evaluate experiment grids on N worker "
                             "processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent run cache "
                             "(benchmarks/.runcache/)")
    parser.add_argument("--validate", action="store_true",
                        help="run every experiment point under the "
                             "correctness oracle (default: $REPRO_VALIDATE)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParColl reproduction: regenerate paper figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument("number", help="paper figure number (1..11)")
    p_fig.add_argument("--scale", choices=("small", "paper"),
                       default="small")
    p_fig.add_argument("--chart", action="store_true",
                       help="also render a terminal chart of the series")
    p_fig.add_argument("--collective-mode", default=None, metavar="SPEC",
                       help="collective-fidelity policy for the sweep: "
                            + ", ".join(s for s, _ in SPELLINGS.values()))
    _add_parallel_flags(p_fig)

    p_all = sub.add_parser("figures", help="regenerate every figure")
    p_all.add_argument("--scale", choices=("small", "paper"),
                       default="small")
    _add_parallel_flags(p_all)

    sub.add_parser("calibrate", help="run platform micro-benchmarks")
    sub.add_parser("backends", help="list collective-fidelity backends")
    sub.add_parser("protocols", help="list collective-I/O protocols")

    p_zoo = sub.add_parser(
        "zoo", help="race every protocol, print leaderboard + advisor picks")
    p_zoo.add_argument("--nprocs", type=int, default=16,
                       help="process count (default 16; square counts "
                            "include the BT-IO pattern)")
    p_zoo.add_argument("--scale", choices=("small", "paper"),
                       default="small")
    p_zoo.add_argument("--max-evals", type=int, default=6, metavar="N",
                       help="fresh runs the golden-section tuner may "
                            "spend per tunable protocol (default 6)")
    _add_parallel_flags(p_zoo)

    p_faults = sub.add_parser(
        "faults", help="fault-injection sweeps and impact reports")
    f_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    f_sweep = f_sub.add_parser(
        "sweep", help="degradation curves for one fault class")
    f_sweep.add_argument("fault_class", nargs="?", default="straggler",
                         help="fault class (see 'faults classes'); "
                              "default straggler")
    f_sweep.add_argument("--scale", choices=("small", "paper"),
                         default="small")
    f_sweep.add_argument("--severities", default=None, metavar="S1,S2,...",
                         help="comma-separated severities in [0,1) "
                              "(default: the class's grid)")
    f_sweep.add_argument("--collective-mode", default=None, metavar="SPEC",
                         help="override the class's collective-fidelity "
                              "backend")
    f_sweep.add_argument("--chart", action="store_true",
                         help="also render a terminal chart of the "
                              "retained-speed curves")
    _add_parallel_flags(f_sweep)
    f_report = f_sub.add_parser(
        "report", help="probe every fault class, compare protocol damage")
    f_report.add_argument("--scale", choices=("small", "paper"),
                          default="small")
    _add_parallel_flags(f_report)
    f_sub.add_parser("classes", help="list fault classes")

    p_perf = sub.add_parser(
        "perf", help="profile the simulation core on a hot-path workload")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_profile = perf_sub.add_parser(
        "profile", help="run a named experiment under cProfile")
    p_profile.add_argument("experiment",
                           help="hot-path experiment name (see "
                                "'perf list'): tileio_detailed, "
                                "btio_iview, flash_verified")
    p_profile.add_argument("--full", action="store_true",
                           help="full-size config (default: smoke scale)")
    p_profile.add_argument("--top", type=int, default=25, metavar="N",
                           help="show the N hottest functions (default 25)")
    p_profile.add_argument("--sort", default="cumulative",
                           choices=("cumulative", "tottime", "calls"),
                           help="cProfile sort order")
    p_profile.add_argument("--shards", type=int, default=1, metavar="N",
                           help="partition the run across N engine "
                                "shards (parcoll workloads only; others "
                                "fall back to one engine)")
    perf_sub.add_parser("list", help="list profileable experiments")

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the persistent run cache")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached run result")

    p_val = sub.add_parser(
        "validate", help="correctness-oracle harnesses")
    v_sub = p_val.add_subparsers(dest="validate_command", required=True)
    v_diff = v_sub.add_parser(
        "differential",
        help="run generated cases through every protocol/backend "
             "combination against the golden oracle")
    v_diff.add_argument("--cases", type=int, default=200, metavar="N",
                        help="number of generated cases (default 200)")
    v_diff.add_argument("--seed", type=int, default=0,
                        help="case-generator seed (default 0)")
    v_diff.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here (the CI "
                             "oracle-diff artifact)")

    p_serve = sub.add_parser(
        "serve", help="run the simulation job server (asyncio, HTTP/JSON)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = ephemeral; default 8642)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="concurrent pool executions (default 2)")
    p_serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                         help="global queue bound before 429s (default 64)")
    p_serve.add_argument("--max-tenant-queue", type=int, default=None,
                         metavar="N",
                         help="per-tenant queue bound (default: --max-queue)")
    p_serve.add_argument("--pool", choices=("process", "thread"),
                         default="process",
                         help="worker pool kind (default process)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the shared run cache")
    p_serve.add_argument("--validate", action="store_true",
                         help="run every job under the correctness oracle")

    p_submit = sub.add_parser(
        "submit", help="submit one simulation job to a running server")
    p_submit.add_argument("workload", nargs="?", default=None,
                          help="registered workload name (tile_io, ior, "
                               "btio, flash_io); or use --task-file")
    p_submit.add_argument("--nprocs", type=int, default=None,
                          help="shorthand for config nprocs")
    p_submit.add_argument("--shards", type=int, default=None, metavar="N",
                          help="shorthand for config shards (sharded "
                               "parallel execution for parcoll workloads)")
    p_submit.add_argument("--config", default=None, metavar="JSON",
                          help="ExperimentConfig fields as a JSON object")
    p_submit.add_argument("--workload-config", default=None, metavar="JSON",
                          help="workload config fields as a JSON object")
    p_submit.add_argument("--task-file", default=None, metavar="PATH",
                          help="full task descriptor JSON file "
                               "(overrides the inline flags)")
    p_submit.add_argument("--tenant", default="default",
                          help="tenant name for fair-share accounting")
    p_submit.add_argument("--retries", type=int, default=0, metavar="N",
                          help="retry a 429 up to N times, honoring "
                               "Retry-After (default 0)")
    p_submit.add_argument("--wait", action="store_true",
                          help="follow the job and print its result")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="--wait bound in seconds (default 600)")
    _add_service_url(p_submit)

    p_jobs = sub.add_parser("jobs", help="list jobs on a running server")
    p_jobs.add_argument("--tenant", default=None,
                        help="only this tenant's jobs")
    _add_service_url(p_jobs)

    p_result = sub.add_parser(
        "result", help="fetch one job's result from a running server")
    p_result.add_argument("job_id")
    p_result.add_argument("--wait", action="store_true",
                          help="block until the job is terminal")
    p_result.add_argument("--timeout", type=float, default=600.0,
                          help="--wait bound in seconds (default 600)")
    _add_service_url(p_result)

    sub.add_parser("list", help="list available figures")

    args = parser.parse_args(argv)
    if args.command == "figure":
        executor = _make_executor(args.jobs, args.no_cache, validate=args.validate)
        return _run_figure(args.number, args.scale, chart=args.chart,
                           collective_mode=args.collective_mode,
                           executor=executor)
    if args.command == "figures":
        executor = _make_executor(args.jobs, args.no_cache, validate=args.validate)
        status = 0
        for number in sorted(FIGURES, key=lambda s: int(s)):
            status |= _run_figure(number, args.scale, executor=executor)
            print()
        return status
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "calibrate":
        from repro.analysis import calibrate

        print(calibrate().summary())
        return 0
    if args.command == "backends":
        from repro.simmpi.backends import resolve_backend

        for name, (syntax, summary) in SPELLINGS.items():
            print(f"{syntax}\n    {summary}")
            canonical = resolve_backend(name).describe()
            if canonical != name:
                print(f"    bare '{name}' is {canonical}")
        return 0
    if args.command == "protocols":
        from repro.mpiio.protocols import (available_protocols,
                                           resolve_protocol)

        for name in available_protocols():
            proto = resolve_protocol(name)
            doc = (type(proto).__doc__ or "").strip().splitlines()[0]
            print(f"{name:>12}: {doc}")
        return 0
    if args.command == "zoo":
        from repro.analysis import protocol_zoo
        from repro.errors import ConfigError

        executor = _make_executor(args.jobs, args.no_cache,
                                  validate=args.validate)
        try:
            board = protocol_zoo(nprocs=args.nprocs, scale=args.scale,
                                 max_evals=args.max_evals,
                                 executor=executor)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(board.summary())
        return 0
    if args.command == "cache":
        from repro.harness.parallel import RunCache

        cache = RunCache()
        if args.clear:
            print(f"removed {cache.clear()} entries from {cache.root}")
        else:
            print(f"run cache: {cache.root}")
            print(f"entries:   {len(cache)}")
        return 0
    if args.command == "validate":
        return _run_validate(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "jobs":
        return _run_jobs(args)
    if args.command == "result":
        return _run_result(args)
    if args.command == "list":
        for number in sorted(FIGURES, key=lambda s: int(s)):
            doc = (FIGURES[number].__doc__ or "").strip().splitlines()[0]
            print(f"figure {number:>2}: {doc}")
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
