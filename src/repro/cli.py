"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``pollute``
    Pollute a CSV stream with a JSON pollution config::

        python -m repro pollute --config scenario.json --schema schema.json \\
            --input clean.csv --output dirty.csv --log log.csv --seed 42

``check``
    Statically analyze a pollution plan against a schema — no records flow::

        python -m repro check --config scenario.json --schema schema.json \\
            --format json --parallel 4 --seed 42

    Exit code is 1 when any diagnostic at or above ``--fail-on`` (default
    ``error``) is found; ``--list-rules`` prints the ``ICE...`` catalogue.

``validate``
    Validate a CSV stream against a JSON expectation-suite spec::

        python -m repro validate --suite suite.json --schema schema.json \\
            --input dirty.csv

``generate``
    Write one of the built-in synthetic datasets to CSV::

        python -m repro generate wearable --output wearable.csv
        python -m repro generate airquality --station Gucheng --hours 8760 \\
            --output gucheng.csv

``serve``
    Run the pollution-as-a-service HTTP/WebSocket server::

        python -m repro serve --port 8742 --jobs 2

    Jobs are submitted as JSON to ``POST /jobs``, validated by ``repro
    check`` at admission, and streamed back over ``/jobs/{id}/stream``;
    see the README "Serving" section for the protocol.

Every command exits 130 on SIGINT/SIGTERM after a clean shutdown —
parallel runs terminate their worker processes, and ``pollute`` flushes
any partial run ledger and metrics before exiting.

Schema files are JSON: ``{"attributes": [{"name": ..., "dtype":
"float|int|string|bool|timestamp|category", "nullable": true}],
"timestamp_attribute": "..."}``. Suite files: ``{"name": ...,
"expectations": [{"type": "not_be_null", "column": ...}, ...]}`` with the
types registered in :data:`EXPECTATION_REGISTRY`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.datasets.io import load_records, save_records
from repro.errors import ConfigError, IcewaflError
from repro.obs import FORMATS, MetricsRegistry, RunLedger, Tracer, write_metrics
from repro.quality import (
    ExpectColumnMeanToBeBetween,
    ExpectColumnMedianToBeBetween,
    ExpectColumnPairValuesAToBeGreaterThanB,
    ExpectColumnProportionOfUniqueValuesToBeBetween,
    ExpectColumnStdevToBeBetween,
    ExpectColumnSumToBeBetween,
    ExpectColumnValueLengthsToBeBetween,
    ExpectColumnValuesToBeBetween,
    ExpectColumnValuesToBeIncreasing,
    ExpectColumnValuesToBeInSet,
    ExpectColumnValuesToBeUnique,
    ExpectColumnValuesToMatchRegex,
    ExpectColumnValuesToNotBeNull,
    ExpectationSuite,
    ValidationDataset,
)
from repro.streaming.schema import Attribute, DataType, Schema

EXPECTATION_REGISTRY: dict[str, Callable[..., Any]] = {
    "not_be_null": lambda column, **kw: ExpectColumnValuesToNotBeNull(column, **kw),
    "match_regex": lambda column, regex, **kw: ExpectColumnValuesToMatchRegex(column, regex, **kw),
    "be_increasing": lambda column, **kw: ExpectColumnValuesToBeIncreasing(column, **kw),
    "pair_a_greater_than_b": lambda column_a, column_b, **kw: ExpectColumnPairValuesAToBeGreaterThanB(
        column_a, column_b, **kw
    ),
    "be_between": lambda column, **kw: ExpectColumnValuesToBeBetween(column, **kw),
    "be_in_set": lambda column, value_set, **kw: ExpectColumnValuesToBeInSet(
        column, value_set, **kw
    ),
    "be_unique": lambda column, **kw: ExpectColumnValuesToBeUnique(column, **kw),
    "mean_between": lambda column, **kw: ExpectColumnMeanToBeBetween(column, **kw),
    "stdev_between": lambda column, **kw: ExpectColumnStdevToBeBetween(column, **kw),
    "median_between": lambda column, **kw: ExpectColumnMedianToBeBetween(column, **kw),
    "sum_between": lambda column, **kw: ExpectColumnSumToBeBetween(column, **kw),
    "unique_proportion_between": lambda column, **kw: ExpectColumnProportionOfUniqueValuesToBeBetween(
        column, **kw
    ),
    "value_lengths_between": lambda column, **kw: ExpectColumnValueLengthsToBeBetween(
        column, **kw
    ),
}


def schema_from_config(spec: Mapping[str, Any]) -> Schema:
    """Build a :class:`Schema` from its JSON form."""
    attrs_spec = spec.get("attributes")
    if not attrs_spec:
        raise ConfigError("schema spec needs a non-empty 'attributes' list")
    attributes = []
    for a in attrs_spec:
        try:
            dtype = DataType(a.get("dtype", "float"))
        except ValueError as exc:
            raise ConfigError(
                f"unknown dtype {a.get('dtype')!r} for attribute {a.get('name')!r}"
            ) from exc
        attributes.append(
            Attribute(
                a["name"],
                dtype,
                nullable=a.get("nullable", True),
                domain=tuple(a["domain"]) if "domain" in a else None,
            )
        )
    return Schema(attributes, timestamp_attribute=spec.get("timestamp_attribute"))


def suite_from_config(spec: Mapping[str, Any]) -> ExpectationSuite:
    """Build an :class:`ExpectationSuite` from its JSON form."""
    expectations_spec = spec.get("expectations")
    if not expectations_spec:
        raise ConfigError("suite spec needs a non-empty 'expectations' list")
    suite = ExpectationSuite(spec.get("name", "suite"))
    for e in expectations_spec:
        kind = e.get("type")
        if kind not in EXPECTATION_REGISTRY:
            raise ConfigError(
                f"unknown expectation type {kind!r}; known: {sorted(EXPECTATION_REGISTRY)}"
            )
        kwargs = {k: v for k, v in e.items() if k != "type"}
        try:
            suite.add(EXPECTATION_REGISTRY[kind](**kwargs))
        except TypeError as exc:
            raise ConfigError(f"bad arguments for expectation {kind!r}: {exc}") from exc
    return suite


def _load_json(path: str) -> Any:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _failure_policy_from_args(args: argparse.Namespace):
    from repro.streaming.supervision import (
        DEAD_LETTER,
        FAIL_FAST,
        SKIP,
        FailurePolicy,
    )

    if args.on_error == "fail":
        return FAIL_FAST
    if args.on_error == "skip":
        return SKIP
    if args.on_error == "dead-letter":
        return DEAD_LETTER
    try:
        return FailurePolicy.retry(getattr(args, "retries", 3))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _compiled_plan(spec: Mapping[str, Any], schema: Schema, args: argparse.Namespace):
    """Compile the execution plan a run with these CLI options would get.

    Shared by ``repro plan`` (the whole point) and ``repro check`` (the
    ``--explain`` / JSON plan block). Compilation is pure — no records flow.
    """
    from repro.plan import PlanRequest, compile_plan

    pipeline = pipeline_from_config(spec)
    policy = _failure_policy_from_args(args) if args.on_error else None
    request = PlanRequest(
        pipelines=pipeline,
        schema=schema,
        seed=args.seed,
        failure_policy=policy,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        parallelism=args.parallel,
        key_by=args.key_by,
        batch_size=args.batch_size,
    )
    return compile_plan(request)


def cmd_plan(args: argparse.Namespace) -> int:
    """``repro plan``: print the compiled execution plan without running it."""
    schema = schema_from_config(_load_json(args.schema))
    blocks = []
    payloads = []
    for config_path in args.config:
        plan = _compiled_plan(_load_json(config_path), schema, args)
        if args.format == "json":
            payloads.append({"config": str(config_path), **plan.to_dict()})
        else:
            blocks.append(f"{config_path}:\n" + "\n".join(
                f"  {line}" for line in plan.render_text().splitlines()
            ))
    rendered = (
        json.dumps(payloads if len(payloads) != 1 else payloads[0], indent=2)
        if args.format == "json"
        else "\n".join(blocks)
    )
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"wrote {len(args.config)} plan(s) to {args.output}")
    else:
        print(rendered)
    return 0


def _check_parallel_args(args: argparse.Namespace) -> None:
    """Reject option combinations the runtimes cannot honour, with the
    explanation up front instead of a deep traceback."""
    if args.parallel is not None and args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    if args.parallel is not None and args.trace_out is not None:
        raise ConfigError(
            "--trace-out is not supported with --parallel: span context does "
            "not cross the worker process boundary; drop one of the two"
        )
    if args.resume_from is not None:
        resume = Path(args.resume_from)
        if args.parallel is not None and resume.is_file():
            raise ConfigError(
                f"--resume-from {args.resume_from} is a sequential checkpoint "
                "file but --parallel was given; resume it without --parallel, "
                "or point --resume-from at a parallel checkpoint directory"
            )
        if args.parallel is None and resume.is_dir():
            raise ConfigError(
                f"--resume-from {args.resume_from} is a parallel checkpoint "
                "directory; pass --parallel N (matching the original run) to "
                "resume it"
            )
    if args.parallel is None:
        if args.max_shard_restarts is not None:
            raise ConfigError(
                "--max-shard-restarts only applies to --parallel runs"
            )
        if args.heartbeat_timeout is not None:
            raise ConfigError(
                "--heartbeat-timeout only applies to --parallel runs"
            )
    elif args.max_shard_restarts is not None and args.max_shard_restarts < 0:
        raise ConfigError(
            f"--max-shard-restarts must be >= 0, got {args.max_shard_restarts}"
        )


def cmd_pollute(args: argparse.Namespace) -> int:
    _check_parallel_args(args)
    schema = schema_from_config(_load_json(args.schema))
    pipeline = pipeline_from_config(_load_json(args.config))
    records = load_records(schema, args.input)
    metrics = MetricsRegistry() if args.metrics_out else None
    tracer = Tracer() if args.trace_out else None
    ledger = RunLedger() if args.ledger_out else None
    kwargs: dict[str, Any] = {
        "metrics": metrics,
        "tracer": tracer,
        "ledger": ledger,
        "profile": bool(args.profile),
        "progress": bool(args.progress),
    }
    if args.on_error is not None or args.checkpoint_dir is not None:
        kwargs.update(
            failure_policy=_failure_policy_from_args(args) if args.on_error else None,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
        )
    if args.parallel is not None:
        kwargs["parallelism"] = args.parallel
        kwargs["checkpoint_interval"] = args.checkpoint_interval
        if args.max_shard_restarts is not None:
            kwargs["max_shard_restarts"] = args.max_shard_restarts
        if args.heartbeat_timeout is not None:
            # 0 is the CLI spelling of "no hang detection".
            kwargs["heartbeat_timeout"] = (
                args.heartbeat_timeout if args.heartbeat_timeout > 0 else None
            )
    if args.key_by is not None:
        kwargs["key_by"] = args.key_by
    if args.resume_from is not None:
        kwargs["resume_from"] = args.resume_from
    if args.batch_size is not None:
        kwargs["batch_size"] = args.batch_size
    kwargs["check"] = args.check
    try:
        result = pollute(records, pipeline, schema=schema, seed=args.seed, **kwargs)
    except KeyboardInterrupt:
        # The engines' cleanup already ran (worker processes terminated by
        # the coordinator's finally); persist whatever observability state
        # the run accumulated so an interrupted run still leaves evidence.
        _flush_interrupted(args, ledger, metrics, tracer)
        raise
    save_records(result.polluted, schema, args.output)
    if args.log:
        result.log.to_csv(args.log)
    print(
        f"polluted {result.n_clean} -> {result.n_polluted} tuples, "
        f"{len(result.log)} errors injected "
        f"({args.output}{', log: ' + args.log if args.log else ''})"
    )
    report = result.report
    if report is not None and report.supervised:
        print(report.summary())
        if report.dead_letters:
            print(report.dead_letters.summary())
    if args.profile and result.profile is not None:
        print(result.profile.render_table())
    if ledger is not None:
        ledger.to_jsonl(args.ledger_out)
        print(f"run ledger: {len(ledger)} events ({args.ledger_out})")
    if metrics is not None:
        write_metrics(metrics, args.metrics_out, args.metrics_format, tracer=tracer)
    if tracer is not None:
        tracer.to_jsonl(args.trace_out)
    return 0


def _flush_interrupted(
    args: argparse.Namespace,
    ledger: RunLedger | None,
    metrics: MetricsRegistry | None,
    tracer: Tracer | None,
) -> None:
    """Best-effort flush of partial observability output after an interrupt."""
    if ledger is not None and args.ledger_out:
        try:
            ledger.to_jsonl(args.ledger_out)
            print(
                f"interrupted: flushed {len(ledger)} ledger events to "
                f"{args.ledger_out}",
                file=sys.stderr,
            )
        except OSError:
            pass
    if metrics is not None and args.metrics_out and str(args.metrics_out) != "-":
        try:
            write_metrics(metrics, args.metrics_out, args.metrics_format, tracer=tracer)
            print(f"interrupted: flushed metrics to {args.metrics_out}", file=sys.stderr)
        except OSError:
            pass


def _parse_time_bound(text: str) -> int:
    """An epoch-seconds integer or a timestamp string like ``2016-03-01``."""
    try:
        return int(text)
    except ValueError:
        from repro.streaming.time import parse_timestamp

        return parse_timestamp(text)


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (
        RULES,
        CheckOptions,
        Severity,
        analyze_config,
        factbase_for,
        plan_summary,
        render_explain,
    )
    from repro.core.config import pipeline_from_config

    if args.list_rules:
        for rule in RULES.values():
            print(
                f"{rule.rule_id}  {rule.severity.label:<7} "
                f"{rule.slug:<44} {rule.summary}"
            )
            print(f"{'':21}fix: {rule.fix}")
        return 0
    if not args.config or not args.schema:
        raise ConfigError("repro check needs --config and --schema (or --list-rules)")
    schema = schema_from_config(_load_json(args.schema))
    time_range = None
    if args.time_range:
        start, end = (_parse_time_bound(t) for t in args.time_range)
        time_range = (start, end)
    policy_actions = {
        "fail": "fail_fast",
        "skip": "skip",
        "retry": "retry",
        "dead-letter": "dead_letter",
    }
    options = CheckOptions(
        seed=args.seed,
        parallelism=args.parallel,
        key_by=args.key_by,
        time_range=time_range,
        failure_policy=(
            policy_actions[args.on_error] if args.on_error else None
        ),
        batch_size=args.batch_size,
    )
    fail_on = Severity.from_label(args.fail_on)
    entries = []
    exit_code = 0
    for config_path in args.config:
        spec = _load_json(config_path)
        report = analyze_config(spec, schema, options)
        base = None
        try:
            base = factbase_for(pipeline_from_config(spec))
        except ConfigError:
            pass  # ICE001 already reported; there are no facts to dump
        plan = None
        try:
            plan = _compiled_plan(spec, schema, args)
        except IcewaflError:
            pass  # invalid combination; diagnostics above already explain it
        entries.append((config_path, report, base, plan))
        exit_code = max(exit_code, report.exit_code(fail_on))
    if args.format == "json":
        reports = []
        for path, report, base, plan in entries:
            entry = {"config": str(path), **report.to_dict()}
            if base is not None:
                entry["facts"] = plan_summary(base)
            if plan is not None:
                entry["plan"] = plan.to_dict()
            reports.append(entry)
        payload = {"fail_on": fail_on.label, "reports": reports}
        rendered = json.dumps(payload, indent=2)
    else:
        blocks = []
        for path, report, base, plan in entries:
            body = "\n".join(f"  {line}" for line in report.render_text().splitlines())
            block = f"{path}:\n{body}"
            if args.explain and base is not None:
                facts = "\n".join(
                    f"  {line}" for line in render_explain(base).splitlines()
                )
                block = f"{block}\n{facts}"
            if args.explain and plan is not None:
                plan_text = "\n".join(
                    f"  {line}" for line in plan.render_text().splitlines()
                )
                block = f"{block}\n{plan_text}"
            blocks.append(block)
        rendered = "\n".join(blocks)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        total = sum(len(report) for _, report, _, _ in entries)
        print(f"wrote {total} diagnostic(s) for {len(entries)} config(s) to {args.output}")
    else:
        print(rendered)
    return exit_code


def _validation_metrics(report) -> MetricsRegistry:
    """Fold a :class:`ValidationReport` into counters for export."""
    registry = MetricsRegistry()
    for res in report.results:
        outcome = "pass" if res.success else "fail"
        registry.counter("validation_expectations_total", outcome=outcome).value += 1
        elements = registry.counter(
            "validation_elements_total",
            expectation=res.expectation,
            column=res.column or "",
        )
        elements.value += res.element_count
        unexpected = registry.counter(
            "validation_unexpected_total",
            expectation=res.expectation,
            column=res.column or "",
        )
        unexpected.value += res.unexpected_count
    return registry


def cmd_validate(args: argparse.Namespace) -> int:
    schema = schema_from_config(_load_json(args.schema))
    suite = suite_from_config(_load_json(args.suite))
    records = load_records(schema, args.input)
    tracer = Tracer() if args.trace_out else None
    if tracer is not None:
        with tracer.span("validate", kind="validation", suite=suite.name):
            report = suite.validate(ValidationDataset(records, schema))
        for res in report.results:
            tracer.event(
                "validate." + res.expectation,
                kind="validation",
                column=res.column or "",
                success=res.success,
                unexpected=res.unexpected_count,
            )
        tracer.to_jsonl(args.trace_out)
    else:
        report = suite.validate(ValidationDataset(records, schema))
    print(report.summary())
    if args.metrics_out:
        write_metrics(_validation_metrics(report), args.metrics_out, args.metrics_format)
    return 0 if report.success else 1


CLEANER_REGISTRY: dict[str, Callable[..., Any]] = {
    "hampel": lambda attributes, window=5, n_sigmas=3.0, **_: __import__(
        "repro.cleaning", fromlist=["HampelFilter"]
    ).HampelFilter(attributes, window=int(window), n_sigmas=float(n_sigmas)),
    "speed": lambda attributes, max_speed, **_: __import__(
        "repro.cleaning", fromlist=["SpeedConstraintCleaner"]
    ).SpeedConstraintCleaner(attributes, max_speed=float(max_speed)),
    "interpolate": lambda attributes, max_gap=None, **_: __import__(
        "repro.cleaning", fromlist=["InterpolationImputer"]
    ).InterpolationImputer(
        attributes, max_gap_seconds=int(max_gap) if max_gap else None
    ),
}


def cmd_clean(args: argparse.Namespace) -> int:
    schema = schema_from_config(_load_json(args.schema))
    options = dict(kv.split("=", 1) for kv in (args.option or []))
    try:
        cleaner = CLEANER_REGISTRY[args.cleaner](args.attribute, **options)
    except TypeError as exc:
        raise ConfigError(f"bad options for cleaner {args.cleaner!r}: {exc}") from exc
    records = load_records(schema, args.input)
    result = cleaner.clean(records, schema)
    save_records(result.cleaned, schema, args.output)
    print(
        f"cleaned {len(records)} tuples with {args.cleaner}: "
        f"{len(result.repairs)} values repaired ({args.output})"
    )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "wearable":
        from repro.datasets.wearable import WEARABLE_SCHEMA, generate_wearable

        records = generate_wearable()
        save_records(records, WEARABLE_SCHEMA, args.output)
    else:
        from repro.datasets.airquality import (
            AIR_QUALITY_SCHEMA,
            AirQualityConfig,
            generate_air_quality,
        )

        cfg = AirQualityConfig(stations=(args.station,), n_hours=args.hours)
        records = generate_air_quality(cfg)[args.station]
        save_records(records, AIR_QUALITY_SCHEMA, args.output)
    print(f"wrote {len(records)} tuples to {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.admission import AdmissionLimits
    from repro.serve.server import ServeConfig, run_server

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrent_jobs=args.jobs,
        limits=AdmissionLimits(
            max_queued_jobs=args.max_queued,
            max_jobs_per_tenant=args.tenant_quota,
            fail_on=args.fail_on,
        ),
        result_ttl=args.result_ttl,
        send_timeout=args.send_timeout,
    )

    def ready(host: str, port: int) -> None:
        print(f"repro serve listening on http://{host}:{port}", flush=True)

    asyncio.run(run_server(config, ready=ready))
    return 0


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write run metrics to PATH ('-' = stdout); enables metrics collection",
    )
    p.add_argument(
        "--metrics-format", choices=list(FORMATS), default="summary",
        help="metrics output format (default summary)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write span records as JSONL to PATH; enables tracing",
    )


def _add_live_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--progress", action="store_true",
        help="live progress on stderr: an in-place top-style per-shard table "
        "on a TTY, one plain line per refresh otherwise",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="attribute run time to phases, nodes, and batch kernels "
        "(including FallbackKernel polluters); prints a top-offenders table",
    )
    p.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="write the run's structured lifecycle event log (run/shard/"
        "checkpoint events, merged across workers) as JSONL to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Icewafl reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pollute", help="pollute a CSV stream with a JSON config")
    p.add_argument("--config", required=True, help="pollution pipeline JSON")
    p.add_argument("--schema", required=True, help="stream schema JSON")
    p.add_argument("--input", required=True, help="clean input CSV")
    p.add_argument("--output", required=True, help="polluted output CSV")
    p.add_argument("--log", help="optional pollution-log CSV (ground truth)")
    p.add_argument("--seed", type=int, default=None, help="run seed (reproducibility)")
    p.add_argument(
        "--on-error",
        choices=["fail", "skip", "retry", "dead-letter"],
        default=None,
        help="supervise operators with this failure policy",
    )
    p.add_argument(
        "--retries", type=int, default=3,
        help="max attempts for --on-error retry (default 3)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for periodic state checkpoints",
    )
    p.add_argument(
        "--checkpoint-interval", type=int, default=100,
        help="source records between checkpoints (default 100)",
    )
    p.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="shard the run across N worker processes (deterministic merge; "
        "byte-identical to sequential output for --key-by plans)",
    )
    p.add_argument(
        "--key-by", default=None, metavar="ATTR",
        help="partition the stream by this attribute; each key gets a fresh "
        "instance of the configured pipeline",
    )
    p.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="micro-batching fast path: process records in slabs of N with "
        "fused batch kernels (byte-identical output; combines with --parallel)",
    )
    p.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="resume a checkpointed run: a .ckpt file for sequential runs, "
        "a parallel checkpoint directory for --parallel runs",
    )
    p.add_argument(
        "--max-shard-restarts", type=int, default=None, metavar="N",
        help="with --parallel: in-run respawn budget per shard for crashed "
        "or hung workers (default 2); after the budget, --on-error decides "
        "between failing and degrading the shard to a sequential drain",
    )
    p.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="with --parallel: declare a worker hung after this much silence "
        "and recover it (default 30; 0 disables hang detection)",
    )
    p.add_argument(
        "--check", choices=["error", "warn", "off"], default="warn",
        help="pre-flight static plan analysis before running (default warn)",
    )
    _add_observability_args(p)
    _add_live_args(p)
    p.set_defaults(fn=cmd_pollute)

    k = sub.add_parser(
        "check", help="statically analyze a pollution plan without running it"
    )
    k.add_argument(
        "--config", action="append", default=[], metavar="PATH",
        help="pollution pipeline JSON (repeatable)",
    )
    k.add_argument("--schema", default=None, help="stream schema JSON")
    k.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default text)",
    )
    k.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    k.add_argument("--seed", type=int, default=None, help="intended run seed")
    k.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="intended worker count (enables parallel-safety rules)",
    )
    k.add_argument(
        "--key-by", default=None, metavar="ATTR",
        help="intended partitioning attribute",
    )
    k.add_argument(
        "--time-range", nargs=2, default=None, metavar=("START", "END"),
        help="stream event-time bounds (epoch seconds or 'YYYY-MM-DD'); "
        "enables dead-window detection",
    )
    k.add_argument(
        "--on-error",
        choices=["fail", "skip", "retry", "dead-letter"],
        default=None,
        help="intended failure policy (enables supervision-composition rules)",
    )
    k.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="intended micro-batch slab size (enables the ICE7xx "
        "performance lints)",
    )
    k.add_argument(
        "--explain", action="store_true",
        help="append a per-leaf fact dump (kernel eligibility with reasons, "
        "effect sets, sort stability, predicted batch speedup) to the text "
        "report",
    )
    k.add_argument(
        "--fail-on", choices=["error", "warning", "info"], default="error",
        help="exit 1 when a diagnostic at or above this severity exists "
        "(default error)",
    )
    k.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    k.set_defaults(fn=cmd_check)

    pl = sub.add_parser(
        "plan",
        help="compile a run to its execution plan and print the IR "
        "(engine choice, stages, decision reasons) without running it",
    )
    pl.add_argument(
        "--config", action="append", required=True, metavar="PATH",
        help="pollution pipeline JSON (repeatable)",
    )
    pl.add_argument("--schema", required=True, help="stream schema JSON")
    pl.add_argument("--seed", type=int, default=None, help="intended run seed")
    pl.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="intended worker count (compiles to the parallel engine)",
    )
    pl.add_argument(
        "--key-by", default=None, metavar="ATTR",
        help="intended partitioning attribute",
    )
    pl.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="intended micro-batch slab size",
    )
    pl.add_argument(
        "--on-error",
        choices=["fail", "skip", "retry", "dead-letter"],
        default=None,
        help="intended failure policy",
    )
    pl.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per record for --on-error retry (default 3)",
    )
    pl.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="intended checkpoint directory",
    )
    pl.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="plan rendering (default text)",
    )
    pl.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the plan to PATH instead of stdout",
    )
    pl.set_defaults(fn=cmd_plan)

    v = sub.add_parser("validate", help="validate a CSV stream with a suite")
    v.add_argument("--suite", required=True, help="expectation suite JSON")
    v.add_argument("--schema", required=True, help="stream schema JSON")
    v.add_argument("--input", required=True, help="input CSV to validate")
    _add_observability_args(v)
    v.set_defaults(fn=cmd_validate)

    c = sub.add_parser("clean", help="repair a CSV stream with a cleaning algorithm")
    c.add_argument("--cleaner", required=True, choices=sorted(CLEANER_REGISTRY))
    c.add_argument("--schema", required=True, help="stream schema JSON")
    c.add_argument("--input", required=True, help="dirty input CSV")
    c.add_argument("--output", required=True, help="repaired output CSV")
    c.add_argument(
        "--attribute", action="append", required=True,
        help="attribute to clean (repeatable)",
    )
    c.add_argument(
        "--option", action="append", metavar="KEY=VALUE",
        help="cleaner option, e.g. window=7, max_speed=0.05 (repeatable)",
    )
    c.set_defaults(fn=cmd_clean)

    g = sub.add_parser("generate", help="write a built-in synthetic dataset")
    g.add_argument("dataset", choices=["wearable", "airquality"])
    g.add_argument("--output", required=True, help="output CSV path")
    g.add_argument("--station", default="Wanshouxigong", help="air-quality station")
    g.add_argument("--hours", type=int, default=24 * 365, help="air-quality stream hours")
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("serve", help="run the pollution-as-a-service server")
    s.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    s.add_argument(
        "--port", type=int, default=8742,
        help="bind port (default 8742; 0 picks a free port)",
    )
    s.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="concurrent job execution slots (default 2)",
    )
    s.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="global queued-job bound; submissions beyond it get 429 (default 64)",
    )
    s.add_argument(
        "--tenant-quota", type=int, default=8, metavar="N",
        help="max queued+running jobs per tenant (default 8)",
    )
    s.add_argument(
        "--result-ttl", type=float, default=600.0, metavar="SECONDS",
        help="how long finished jobs keep their results (default 600)",
    )
    s.add_argument(
        "--send-timeout", type=float, default=10.0, metavar="SECONDS",
        help="stream send deadline before a slow consumer is disconnected "
        "(default 10)",
    )
    s.add_argument(
        "--fail-on", choices=["error", "warning", "info"], default="error",
        help="admission severity threshold for the repro-check gate "
        "(default error)",
    )
    s.set_defaults(fn=cmd_serve)
    return parser


def _install_signal_handlers() -> None:
    """Route SIGTERM through the KeyboardInterrupt path.

    One shutdown story for both signals: the exception unwinds through the
    engines' ``finally`` blocks (worker processes terminated, shards
    drained), ``cmd_pollute`` flushes partial ledger/metrics, and
    :func:`main` turns it into exit code 130 with no traceback.
    """
    import signal

    def _terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (e.g. main() called from a test worker)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _install_signal_handlers()
    try:
        return args.fn(args)
    except (IcewaflError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: shut down cleanly", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
