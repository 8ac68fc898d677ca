"""Command-line interface for the Snatch reproduction.

Subcommands mirror the evaluation:

* ``speedup``   — the analytic model (Eqs. 1-6) at a chosen operating
  point (``--d-wa``, ``--t-a``, ``--interval``);
* ``breakdown`` — the Figure-1 time-cost breakdown;
* ``testbed``   — one end-to-end DES run (scheme, INSA, rate, ...);
* ``measure``   — the synthetic measurement campaign summary;
* ``bench``     — data-plane throughput: by default (or with
  ``--compare``) scalar vs the columnar kernels with numpy off and on,
  written to ``BENCH_fastpath.json``; or the whole-run ``--e2e``
  ingest benchmark that writes ``BENCH_e2e.json`` (add ``--profile
  PATH`` for a cProfile dump), the ``--chaos`` crash-recovery
  benchmark on the supervised shard runtime that writes
  ``BENCH_chaos.json``, the ``--scale`` memory-vs-population
  benchmark (exact vs sampled-quantile per-user tracking at 10k /
  100k / 1M users) that writes ``BENCH_scale.json``, or the
  ``--placement`` skew-aware shard-placement benchmark (static vs
  rebalanced load, elastic-run identity, scalar vs vectorized
  partition) that writes ``BENCH_placement.json``;
* ``table1``    — DStream methods vs INSA support;
* ``carriers``  — the Appendix-B.2 transport-carrier comparison;
* ``metrics``   — run a chaos workload and dump the observability
  layer's metrics (text table and/or JSON-lines).

Usage: ``python -m repro.cli testbed --scheme trans-1rtt --insa``
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.alt_carriers import carrier_comparison
from repro.core.insa import table1_rows
from repro.model.breakdown import (
    app_insa_breakdown,
    baseline_breakdown,
    trans_insa_breakdown,
)
from repro.model.params import interpolated_scenario, median_scenario
from repro.model.periodical import periodical_speedup
from repro.model.speedup import Protocol, speedup_table
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.pipeline import PIPELINE_BACKENDS

__all__ = ["main", "build_parser"]


def _print_rows(headers: Sequence[str], rows, out) -> None:
    rendered = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered))
        if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rendered:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")


def _cmd_speedup(args, out) -> int:
    if args.d_wa is not None:
        params = interpolated_scenario(args.d_wa, t_analytics=args.t_a)
    else:
        params = median_scenario(t_analytics=args.t_a)
    rows = speedup_table(params)
    if args.interval is not None:
        for row in rows:
            protocol = next(
                p for p in Protocol if p.value == row["protocol"]
            )
            row["speedup"] = round(
                periodical_speedup(
                    params, protocol, args.interval, insa=row["insa"]
                ),
                2,
            )
        out.write("periodical forwarding, interval %.0f ms\n" % args.interval)
    _print_rows(
        ["protocol", "INSA", "baseline ms", "snatch ms", "speedup"],
        [
            [r["protocol"], "yes" if r["insa"] else "no",
             r["baseline_ms"], r["snatch_ms"], "%.2fx" % r["speedup"]]
            for r in rows
        ],
        out,
    )
    return 0


def _cmd_breakdown(args, out) -> int:
    for breakdown in (
        baseline_breakdown(),
        app_insa_breakdown(),
        trans_insa_breakdown(),
    ):
        out.write("\n[%s] total %.1f ms\n" % (breakdown.name, breakdown.total_ms))
        _print_rows(["step", "ms"], breakdown.rows(), out)
    return 0


_SCHEMES = {scheme.value: scheme for scheme in Scheme}


def _cmd_testbed(args, out) -> int:
    config = TestbedConfig(
        scheme=_SCHEMES[args.scheme],
        insa=args.insa,
        delay_percentile=args.percentile,
        requests_per_second=args.rps,
        duration_ms=args.duration_ms,
    )
    result = TestbedExperiment(config).run()
    out.write("scheme=%s insa=%s percentile=%.0f rate=%.0f req/s\n" % (
        args.scheme, args.insa, args.percentile, args.rps))
    out.write("requests completed: %d/%d\n" % (
        result.completed, len(result.records)))
    out.write("latency ms: median %.1f  mean %.1f  p95 %.1f\n" % (
        result.median_latency_ms,
        result.mean_latency_ms,
        result.percentile_latency_ms(95),
    ))
    if config.scheme is not Scheme.BASELINE:
        out.write("aggregation: %d packets, %.1f kbps, counts %s\n" % (
            result.aggregation_packets,
            result.bandwidth_kbps,
            "exact" if result.counts_match_reference() else "approximate",
        ))
    return 0


def _cmd_measure(args, out) -> int:
    from repro.measurement.study import MeasurementStudy

    result = MeasurementStudy(seed=args.seed).run(max_sites=args.sites)
    out.write("measured %d sites (%d discarded as non-residential)\n" % (
        len(result.measurements), result.discarded_sites))
    _print_rows(
        ["metric", "median ms"],
        [[k, "%.1f" % v] for k, v in sorted(result.summary().items())],
        out,
    )
    return 0


def _cmd_metrics(args, out) -> int:
    from repro.chaos import ChaosHarness, standard_outage
    from repro.obs import dump_jsonl

    harness = ChaosHarness(seed=args.seed, duration_ms=args.duration_ms)
    if args.scenario == "standard-outage":
        harness.apply(standard_outage())
    result = harness.run()
    out.write(
        "workload: chaos scenario=%s seed=%d duration=%.0f ms\n"
        % (args.scenario, args.seed, args.duration_ms)
    )
    out.write(
        "events=%d fallback=%d reports=%d lost=%d repairs=%d "
        "consistent=%s\n\n"
        % (
            result.events_total,
            result.fallback_events,
            result.reports_sent,
            result.reports_lost,
            len(result.repairs),
            "yes" if result.consistent else "no",
        )
    )
    out.write(harness.metrics_table() + "\n")
    if args.spans:
        out.write("\n" + harness.spans_table() + "\n")
    if args.json:
        written = dump_jsonl(args.json, harness.registry, harness.tracer)
        out.write("\nwrote %d records to %s\n" % (written, args.json))
    return 0


def _cmd_bench(args, out) -> int:
    import json

    from repro.core.aggregation import ForwardingMode
    from repro.testbed.fastpath import PATHS, run_backend_bench

    mode = (
        ForwardingMode.PERIODICAL if args.mode == "periodical"
        else ForwardingMode.PER_PACKET
    )
    if args.e2e:
        from repro.testbed.e2e_bench import (
            profile_e2e,
            run_e2e_bench,
        )

        if args.profile:
            summary = profile_e2e(
                args.profile,
                backend=args.backend,
                requests_per_second=args.rps,
                duration_ms=args.duration_ms,
                num_users=args.users,
                mode=mode,
                batch_size=args.batch_size,
                seed=args.seed,
            )
            out.write(
                "profiled e2e backend=%s: %d events in %.3f s "
                "(%.0f events/s)\nwrote %s\n"
                % (summary["backend"], summary["events"],
                   summary["seconds"], summary["events_per_second"],
                   summary["profile"])
            )
            return 0
        result = run_e2e_bench(
            requests_per_second=args.rps,
            duration_ms=args.duration_ms,
            num_users=args.users,
            mode=mode,
            batch_size=args.batch_size,
            seed=args.seed,
            repeats=args.repeats,
        )
        out.write(
            "e2e ingest: %d events, %d users, mode=%s, batch=%d, "
            "best of %d\n"
            % (result["events"], result["unique_users"], args.mode,
               result["batch_size"], result["repeats"])
        )
        _print_rows(
            ["backend", "events/s", "vs scalar"],
            [
                [b, "%.0f" % result[b]["events_per_second"],
                 "%.2fx" % result["speedup_vs_scalar"][b]]
                for b in result.get("backends", PIPELINE_BACKENDS)
            ],
            out,
        )
        out.write(
            "reports match: %s   verified vs ground truth: %s\n"
            % ("yes" if result["reports_match"] else "NO",
               "yes" if result["verified"] else "NO")
        )
        experiment = result["cache_experiment"]
        out.write(
            "cache admission: lru %.1f%% vs tinylfu %.1f%% hits "
            "(delta %+.2fpp) -> %s kept; %s\n"
            % (experiment["lru"]["hit_rate"] * 100.0,
               experiment["tinylfu"]["hit_rate"] * 100.0,
               experiment["hit_rate_delta"] * 100.0,
               experiment["winner"], experiment["diagnosis"])
        )
        json_path = args.json or "BENCH_e2e.json"
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % json_path)
        if not (result["reports_match"] and result["verified"]):
            out.write("FAIL: backends disagree or ground truth mismatch\n")
            return 1
        return 0
    if args.scale:
        # Memory-vs-population: per-user engagement state at 10k /
        # 100k / 1M users, exact dict vs bounded sampled-quantile
        # sketch, one fresh subprocess per cell so peak RSS is
        # per-cell.  Fails if a cell's demographics disagree with
        # ground truth or the sketch path's RSS grows superlinearly.
        from repro.testbed.scale_bench import run_scale_bench

        user_counts = tuple(
            int(u) for u in args.scale_users.split(",") if u
        )
        result = run_scale_bench(
            user_counts=user_counts,
            events_per_user=args.scale_events,
            exact_cap=args.scale_exact_cap,
            epsilon=args.epsilon,
            backend=args.backend,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        out.write(
            "scale: users x (exact, sketch), %.1f events/user, "
            "epsilon=%.3f, backend=%s, exact cap %d\n"
            % (result["events_per_user"], result["epsilon"],
               result["backend"], result["exact_cap"])
        )
        _print_rows(
            ["users", "mode", "events", "pkts/s", "peak RSS MB",
             "distinct", "p50/p90/p99", "ok"],
            [
                [c["users"], c["mode"], c["events"],
                 "%.0f" % c["packets_per_second"],
                 "%.1f" % (c["peak_rss_kb"] / 1024.0)
                 if c["peak_rss_kb"] else "-",
                 c["distinct_users"],
                 "/".join(str(c["quantiles"][q])
                          for q in ("p50", "p90", "p99"))
                 if c["quantiles"] else "-",
                 "yes" if c["verified"] else "NO"]
                for c in result["cells"]
            ],
            out,
        )
        for entry in result["sketch_rss_growth"]:
            out.write(
                "sketch RSS %d -> %d users: %.2fx (bound %.2fx, %s)\n"
                % (entry["from_users"], entry["to_users"],
                   entry["rss_ratio"], entry["sublinear_bound"],
                   "sublinear" if entry["sublinear"] else "SUPERLINEAR")
            )
        json_path = args.json or "BENCH_scale.json"
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % json_path)
        if not result["all_verified"]:
            out.write("FAIL: a cell's report disagrees with ground truth\n")
            return 1
        if not result["sketch_rss_sublinear"]:
            out.write("FAIL: sketch-mode RSS grew superlinearly\n")
            return 1
        return 0
    if args.placement:
        # Skew-aware placement benchmark: static vs rebalanced shard
        # load at 100k+ users (uniform and zipfian), supervised-run
        # identity under rebalancing and a scripted crash, and the
        # scalar vs vectorized partition path.
        from repro.testbed.placement_bench import run_placement_bench

        result = run_placement_bench(seed=args.seed)
        out.write(
            "placement: %d users, %d packets, %d shards x %d buckets, "
            "%d epochs, zipf s=%.2f\n"
            % (result["users"], result["packets"], result["shards"],
               result["buckets"], result["epochs"], result["zipf_s"])
        )
        rows = []
        for distribution in ("uniform", "zipfian"):
            cell = result["skew"][distribution]
            rows.append([
                distribution,
                "%.3f" % cell["static_imbalance"],
                "%.3f" % cell["rebalanced_imbalance"],
                cell["rebalances"], cell["moved_buckets"],
                "%.1f us" % (cell["epoch_barrier_s"]["mean"] * 1e6),
            ])
        _print_rows(
            ["distribution", "static max/mean", "rebalanced",
             "rebalances", "moved buckets", "barrier"],
            rows, out,
        )
        verify = result["verify"]
        out.write(
            "verify: static %s -> elastic %s shard packets, "
            "%d rebalances, crash replayed %d packets\n"
            % (verify["static_shard_packets"],
               verify["elastic_shard_packets"],
               verify["rebalances"], verify["recovered_packets"])
        )
        partition = result["partition"]
        out.write(
            "partition: scalar %.0f pkts/s, columnar %.0f pkts/s "
            "(%.2fx, vectorized=%s)\n"
            % (partition["scalar_packets_per_s"],
               partition["columnar_packets_per_s"],
               partition["speedup"], partition["vectorized"])
        )
        out.write(
            "reports match: %s   zipfian balanced (<= 1.15): %s\n"
            % ("yes" if result["all_match"] else "NO",
               "yes" if result["zipfian_balanced"] else "NO")
        )
        json_path = args.json or "BENCH_placement.json"
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % json_path)
        if not result["all_match"]:
            out.write("FAIL: rebalanced/crashed runs diverged\n")
            return 1
        if not result["zipfian_balanced"]:
            out.write("FAIL: zipfian imbalance above the 1.15 bar\n")
            return 1
        return 0
    if args.chaos:
        # Crash-recovery benchmark on the supervised shard runtime:
        # every (seed, backend) cell must survive a scripted shard
        # crash plus a mid-run degradation with byte-identical output,
        # replaying no more than one epoch from the last checkpoint.
        from repro.testbed.chaos_bench import run_chaos_bench

        result = run_chaos_bench(
            packets=args.packets,
            num_users=args.users,
            shards=max(2, args.shards),
            chunk_size=min(args.batch_size, 64),
            seeds=(args.seed, args.seed + 12, args.seed + 24),
        )
        out.write(
            "chaos recovery: %d packets, %d shards, epoch=%d packets "
            "(checkpoint every %d chunks of %d)\n"
            % (result["packets"], result["shards"], result["epoch_size"],
               result["checkpoint_batches"], result["chunk_size"])
        )
        rows = []
        for seed, per_backend in sorted(result["seeds"].items()):
            for backend, cell in per_backend.items():
                rows.append([
                    seed, backend,
                    cell["crashes"], cell["retries"],
                    cell["recovered_packets"],
                    "%.1f%%" % cell["recovered_pct"],
                    cell["degraded_to"] or "-",
                    "yes" if cell["identical"] else "NO",
                    "yes" if cell["tail_only"] else "NO",
                ])
        _print_rows(
            ["seed", "backend", "crashes", "retries", "replayed",
             "replayed %", "degraded to", "identical", "tail only"],
            rows, out,
        )
        json_path = args.json or "BENCH_chaos.json"
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("\nwrote %s\n" % json_path)
        if not result["all_identical"]:
            out.write("FAIL: recovered run diverged from fault-free run\n")
            return 1
        if not result["all_tail_only"]:
            out.write("FAIL: recovery replayed more than the epoch tail\n")
            return 1
        return 0
    # Default mode (also spelled --compare): scalar vs the columnar
    # kernels with numpy off and on.  Fails if the paths' reports
    # differ, or if vectorized columnar lark is slower than the
    # numpy-off kernel on the periodical workload.
    result = run_backend_bench(
        packets=args.packets,
        num_users=args.users,
        mode=mode,
        batch_size=args.batch_size,
        shards=args.shards,
        seed=args.seed,
        repeats=args.repeats,
    )
    out.write(
        "fast path: %d packets, %d users, mode=%s, batch=%d, shards=%d, "
        "numpy=%s, best of %d\n"
        % (result["packets"], result["unique_users"], args.mode,
           result["batch_size"], args.shards,
           "on" if result["numpy"] else "off", result["repeats"])
    )
    rows = []
    for section in ("lark", "agg"):
        data = result[section]
        rows.append(
            [section]
            + ["%.0f" % data[path]["packets_per_second"] for path in PATHS]
            + ["%.2fx" % data["speedup_vs_scalar"]["columnar"],
               "%.2fx" % data["columnar_vs_no_numpy"],
               "yes" if data["reports_match"] else "NO"]
        )
    _print_rows(
        ["path", "scalar pkts/s", "no-numpy pkts/s", "columnar pkts/s",
         "col/scalar", "col/no-numpy", "match"],
        rows, out,
    )
    json_path = args.json or "BENCH_fastpath.json"
    with open(json_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    out.write("\nwrote %s\n" % json_path)
    if not (result["lark"]["reports_match"]
            and result["agg"]["reports_match"]):
        out.write("FAIL: fast-path reports disagree\n")
        return 1
    if (args.mode == "periodical" and result["numpy"]
            and result["lark"]["columnar_vs_no_numpy"] < 1.0):
        out.write(
            "FAIL: columnar lark path slower than its numpy-off kernel "
            "(%.2fx)\n" % result["lark"]["columnar_vs_no_numpy"]
        )
        return 1
    return 0


def _cmd_table1(args, out) -> int:
    _print_rows(["method", "INSA", "categories"], table1_rows(), out)
    return 0


def _cmd_carriers(args, out) -> int:
    _print_rows(
        ["carrier", "bits", "survives reconnect", "client change",
         "suitable", "reason"],
        [
            [p.name, p.cookie_bits, "yes" if p.survives_reconnect else "no",
             p.client_modification, "yes" if p.suitable_for_snatch else "no",
             p.reason]
            for p in carrier_comparison()
        ],
        out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snatch (EuroSys 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speedup", help="analytic speedup model")
    p.add_argument("--d-wa", type=float, default=None,
                   help="web->analytics delay in ms (default: medians)")
    p.add_argument("--t-a", type=float, default=500.0,
                   help="analytics time cost in ms")
    p.add_argument("--interval", type=float, default=None,
                   help="periodical forwarding interval in ms")
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("breakdown", help="Figure-1 time-cost breakdown")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("testbed", help="one end-to-end experiment")
    p.add_argument("--scheme", choices=sorted(_SCHEMES),
                   default="trans-1rtt")
    p.add_argument("--insa", action="store_true")
    p.add_argument("--percentile", type=float, default=50.0)
    p.add_argument("--rps", type=float, default=10.0)
    p.add_argument("--duration-ms", type=float, default=4000.0)
    p.set_defaults(func=_cmd_testbed)

    p = sub.add_parser("measure", help="synthetic measurement campaign")
    p.add_argument("--sites", type=int, default=400)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser(
        "metrics",
        help="run a workload and dump the observability metrics",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration-ms", type=float, default=1000.0)
    p.add_argument("--scenario", choices=["standard-outage", "none"],
                   default="standard-outage")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write a JSON-lines dump to PATH")
    p.add_argument("--spans", action="store_true",
                   help="also print the sim-time span table")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "bench",
        help="scalar-vs-columnar data-plane throughput comparison",
    )
    p.add_argument("--packets", type=int, default=20000)
    p.add_argument("--users", type=int, default=2000)
    p.add_argument("--mode", choices=["periodical", "per-packet"],
                   default="periodical")
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--backend", choices=PIPELINE_BACKENDS,
                   default="columnar",
                   help="backend for --e2e --profile and --scale")
    p.add_argument("--compare", action="store_true",
                   help="the default mode: scalar vs columnar with numpy "
                        "off and on; writes BENCH_fastpath.json and exits "
                        "nonzero if reports differ or columnar lark is "
                        "slower than its numpy-off kernel")
    p.add_argument("--repeats", type=int, default=3,
                   help="interleaved best-of-N rounds for the comparison "
                        "and --e2e")
    p.add_argument("--placement", action="store_true",
                   help="skew-aware placement benchmark: static vs "
                        "rebalanced shard load, elastic-run identity, "
                        "scalar vs vectorized partition; writes "
                        "BENCH_placement.json and exits nonzero if "
                        "reports diverge or the zipfian imbalance "
                        "stays above 1.15")
    p.add_argument("--chaos", action="store_true",
                   help="supervised-shard crash-recovery benchmark "
                        "(3 seeds x all backends); writes "
                        "BENCH_chaos.json and exits nonzero if a "
                        "recovered run diverges or replays more than "
                        "one checkpoint epoch")
    p.add_argument("--e2e", action="store_true",
                   help="whole-run ingest benchmark (generate, encode, "
                        "lark, agg, verify) across all backends; writes "
                        "BENCH_e2e.json and exits nonzero on a report "
                        "mismatch")
    p.add_argument("--scale", action="store_true",
                   help="memory-vs-population benchmark: exact vs "
                        "sketch per-user engagement state, one "
                        "subprocess per cell for per-cell peak RSS; "
                        "writes BENCH_scale.json and exits nonzero if "
                        "sketch-mode RSS grows superlinearly")
    p.add_argument("--scale-users", default="10000,100000,1000000",
                   help="comma-separated population sizes for --scale")
    p.add_argument("--scale-events", type=float, default=1.0,
                   help="events per user for --scale cells")
    p.add_argument("--scale-exact-cap", type=int, default=100_000,
                   help="skip exact-mode cells above this population")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="quantile-sketch rank-error bound for --scale")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="with --e2e: run one pass of --backend under "
                        "cProfile and dump stats to PATH")
    p.add_argument("--rps", type=float, default=20000.0,
                   help="offered load for --e2e (requests/second)")
    p.add_argument("--duration-ms", type=float, default=1000.0,
                   help="run length for --e2e")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full result JSON to PATH")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table1", help="DStream methods vs INSA support")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("carriers", help="transport-carrier comparison")
    p.set_defaults(func=_cmd_carriers)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())
