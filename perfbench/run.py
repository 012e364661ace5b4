"""finsite benchmark: seeded closed-loop workloads, end to end or traced.

Run from the root of a finsite checkout:

    python3 perfbench/run.py --workload converging --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's rounds in a closed loop for --seconds and
prints the end-to-end metrics, with times scaled to reference speed (see
harness.py) and taken from each distinct job's median; --trace 1 runs the workload's fixed trace list once untraced and
once with per-module spans and counts, and prints the per-module metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  perfbench/meta.json records which end-to-end metric each
per-module metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = {"converging": "converging", "wide-site": "wide_site", "cli-docs": "cli_docs"}
TAIL_PERCENTILE = 90

# (metric, unit, how to read it from a traced run)
SPAN_S = {"intmat.reduce_presentation_s": "intmat.reduce_presentation",
          "towers.levelmorphism_init_s": "towers.LevelMorphism.__post_init__",
          "cosheaf.plus_s": "cosheaf.plus_cosheaf", "cosheaf.check_s": "cosheaf.check_cosheaf",
          "cosheaf.defect_s": "cosheaf.cosheaf_defect", "sheaf.plus_s": "sheaf.plus_sheaf",
          "io.load_s": "io.load", "io.save_s": "io.save",
          "randsuite.oracle_suite_s": "randsuite.oracle_suite"}
SETUP_SPAN_S = {"spaces.open_site_s": "spaces.open_site",
                "spaces.converging_site_s": "spaces.converging_sequence_site"}
COUNTS = {"intmat.reduce_presentation_calls": ("intmat.reduce_presentation",),
          "intmat.mul_calls": ("intmat.mul",), "intmat.freeze_calls": ("intmat.freeze",),
          "category.comma_of_sieve_calls": ("category.comma_of_sieve",),
          "category.scan_calls": ("category.FiniteCategory.into",
                                  "category.FiniteCategory.out_of"),
          "category.find_refinement_calls": ("category.find_refinement",),
          "values.colimit_calls": ("values.finite_colimit",),
          "values.limit_calls": ("values.finite_limit",),
          "values.finsetmap_apply_calls": ("values.FinSetMap.__call__",),
          "values.finabmap_built": ("values.FinAbMap.__post_init__",),
          "towers.levelmorphism_built": ("towers.LevelMorphism.__post_init__",),
          "towers.verdict_calls": ("towers.is_iso_at_depth", "towers.is_epi_at_depth",
                                   "towers.is_rudimentary_at_depth"),
          "cosheaf.tensor_calls": ("cosheaf.tensor_with_sieve",),
          "sheaf.hom_with_sieve_calls": ("sheaf.hom_with_sieve",),
          "io.load_bytes": ("io.load_bytes",), "io.save_bytes": ("io.save_bytes",),
          "cli.exit_mismatches": ("cli.exit_mismatches",)}
DISTINCT = {"category.comma_distinct_ratio": "category.comma_of_sieve",
            "values.colimit_distinct_ratio": "values.finite_colimit"}
CURVE = {f"cosheaf.cosheafify_pt_d{d}_s": d for d in (4, 6, 8, 10)}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "count"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_failures(tally):
    for label, problem in tally.wrong[:20]:
        print(f"WRONG  {label}: {problem}")
    for label, detail in tally.raised[:20]:
        print(f"RAISED {label}: {' '.join(detail)}")


def timed(wl, root, seed, seconds):
    from harness import REF_S, closed_loop, peak_rss_mb, tail, timed_setup, typical_times
    setup_s, setup_raw, state = timed_setup(root, wl, seed)
    tally = closed_loop(wl.rounds(state), seconds)
    typical = typical_times(tally)
    tail_s, beyond = tail(typical, TAIL_PERCENTILE)
    ratio = tally.failed / tally.attempted
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "job_p50_s": _metric(statistics.median(typical), "s"),
        "job_tail_s": _metric(tail_s, "s"),
        "jobs_per_s": _metric(len(typical) / sum(typical), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb(children=getattr(wl, "CHILD_RSS", False)), "MB"),
    }
    repeats = min(map(len, tally.by_label.values()))
    print(f"closed loop, 1 client: {tally.attempted} jobs ({len(typical)} distinct, each run "
          f"{repeats} or more times) in {tally.wall_s:.2f} s of wall time")
    print(f"wall time, unscaled: setup {setup_raw:.6g} s, median job "
          f"{statistics.median(tally.times):.6g} s, {tally.attempted / tally.wall_s:.6g} jobs/s")
    print(f"times below are at reference speed (reference kernel = {REF_S * 1e3:g} ms):")
    notes = {"setup_s": "  (median of 7 set-ups)",
             "job_p50_s": f"  (median of {len(typical)} distinct jobs' median times)",
             "job_tail_s": f"  (p{TAIL_PERCENTILE} of {len(typical)} distinct jobs, "
                           f"{beyond} beyond)",
             "jobs_per_s": "  (a round of one of each distinct job)"}
    for name, m in metrics.items():
        print(f"{name:<14} {m['value']:.6g} {m['unit']}{notes.get(name, '')}")
    print(f"{'failed_ratio':<14} {ratio:.6g}  ({tally.failed}/{tally.attempted} jobs)")
    _print_failures(tally)
    return not tally.wrong, tally.attempted, tally.failed, metrics


def traced(wl, root, seed):
    from harness import run_list
    from tracer import MODULES, Tracer
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    spans_path = work / f"spans-{wl.__name__}.jsonl"
    spans_path.unlink(missing_ok=True)
    state = wl.setup(seed, root)
    jobs = wl.trace_jobs(state)
    plain = run_list(jobs, [job.prepare() for job in jobs])

    setup_tracer = Tracer()
    setup_tracer.install()
    t0 = time.perf_counter()
    try:
        wl.setup(seed, root)
    finally:
        setup_tracer.remove()
    setup_wall = time.perf_counter() - t0

    inputs = [job.prepare() for job in jobs]
    tracer = Tracer()
    tracer.spans_path = spans_path
    tracer.install()
    try:
        traced_tally = run_list(jobs, inputs, tracer)
    finally:
        tracer.remove()
    tracer.calls["intmat.snf_hits"] += traced_tally.snf_hits
    tracer.calls["intmat.snf_misses"] += traced_tally.snf_misses

    identical = [t for _, t in plain.outputs] == [t for _, t in traced_tally.outputs]
    curve_list = wl.curve_jobs(state) if hasattr(wl, "curve_jobs") else []
    curve = run_list(curve_list, [job.prepare() for job in curve_list])
    curve_s = {job.d: t for job, t in zip(curve_list, curve.times)}

    calls, incl, setup_incl = tracer.calls, tracer.inclusive, setup_tracer.inclusive
    metrics = {}
    for name, span in SPAN_S.items():
        metrics[name] = incl.get(span, 0.0)
    for name, span in SETUP_SPAN_S.items():
        metrics[name] = setup_incl.get(span, 0.0)
    for name, keys in COUNTS.items():
        metrics[name] = sum(calls.get(k, 0) for k in keys)
    for name, key in DISTINCT.items():
        metrics[name] = tracer.distinct.get(key, 0) / calls[key] if calls.get(key) else 0.0
    lookups = calls.get("intmat.snf_hits", 0) + calls.get("intmat.snf_misses", 0)
    metrics["intmat.snf_hit_ratio"] = calls.get("intmat.snf_hits", 0) / lookups if lookups else 0.0
    metrics["cli.import_s"] = statistics.median(tracer.cli_imports) if tracer.cli_imports else 0.0
    for name, d in CURVE.items():
        metrics[name] = curve_s.get(d, 0.0)
    metrics["trace.overhead_ratio"] = traced_tally.wall_s / plain.wall_s
    for m in MODULES:
        metrics[f"{m}.self_s"] = tracer.self_s.get(m, 0.0)
        metrics[f"{m}.share"] = tracer.self_s.get(m, 0.0) / traced_tally.wall_s

    with open(spans_path, "a", encoding="utf-8") as fh:
        header = {"process": os.getpid(), "workload": wl.__name__, "seed": seed}
        setup_tracer.write_spans(fh, dict(header, phase="setup"))
        tracer.write_spans(fh, dict(header, phase="trace list"))

    print(f"trace list: {len(jobs)} jobs; untraced {plain.wall_s:.3f} s, traced "
          f"{traced_tally.wall_s:.3f} s; traced setup {setup_wall:.3f} s")
    print(f"traced outputs byte-identical to untraced: {identical}")
    moves = {e["metric"]: f"{e['moves']} on {e['on']}"
             for e in json.loads((HERE / "meta.json").read_text(encoding="utf-8"))["metric_map"]}
    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]:<12.6g} {_unit(name):<6} -> {moves[name]}")
    tallies = (plain, traced_tally, curve)
    for tally in tallies:
        _print_failures(tally)
    correct = identical and not any(tally.wrong for tally in tallies)
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    return correct, attempted, failed, {k: _metric(v, _unit(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "finsite" / "__init__.py").is_file():
        print("error: run from the root of a finsite checkout (src/finsite not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    # One CPU for the benchmark and its CLI children, so that the host
    # probes and the jobs they scale run on the same vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = importlib.import_module(WORKLOADS[args.workload])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        correct, attempted, failed, metrics = traced(wl, root, args.seed)
    else:
        correct, attempted, failed, metrics = timed(wl, root, args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
