#!/usr/bin/env python3
"""Bench-trend regression gate.

Compares freshly produced BENCH_*.json summaries against the committed
baselines in bench/baselines/ and fails (exit 1) when a tracked metric
regresses beyond its tolerance. Designed for the Release CI smoke:

    ./run_benches.sh --quick
    python3 scripts/check_bench_trend.py

Rules, in order:

  * mode guard     a quick baseline is only comparable to a quick run (and
                   full to full); a mismatch is an error, not a comparison.
  * host guard     likewise when both sides record the host (`nproc`, the
                   kernel `backend`) and it differs; a side that does not
                   record a key gets a note, not a failure.
  * throughput     tokens/s- and queries/s-shaped metrics must stay within
                   15% of baseline (fresh >= 0.85 * baseline) — wide enough
                   that best-of-N absorbs shared-runner noise, strict
                   enough that a 20% regression always fails. Hardware
                   noise above baseline is always fine.
  * quality        accuracy / recall / hit-rate / ROUGE metrics are exact
                   deterministic constants in this codebase, so they get a
                   tight 2% band.
  * booleans       any tracked correctness flag that is true in the
                   baseline must still be true.
  * gates          per-gate status strings: a gate that passed at baseline
                   must not fail; entries whose status starts with
                   "skipped" on either side are host-dependent and ignored.
                   Both shapes are understood — {"value","floor","status"}
                   objects (bench_infer/serve/rag) and bare status strings
                   (bench_stream_merge).
  * coverage       a metric present in the baseline but missing from the
                   fresh summary is a failure (silently dropping a tracked
                   number is itself a regression).

Timings and RSS numbers are reported but never gated — they are too
machine-dependent; the throughput ratios above are the stable signal.
Baselines assume one runner class: after changing CI hardware (or bench
sizes), regenerate them with --update-baselines and commit the result.

Noise handling: short quick-mode runs on shared runners jitter well past
any sane tolerance, so the checker supports best-of-N. With
--rerun-cmd './run_benches.sh --quick' --max-runs 3, a failing comparison
re-runs the benches and merges each new summary into a running
elementwise best (max for numbers, OR for booleans, pass-wins for gate
statuses) before comparing again. A genuine regression reproduces on
every re-run and still fails; scheduler noise converges to a pass.
(Merging by max also applies to ungated informational numbers — that is
fine, nothing compares them.)

Sustained slowdown (a shared runner that is simply 20% slower today than
when the baselines were captured) is separated from regressions via the
frozen seed decoder probe: throughput floors are scaled by
fresh/baseline seed_decode_tps (clamped to [0.5, 1.0]) — see
host_factor(). The probe code never changes, so only host speed moves
it; a kernel or engine regression does not, and still trips its floor.

--update-baselines rewrites bench/baselines/ from the fresh files instead
of comparing (commit the result); combined with --rerun-cmd/--max-runs it
records the best-of-N merge, giving baselines that are not themselves a
single noisy sample.
"""

import argparse
import fnmatch
import json
import pathlib
import subprocess
import sys

BENCH_FILES = [
    "BENCH_infer.json",
    "BENCH_serve.json",
    "BENCH_rag.json",
    "BENCH_stream_merge.json",
]

# (pattern, min fresh/baseline ratio) over flattened dotted keys. 0.85
# leaves margin under best-of-N for shared-runner jitter while still
# always catching a 20% regression.
THROUGHPUT_RULES = [
    ("decode_tps", 0.85),
    ("decode_tps_*", 0.85),
    ("spec_decode_tps", 0.85),
    ("spec_plain_tps", 0.85),
    ("prefill_tps", 0.85),
    ("mcq_items_per_s", 0.85),
    ("tokens_per_s_*", 0.85),
    ("*_qps", 0.85),
]

# Deterministic quality constants: tight band, still ratio-based so a
# baseline of 0 compares as equal-only.
QUALITY_RULES = [
    ("mcq_acc_*", 0.98),
    ("rouge_*", 0.98),
    ("ann_recall_*", 0.98),
    ("prefix_hit_rate", 0.98),
    # Speculative acceptance is a deterministic function of the (pinned)
    # greedy token stream and the drafter, so it gets the tight band too:
    # a drop means drafting got worse, not that the host got slower.
    ("*accept_len", 0.98),
    ("*draft_hit_rate", 0.98),
]

# Host keys the summaries record; a baseline is comparable only on the host
# class it was taken on.
HOST_KEYS = ["nproc", "backend"]

BOOLEAN_KEYS = [
    "mcq_scores_equal",
    "deterministic_*",
    "quant_deterministic",
    "outputs_equal",
    "spec_identical",
    "spec_outputs_equal",
    "persist_identical",
    "batch_identical",
    # Serve lifecycle: a clean drain (every session terminal, no leaked KV
    # bytes or prefix pins, counters balanced) must never regress.
    "drain_clean",
]


def flatten(obj, prefix=""):
    """Yields (dotted_key, leaf_value) for every non-gate leaf."""
    for key, value in obj.items():
        if key == "gates":
            continue
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from flatten(value, dotted + ".")
        else:
            yield dotted, value


def leaf_name(dotted):
    return dotted.rsplit(".", 1)[-1]


def match_rules(key, rules):
    name = leaf_name(key)
    for pattern, ratio in rules:
        if fnmatch.fnmatch(name, pattern):
            return ratio
    return None


def gate_status(entry):
    if isinstance(entry, dict):
        return str(entry.get("status", ""))
    return str(entry)


def _status_rank(status):
    if status == "pass":
        return 0
    if status.startswith("skipped"):
        return 1
    return 2


def merge_best(base, new):
    """Elementwise best of two summaries: max numbers, OR booleans,
    pass-wins gate statuses, recursing through nested objects."""
    if isinstance(base, dict) and isinstance(new, dict):
        out = dict(base)
        for key, value in new.items():
            out[key] = merge_best(base[key], value) if key in base else value
        return out
    if isinstance(base, bool) or isinstance(new, bool):
        return bool(base) or bool(new)
    if isinstance(base, (int, float)) and isinstance(new, (int, float)):
        return max(base, new)
    if isinstance(base, str) and isinstance(new, str):
        return base if _status_rank(base) <= _status_rank(new) else new
    return new


def host_factor(merged, baseline_dir):
    """Host-speed calibration in [0.5, 1.0] from the frozen seed decoder.

    BENCH_infer.json carries seed_decode_tps, measured on an in-binary
    scalar decode path that has been frozen since it was introduced — it
    only moves when the host itself is faster or slower, never when the
    optimized kernels change. Scaling throughput floors by
    fresh_seed/base_seed cancels sustained slowdown of a shared runner
    without masking real regressions: an actual kernel/engine regression
    leaves the seed untouched, so its floor barely moves. Clamped so a
    fast host never tightens floors (<= 1.0) and a wild seed sample can
    hide at most half a metric (>= 0.5)."""
    fresh = merged.get("BENCH_infer.json", {}).get("seed_decode_tps")
    base_path = baseline_dir / "BENCH_infer.json"
    if not fresh or not base_path.exists():
        return 1.0
    with open(base_path) as f:
        base = json.load(f).get("seed_decode_tps")
    if not base:
        return 1.0
    return min(1.0, max(0.5, fresh / base))


def compare_file(name, fresh, baseline, failures, notes, factor=1.0):
    fresh_mode = fresh.get("quick", fresh.get("mode"))
    base_mode = baseline.get("quick", baseline.get("mode"))
    if fresh_mode != base_mode:
        failures.append(
            f"{name}: mode mismatch (fresh {fresh_mode!r} vs baseline "
            f"{base_mode!r}) — regenerate the baseline at the same sizes"
        )
        return

    host_mismatch = False
    for key in HOST_KEYS:
        if key not in baseline or key not in fresh:
            side = "baseline" if key not in baseline else "fresh summary"
            notes.append(f"{name}: {side} records no {key!r}; host not "
                         "compared on it")
            continue
        if fresh[key] != baseline[key]:
            failures.append(
                f"{name}: host mismatch on {key} (fresh {fresh[key]!r} vs "
                f"baseline {baseline[key]!r}) — regenerate the baseline on "
                "this host"
            )
            host_mismatch = True
    if host_mismatch:
        return

    fresh_flat = dict(flatten(fresh))
    for key, base_value in flatten(baseline):
        if key in ("quick", "mode", "method", *HOST_KEYS):
            continue
        if key not in fresh_flat:
            failures.append(f"{name}: tracked metric '{key}' disappeared")
            continue
        fresh_value = fresh_flat[key]

        if any(fnmatch.fnmatch(leaf_name(key), p) for p in BOOLEAN_KEYS):
            if base_value is True and fresh_value is not True:
                failures.append(f"{name}: {key} was true, now {fresh_value}")
            continue

        if leaf_name(key) == "seed_decode_tps":
            continue  # the host-speed probe itself is never gated

        ratio = match_rules(key, THROUGHPUT_RULES)
        kind = "throughput"
        if ratio is None:
            ratio = match_rules(key, QUALITY_RULES)
            kind = "quality"
        if ratio is None or not isinstance(base_value, (int, float)):
            continue  # informational (timings, RSS, counters)
        if not isinstance(fresh_value, (int, float)):
            failures.append(
                f"{name}: {key} is no longer numeric ({fresh_value!r})"
            )
            continue
        floor = base_value * ratio
        if kind == "throughput":
            floor *= factor
        if fresh_value < floor:
            failures.append(
                f"{name}: {kind} regression: {key} = {fresh_value:g} < "
                f"{floor:g} (baseline {base_value:g}, tolerance "
                f"{100 * (1 - ratio):.0f}%, host factor {factor:.2f})"
            )
        else:
            notes.append(
                f"{name}: {key} {base_value:g} -> {fresh_value:g} ok"
            )

    fresh_gates = fresh.get("gates", {})
    for gate, base_entry in baseline.get("gates", {}).items():
        base_status = gate_status(base_entry)
        if base_status.startswith("skipped"):
            continue
        if gate not in fresh_gates:
            failures.append(f"{name}: gate '{gate}' disappeared")
            continue
        status = gate_status(fresh_gates[gate])
        if status.startswith("skipped"):
            notes.append(f"{name}: gate {gate} now {status} (host-dependent)")
            continue
        if base_status == "pass" and status != "pass":
            failures.append(
                f"{name}: gate '{gate}' passed at baseline, now '{status}'"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", default=None,
                        help=f"fresh summaries (default: {BENCH_FILES})")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        type=pathlib.Path)
    parser.add_argument("--fresh-dir", default=".", type=pathlib.Path)
    parser.add_argument("--update-baselines", action="store_true",
                        help="overwrite the baselines from the fresh files")
    parser.add_argument("--rerun-cmd", default=None,
                        help="shell command that regenerates the fresh "
                             "summaries (e.g. './run_benches.sh --quick')")
    parser.add_argument("--max-runs", type=int, default=1,
                        help="best-of-N: re-run --rerun-cmd and merge until "
                             "the comparison passes or N runs are spent")
    args = parser.parse_args()

    names = args.files or BENCH_FILES
    merged = {}  # file name -> best-of-runs summary
    attempts = 0
    while True:
        attempts += 1
        failures = []
        notes = []
        compared = 0
        for file_name in names:
            fresh_path = args.fresh_dir / pathlib.Path(file_name).name
            if not fresh_path.exists():
                failures.append(f"{fresh_path}: fresh summary missing — did "
                                "the bench run?")
                continue
            with open(fresh_path) as f:
                fresh = json.load(f)
            key = fresh_path.name
            merged[key] = (merge_best(merged[key], fresh)
                           if key in merged else fresh)

        if args.update_baselines:
            if attempts < args.max_runs and args.rerun_cmd:
                print(f"baseline run {attempts}/{args.max_runs} merged; "
                      "re-running benches")
                subprocess.run(args.rerun_cmd, shell=True, check=True)
                continue
            args.baseline_dir.mkdir(parents=True, exist_ok=True)
            for key, summary in merged.items():
                base_path = args.baseline_dir / key
                with open(base_path, "w") as f:
                    json.dump(summary, f, indent=1)
                    f.write("\n")
                print(f"updated {base_path}")
            return 0

        factor = host_factor(merged, args.baseline_dir)
        if factor < 1.0:
            notes.append(f"host running at {factor:.2f}x of baseline speed "
                         "(seed decoder probe); throughput floors scaled")
        for file_name in names:
            key = pathlib.Path(file_name).name
            base_path = args.baseline_dir / key
            if key not in merged:
                continue  # missing-file failure already recorded
            if not base_path.exists():
                notes.append(f"{base_path}: no baseline yet (run with "
                             "--update-baselines to create)")
                continue
            with open(base_path) as f:
                baseline = json.load(f)
            compare_file(key, merged[key], baseline, failures, notes, factor)
            compared += 1

        if not failures or attempts >= args.max_runs or not args.rerun_cmd:
            break
        print(f"bench trend: {len(failures)} miss(es) on run "
              f"{attempts}/{args.max_runs} — re-running benches to separate "
              "noise from regression")
        subprocess.run(args.rerun_cmd, shell=True, check=True)

    for line in notes:
        print(f"  note: {line}")
    if failures:
        print(f"bench trend: {len(failures)} regression(s) vs baselines "
              f"(best of {attempts} run(s)):")
        for line in failures:
            print(f"  FAIL: {line}")
        return 1
    print(f"bench trend: OK ({compared} summaries within tolerance, "
          f"{attempts} run(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
