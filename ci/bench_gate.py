#!/usr/bin/env python3
"""Benchmark trajectory tooling for the BenchmarkMethod suite.

Two subcommands, shared by CI and local use:

  parse <bench.out> <out.json>
      Convert `go test -bench BenchmarkMethod/` output into the BENCH JSON
      schema ({"suite": ..., "results": [{method, iterations, ns_per_op,
      bytes_per_op, allocs_per_op}]}). BenchmarkPopulation/<n> rows (the
      lazy-environment construction ladder) are parsed too, recorded as
      "population/<n>" with their custom bytes/client metric carried in
      bytes_per_client — so BENCH_trajectory.json tracks the per-client
      footprint of the million-client substrate alongside the method
      suite. BenchmarkPolyline{Encode,Decode,Transmit,TransmitFixed}/<params>
      rows (internal/codec: the wire kernels, the fused channel and the
      simulator's fixed-point uplink) are recorded as
      "codec/Polyline<Op>/<params>"; their MB/s column is skipped, and
      check gates their allocs/op and B/op (both 0) like any other row.
      Benchmark{Gemm,GemmParallel,MulTransB,Im2Col,Col2Im,FreeList}/<shape>
      rows (internal/tensor: the GEMM row kernel, the three GEMMs fanned
      out through internal/parallel, the a·bᵀ row kernel at M×K×N shapes,
      the convolution lowering, and a borrow and return through the
      weight pool and the frame list) are recorded as "tensor/<Op>/<shape>",
      gated the same way;
      BenchmarkForOverhead/<region> rows (internal/parallel: an empty
      region fanned out to the helpers, or nested and run inline) as
      "parallel/ForOverhead/<region>", also at 0 allocs/op; and
      BenchmarkFold/<fold>/<cohort>x<dim> rows (internal/robust:
      coordinate median and trimmed mean on the tile kernel) as
      "robust/Fold/<fold>/<cohort>x<dim>", also at 0 B/op and 0
      allocs/op. BenchmarkPartition/<clients> rows (internal/tiering:
      the radix partition of a profiled population into five tiers) are
      recorded as "tiering/Partition/<clients>"; they allocate their
      outputs, so the gate holds their B/op and allocs/op to the
      baseline rather than to zero. BenchmarkCNNBackprop/<shape> rows
      (internal/nn: one forward+backward pass of SmallCNN at batch 10)
      are recorded as "nn/CNNBackprop/<shape>", at 0 B/op and 0
      allocs/op. The ...Reference benchmarks beside
      the codec, tensor, robust and tiering kernels are same-process
      denominators and are not recorded.

  append <current.json> <baseline.json> <trajectory.json> [label]
      Append the current suite as one entry to the committed trajectory
      file (creating it when absent) and print the delta-vs-baseline
      table. CI runs this after every bench run with the commit SHA as
      the label and commits the grown file back on pushes to main, so
      the per-commit history accumulates in BENCH_trajectory.json
      without manual steps. Appending is idempotent per label: re-runs
      of the same commit (retries, PR synchronize events) print the
      table but do not duplicate the entry.

  check <current.json> <baseline.json> [threshold]
      Gate what repeats. Fail (exit 1) when a method's allocs/op or
      bytes/op grew past the threshold factor (default 1.25) against the
      committed baseline, or when the baseline lists a method the current
      suite no longer has (stale baseline — regenerate it).

      Allocation counts and heap traffic are machine-independent, so they
      are gated raw: a method fails when its allocs/op exceeds the
      baseline by the threshold factor AND by more than 8 allocations —
      the absolute slack keeps tiny counts (2 -> 3 allocs) from tripping
      a ratio meant for real pool regressions. bytes/op is gated by the
      same rule with a 32 KiB absolute slack: a pooled buffer turning
      back into a per-call allocation moves bytes long before it moves
      the count.

      ns/op is printed, never gated. On the shared 2-vCPU box a 5x run's
      ns/op spreads wider than any sensible threshold — the parent tree
      failed its own 1.25x gate on some runs — so a timing failure said
      nothing about the change. The table still shows the raw ratio and
      the ratio normalized by the MEDIAN ratio across all methods (the
      uniform host-speed factor between the baseline box and this one;
      median, so one method's genuine big move cannot drag it), and the
      trajectory file keeps the history. A timing claim needs paired,
      alternating-order runs of the two trees, not this table.

Regenerate the committed baseline after a deliberate perf change:

  go test -run '^$' -bench 'BenchmarkMethod/|BenchmarkPopulation/' -benchtime 5x -count 1 . > bench.out
  go test -run '^$' -bench 'BenchmarkPolyline(Encode|Decode|Transmit|TransmitFixed)$' -benchtime 2000x -count 1 ./internal/codec >> bench.out
  go test -run '^$' -bench 'Benchmark(Gemm|GemmParallel|MulTransB|Im2Col|Col2Im|FreeList)$' -benchtime 500x -count 1 ./internal/tensor >> bench.out
  go test -run '^$' -bench 'BenchmarkForOverhead$' -benchtime 2000x -count 1 ./internal/parallel >> bench.out
  go test -run '^$' -bench 'BenchmarkFold$' -benchtime 500x -count 1 ./internal/robust >> bench.out
  go test -run '^$' -bench 'BenchmarkPartition$' -benchtime 20x -count 1 ./internal/tiering >> bench.out
  go test -run '^$' -bench 'BenchmarkCNNBackprop/^1x10x10$' -benchtime 200x -count 1 ./internal/nn >> bench.out
  python3 ci/bench_gate.py parse bench.out BENCH_baseline.json
"""
import json
import re
import sys

LINE = re.compile(
    r"Benchmark(Method|Population|Polyline(?:Encode|Decode|TransmitFixed|Transmit)|GemmParallel|Gemm|MulTransB|Im2Col|Col2Im|FreeList|Fold|Partition|ForOverhead|CNNBackprop)/(\S+?)(?:-\d+)?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op"
    r"(?:\s+\d+(?:\.\d+)? MB/s)?"
    r"(?:\s+(\d+(?:\.\d+)?) bytes/client)?"
    r"\s+(\d+) B/op\s+(\d+) allocs/op"
)


# Absolute slack of the bytes/op gate (see check in the module docstring).
BYTES_SLACK = 32 << 10


def parse(bench_out, out_json):
    rows = []
    with open(bench_out) as f:
        for line in f:
            m = LINE.match(line)
            if m:
                suite, name = m.group(1), m.group(2)
                # Population rungs and the codec, robust, tiering, tensor,
                # parallel and nn kernels are namespaced so they can never
                # collide with a registry method name.
                if suite == "Population":
                    name = "population/" + name
                elif suite.startswith("Polyline"):
                    name = "codec/%s/%s" % (suite, name)
                elif suite == "Fold":
                    name = "robust/Fold/" + name
                elif suite == "Partition":
                    name = "tiering/Partition/" + name
                elif suite == "ForOverhead":
                    name = "parallel/ForOverhead/" + name
                elif suite == "CNNBackprop":
                    name = "nn/CNNBackprop/" + name
                elif suite != "Method":
                    name = "tensor/%s/%s" % (suite, name)
                row = {
                    "method": name,
                    "iterations": int(m.group(3)),
                    "ns_per_op": float(m.group(4)),
                    "bytes_per_op": int(m.group(6)),
                    "allocs_per_op": int(m.group(7)),
                }
                if m.group(5) is not None:
                    row["bytes_per_client"] = float(m.group(5))
                rows.append(row)
    if not rows:
        sys.exit("bench_gate: no benchmark lines parsed from %s" % bench_out)
    with open(out_json, "w") as f:
        json.dump({"suite": "BenchmarkMethod", "results": rows}, f, indent=2)
        f.write("\n")
    print("bench_gate: wrote %d methods to %s" % (len(rows), out_json))


def host_factor(ratios):
    # Host-speed normalization: the MEDIAN ratio is the uniform
    # machine-speed factor between the baseline box and this one; dividing
    # it out leaves each method's movement relative to the suite. Median
    # rather than mean, so a single method genuinely getting much faster
    # (or slower) cannot drag the normalizer and flag the others.
    if not ratios:
        return 1.0
    rs = sorted(ratios.values())
    mid = len(rs) // 2
    return rs[mid] if len(rs) % 2 else (rs[mid - 1] + rs[mid]) / 2


def delta_table(cur, base, threshold=None):
    """Print the per-method delta-vs-baseline table; return gate failures.

    With threshold=None the table is informational (the append path);
    with a threshold, allocs/op and bytes/op growth beyond it is flagged
    and collected as failures (the check path). The ns/op columns are
    context on both paths.
    """
    failures = []
    common = [m for m in sorted(base) if m in cur]
    ratios = {}
    for method in common:
        b, c = base[method]["ns_per_op"], cur[method]["ns_per_op"]
        ratios[method] = c / b if b else float("inf")
    host = host_factor(ratios)
    print("host speed factor vs baseline: %.2fx" % host)
    print("%-28s %14s %14s %7s %11s %13s %17s" % (
        "method", "baseline ns/op", "current ns/op", "raw", "normalized",
        "allocs (b->c)", "bytes/op (b->c)"))
    for method in common:
        b, c = base[method]["ns_per_op"], cur[method]["ns_per_op"]
        norm = ratios[method] / host
        flag = ""
        b_allocs = base[method].get("allocs_per_op", 0)
        c_allocs = cur[method].get("allocs_per_op", 0)
        # Allocation counts are deterministic per code path, so gate them
        # raw: ratio over threshold AND more than 8 extra allocs (absolute
        # slack so 2->3 on a tiny method is not a failure).
        if (threshold is not None and c_allocs > b_allocs * threshold
                and c_allocs - b_allocs > 8):
            flag = "  << ALLOC REGRESSION"
            failures.append("%s allocs/op grew %d -> %d (pooled hot path leaking?)"
                            % (method, b_allocs, c_allocs))
        allocs = "%d->%d" % (b_allocs, c_allocs)
        # Heap traffic is machine-independent like allocs and gated the
        # same way: ratio over threshold AND more than BYTES_SLACK extra.
        b_bytes = base[method].get("bytes_per_op", 0)
        c_bytes = cur[method].get("bytes_per_op", 0)
        if (threshold is not None and c_bytes > b_bytes * threshold
                and c_bytes - b_bytes > BYTES_SLACK):
            flag = "  << BYTES REGRESSION"
            failures.append("%s bytes/op grew %d -> %d (a pooled buffer allocated per call?)"
                            % (method, b_bytes, c_bytes))
        nbytes = "%d->%d" % (b_bytes, c_bytes)
        print("%-28s %14.0f %14.0f %6.2fx %9.2fx %13s %17s%s"
              % (method, b, c, ratios[method], norm, allocs, nbytes, flag))
    for method in sorted(set(cur) - set(base)):
        print("%-28s %14s %14.0f   (new; not gated — add to the baseline)"
              % (method, "-", cur[method]["ns_per_op"]))
    return failures


def check(current_json, baseline_json, threshold):
    cur = {r["method"]: r for r in json.load(open(current_json))["results"]}
    base = {r["method"]: r for r in json.load(open(baseline_json))["results"]}
    failures = []
    for method in sorted(set(base) - set(cur)):
        failures.append(
            "%s is in the baseline but not in the current suite — "
            "regenerate BENCH_baseline.json (see ci/bench_gate.py)" % method)
    failures += delta_table(cur, base, threshold)
    if failures:
        print("\nbench_gate: FAIL")
        for f in failures:
            print("  - " + f)
        sys.exit(1)
    print("\nbench_gate: ok (allocs/op and bytes/op within %.2fx; ns/op shown, not gated)" % threshold)


def append(current_json, baseline_json, trajectory_json, label):
    cur_doc = json.load(open(current_json))
    cur = {r["method"]: r for r in cur_doc["results"]}
    base = {r["method"]: r for r in json.load(open(baseline_json))["results"]}
    try:
        with open(trajectory_json) as f:
            traj = json.load(f)
    except FileNotFoundError:
        traj = {"suite": cur_doc.get("suite", "BenchmarkMethod"), "entries": []}
    if any(e.get("label") == label for e in traj["entries"]):
        # Idempotent per label: a re-run of the same commit (CI retry, PR
        # synchronize) must not duplicate history.
        print("bench_gate: entry %r already in %s (%d entries); not appending"
              % (label, trajectory_json, len(traj["entries"])))
    else:
        traj["entries"].append({"label": label, "results": cur_doc["results"]})
        with open(trajectory_json, "w") as f:
            json.dump(traj, f, indent=2)
            f.write("\n")
        print("bench_gate: appended entry %r to %s (%d entries)"
              % (label, trajectory_json, len(traj["entries"])))
    delta_table(cur, base)


def main():
    if len(sys.argv) >= 4 and sys.argv[1] == "parse":
        parse(sys.argv[2], sys.argv[3])
    elif len(sys.argv) >= 4 and sys.argv[1] == "check":
        threshold = float(sys.argv[4]) if len(sys.argv) > 4 else 1.25
        check(sys.argv[2], sys.argv[3], threshold)
    elif len(sys.argv) >= 5 and sys.argv[1] == "append":
        label = sys.argv[5] if len(sys.argv) > 5 else "local"
        append(sys.argv[2], sys.argv[3], sys.argv[4], label)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
