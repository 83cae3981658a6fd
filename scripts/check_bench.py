#!/usr/bin/env python3
"""Perf-regression guardrail for the async I/O pipeline and the profiler.

Takes two PDC_BENCH_JSON (JSONL) files from the same suite run with the
pipeline off (the synchronous oracle) and on, matches experiment points by
label, and fails when any pipelined point is slower in modeled parallel
time than its synchronous twin (beyond a small tolerance), or when the
pipelined run hid no I/O at all (which would mean the overlap machinery
silently degraded to synchronous).

An optional third file holds rows from a PDC_BENCH_PROFILE run.  For every
profiled row the critical-path attribution must close: crit_compute_s +
crit_comm_s + crit_io_s + crit_idle_s == parallel_time_s within 1e-9.  And
across rows that differ only in p, the zero-communication what-if headroom
must grow with the processor count (communication is the scaling
bottleneck, so an infinitely fast network buys strictly more speedup at
p=16 than at p=2).

Two standalone modes guard the voting combiner:

--voting BENCH.jsonl
    Over the fig1/scale/comb={repl,voting} rows: at every p >= 32 the
    voting combiner's comm share and total modeled time must be strictly
    below replication's, and voting's max_comm_s must grow sublinearly
    (comm(2p) < 2 * comm(p) along the sweep).

--drift DRIFT.json
    Over a pdc.drift.v1 artifact (tests/differential_test with
    PDC_DRIFT_JSON set): mean absolute end-tree accuracy delta <= 0.5
    points and chosen-attribute agreement >= 95% at vote_k = 2 — the same
    budgets the differential suite asserts, re-checked here so bench CI
    fails if the approximation quietly degrades.

--serve BENCH.jsonl
    Over the serve/* rows from bench/serve_throughput: the compiled batch
    evaluator must deliver >= 5x the interpreted single-thread throughput,
    and replica scaling must hold >= 0.7 efficiency at 4 replicas.
    Efficiency is normalized by min(4, hw_threads) from the rows
    themselves, so the 4-replica point degrades to a
    contention-not-collapse check on hosts with fewer than 4 cores
    instead of demanding speedup the hardware cannot give.

--identity SNAPSHOT.jsonl RUN.jsonl
    The modeled clock is deterministic, so a regenerated row must equal
    its committed snapshot exactly: for every label present in both
    files, parallel_time_s, every max_*_s, io_hidden_s, balance,
    bytes_read/bytes_written, io_ops, records_redistributed, tree_nodes
    and (when either row has it) accuracy must be equal bit for bit.
    Fails when the files share no label.

Usage:
    python3 scripts/check_bench.py sync.jsonl pipelined.jsonl [profiled.jsonl]
    python3 scripts/check_bench.py --voting BENCH.jsonl
    python3 scripts/check_bench.py --drift DRIFT.json
    python3 scripts/check_bench.py --serve BENCH.jsonl
    python3 scripts/check_bench.py --identity SNAPSHOT.jsonl RUN.jsonl
"""

import json
import re
import sys

TOLERANCE = 1.001  # allow 0.1% modeled-time noise
CLOSURE_TOL = 1e-9
DRIFT_MAX_MEAN_ACC_DELTA = 0.005  # 0.5 accuracy points
DRIFT_MIN_AGREEMENT_K2 = 0.95
SERVE_MIN_COMPILED_SPEEDUP = 5.0
SERVE_MIN_REPLICA_EFFICIENCY = 0.7


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            rows[row["label"]] = row
    if not rows:
        sys.exit(f"check_bench: no rows in {path}")
    return rows


def check_profile(rows, failures):
    """Closure + comm-headroom-growth checks on PDC_BENCH_PROFILE rows."""
    profiled = {k: r for k, r in rows.items() if "crit_comm_s" in r}
    if not profiled:
        failures.append("profiled file has no crit_* columns — was "
                        "PDC_BENCH_PROFILE set?")
        return

    print(f"\n{'label':40s} {'time_s':>10s} {'crit_sum':>10s} "
          f"{'hr_comm':>8s} {'hr_io':>8s} {'hr_bal':>8s}")
    for label in sorted(profiled):
        r = profiled[label]
        t = r["parallel_time_s"]
        crit_sum = (r["crit_compute_s"] + r["crit_comm_s"] +
                    r["crit_io_s"] + r["crit_idle_s"])
        print(f"{label:40s} {t:10.4f} {crit_sum:10.4f} "
              f"{r['headroom_comm']:8.3f} {r['headroom_io']:8.3f} "
              f"{r['headroom_balance']:8.3f}")
        tol = CLOSURE_TOL * max(1.0, abs(t))
        if abs(crit_sum - t) > tol:
            failures.append(
                f"{label}: attribution does not close: "
                f"|{crit_sum:.12f} - {t:.12f}| > {tol:g}")
        # headroom_balance may dip below 1 (equalizing load can hurt a
        # dependency-bound run); a resource made free cannot.
        for key in ("headroom_comm", "headroom_io"):
            if r[key] < 1.0 - 1e-9:
                failures.append(f"{label}: {key} = {r[key]:.6f} < 1 — a "
                                "free resource cannot slow the run down")

    # Group rows that differ only in their p=N component and require the
    # zero-comm headroom to be largest at the largest p.
    families = {}
    for label, r in profiled.items():
        family = re.sub(r"p=\d+", "p=*", label)
        families.setdefault(family, []).append(r)
    compared = False
    for family, rows_of in sorted(families.items()):
        if len(rows_of) < 2:
            continue
        compared = True
        lo = min(rows_of, key=lambda r: r["p"])
        hi = max(rows_of, key=lambda r: r["p"])
        if hi["headroom_comm"] <= lo["headroom_comm"]:
            failures.append(
                f"{family}: zero-comm headroom at p={hi['p']} "
                f"({hi['headroom_comm']:.3f}x) does not beat p={lo['p']} "
                f"({lo['headroom_comm']:.3f}x) — communication should "
                "dominate the critical path as p grows")
    if not compared:
        failures.append("profiled file has no label family spanning "
                        "multiple p values — cannot check headroom growth")


def check_voting(path):
    """Voting-vs-replication guarantees over the fig1/scale sweep."""
    rows = load(path)
    sweep = {}  # (comb, p) -> row
    for label, r in rows.items():
        m = re.match(r".*comb=(repl|voting)/.*p=(\d+)$", label)
        if m and label.startswith("fig1/scale/"):
            sweep[(m.group(1), int(m.group(2)))] = r
    if not sweep:
        return [f"--voting: no fig1/scale/comb=* rows in {path}"]

    failures = []
    procs = sorted({p for (_, p) in sweep})
    print(f"{'p':>5s} {'repl_s':>9s} {'vote_s':>9s} "
          f"{'repl_comm':>10s} {'vote_comm':>10s} "
          f"{'repl_share':>10s} {'vote_share':>10s}")
    for p in procs:
        repl = sweep.get(("repl", p))
        vote = sweep.get(("voting", p))
        if repl is None or vote is None:
            failures.append(f"--voting: p={p} missing a combiner row")
            continue
        r_share = repl["max_comm_s"] / max(repl["parallel_time_s"], 1e-12)
        v_share = vote["max_comm_s"] / max(vote["parallel_time_s"], 1e-12)
        print(f"{p:5d} {repl['parallel_time_s']:9.4f} "
              f"{vote['parallel_time_s']:9.4f} {repl['max_comm_s']:10.4f} "
              f"{vote['max_comm_s']:10.4f} {r_share:10.3f} {v_share:10.3f}")
        if p >= 32:
            if v_share >= r_share:
                failures.append(
                    f"--voting: p={p} voting comm share {v_share:.3f} not "
                    f"strictly below replication's {r_share:.3f}")
            if vote["parallel_time_s"] >= repl["parallel_time_s"]:
                failures.append(
                    f"--voting: p={p} voting modeled time "
                    f"{vote['parallel_time_s']:.4f}s not strictly below "
                    f"replication's {repl['parallel_time_s']:.4f}s")
    # Sublinear comm growth along the voting sweep: comm(2p) < 2*comm(p).
    doubled = False
    for p in procs:
        lo = sweep.get(("voting", p))
        hi = sweep.get(("voting", 2 * p))
        if lo is None or hi is None:
            continue
        doubled = True
        if hi["max_comm_s"] >= 2 * lo["max_comm_s"]:
            failures.append(
                f"--voting: voting max_comm_s grows superlinearly "
                f"p={p}->{2 * p}: {lo['max_comm_s']:.4f} -> "
                f"{hi['max_comm_s']:.4f}")
    if not doubled:
        failures.append("--voting: sweep has no p/2p voting pair — cannot "
                        "check sublinear comm growth")
    return failures


def check_drift(path):
    """Drift budgets over a pdc.drift.v1 artifact."""
    with open(path) as f:
        doc = json.load(f)
    failures = []
    if doc.get("schema") != "pdc.drift.v1":
        return [f"--drift: {path} is not a pdc.drift.v1 artifact"]
    mean_abs = doc["tree"]["mean_abs_delta"]
    agree_k2 = doc["node"]["agreement_rate_k2"]
    # The artifact embeds its thresholds; never accept looser ones than
    # the budgets this script owns.
    max_mean = min(doc["thresholds"]["max_mean_accuracy_delta"],
                   DRIFT_MAX_MEAN_ACC_DELTA)
    min_agree = max(doc["thresholds"]["min_agreement_rate_k2"],
                    DRIFT_MIN_AGREEMENT_K2)
    n_runs = len(doc["tree"]["runs"])
    n_cells = len(doc["node"]["cells"])
    print(f"drift: {n_runs} tree runs, {n_cells} node cells, "
          f"mean_abs_delta={mean_abs:.5f} (budget {max_mean}), "
          f"agreement_k2={agree_k2:.3f} (budget {min_agree})")
    if n_runs == 0 or n_cells == 0:
        failures.append("--drift: artifact has no measurements")
    if mean_abs > max_mean:
        failures.append(
            f"--drift: mean abs accuracy delta {mean_abs:.5f} exceeds "
            f"{max_mean} — the voting approximation degraded")
    if agree_k2 < min_agree:
        failures.append(
            f"--drift: k=2 attribute agreement {agree_k2:.3f} below "
            f"{min_agree}")
    if not doc.get("pass", False):
        failures.append("--drift: artifact reports pass=false")
    return failures


def check_serve(path):
    """Compiled-speedup + replica-efficiency gates over serve/* rows."""
    rows = load(path)
    serve = {k: r for k, r in rows.items() if k.startswith("serve/")}
    if not serve:
        return [f"--serve: no serve/* rows in {path}"]

    failures = []
    required = ("serve/interp", "serve/compiled/batch",
                "serve/replicas/r=1", "serve/replicas/r=4")
    missing = [k for k in required if k not in serve]
    if missing:
        return [f"--serve: missing rows: {missing}"]

    print(f"{'label':28s} {'threads':>7s} {'records/s':>14s}")
    for label in sorted(serve):
        r = serve[label]
        print(f"{label:28s} {r['threads']:7d} {r['records_per_s']:14.0f}")

    interp = serve["serve/interp"]["records_per_s"]
    batch = serve["serve/compiled/batch"]["records_per_s"]
    if interp <= 0:
        return ["--serve: interpreted throughput is zero"]
    speedup = batch / interp
    print(f"\ncompiled-batch speedup over interpreted: {speedup:.2f}x "
          f"(gate {SERVE_MIN_COMPILED_SPEEDUP}x)")
    if speedup < SERVE_MIN_COMPILED_SPEEDUP:
        failures.append(
            f"--serve: compiled batch {batch:.0f} rec/s is only "
            f"{speedup:.2f}x interpreted {interp:.0f} rec/s "
            f"(gate {SERVE_MIN_COMPILED_SPEEDUP}x)")

    # Replica efficiency at r=4, normalized by the cores the host can
    # actually give (hw_threads travels in the rows): on a 1-core host the
    # gate only requires that running 4 replicas is not >30% worse than 1.
    r1 = serve["serve/replicas/r=1"]["records_per_s"]
    r4 = serve["serve/replicas/r=4"]["records_per_s"]
    hw = serve["serve/replicas/r=4"].get("hw_threads", 1)
    usable = min(4, max(1, hw))
    eff = r4 / (usable * r1) if r1 > 0 else 0.0
    print(f"replica efficiency at r=4: {eff:.2f} over {usable} usable "
          f"core(s) (gate {SERVE_MIN_REPLICA_EFFICIENCY})")
    if eff < SERVE_MIN_REPLICA_EFFICIENCY:
        failures.append(
            f"--serve: 4-replica efficiency {eff:.2f} below "
            f"{SERVE_MIN_REPLICA_EFFICIENCY} (r1={r1:.0f}, r4={r4:.0f}, "
            f"hw_threads={hw})")
    return failures


IDENTITY_FIELDS = ("parallel_time_s", "io_hidden_s", "balance", "bytes_read",
                   "bytes_written", "io_ops", "records_redistributed",
                   "tree_nodes")


def check_identity(snapshot_path, run_path):
    """Modeled fields of shared labels must match the snapshot exactly."""
    snapshot = load(snapshot_path)
    run = load(run_path)
    shared = sorted(set(snapshot) & set(run))
    if not shared:
        return [f"--identity: {snapshot_path} and {run_path} share no label"]
    failures = []
    for label in shared:
        want, got = snapshot[label], run[label]
        fields = set(IDENTITY_FIELDS)
        fields |= {k for k in (*want, *got)
                   if k == "accuracy" or re.fullmatch(r"max_\w+_s", k)}
        for key in sorted(fields):
            if key not in want or key not in got:
                where = run_path if key in want else snapshot_path
                failures.append(
                    f"--identity: {label}: {key} missing from {where}")
            elif want[key] != got[key]:
                failures.append(f"--identity: {label}: {key} = {got[key]!r}, "
                                f"snapshot has {want[key]!r}")
    print(f"identity: {len(shared)} shared label(s), "
          f"{len(failures)} mismatched field(s)")
    return failures


def run_flag_mode(flag, paths):
    checks = {"--voting": check_voting, "--drift": check_drift,
              "--serve": check_serve, "--identity": check_identity}
    failures = checks[flag](*paths)
    if failures:
        print("\ncheck_bench: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\ncheck_bench: OK — {flag[2:]} budgets hold")
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] in ("--voting", "--drift",
                                              "--serve"):
        return run_flag_mode(sys.argv[1], sys.argv[2:])
    if len(sys.argv) == 4 and sys.argv[1] == "--identity":
        return run_flag_mode(sys.argv[1], sys.argv[2:])
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    sync = load(sys.argv[1])
    pipe = load(sys.argv[2])

    missing = sorted(set(sync) ^ set(pipe))
    if missing:
        sys.exit(f"check_bench: label mismatch between files: {missing}")

    failures = []
    total_hidden = 0.0
    print(f"{'label':40s} {'sync_s':>10s} {'pipe_s':>10s} "
          f"{'hidden_s':>10s} {'ratio':>7s}")
    for label in sorted(sync):
        s = sync[label]["parallel_time_s"]
        p = pipe[label]["parallel_time_s"]
        hidden = pipe[label].get("io_hidden_s", 0.0)
        total_hidden += hidden
        ratio = p / s if s > 0 else float("inf")
        print(f"{label:40s} {s:10.4f} {p:10.4f} {hidden:10.4f} {ratio:7.3f}")
        if p > s * TOLERANCE:
            failures.append(f"{label}: pipelined {p:.4f}s > sync {s:.4f}s")

    if total_hidden <= 0.0:
        failures.append("pipelined suite hid zero I/O (io_hidden_s == 0 "
                        "everywhere) — overlap is not happening")

    if len(sys.argv) == 4:
        check_profile(load(sys.argv[3]), failures)

    if failures:
        print("\ncheck_bench: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\ncheck_bench: OK — pipelined <= synchronous at every point"
          + (", profile closes and comm headroom grows with p"
             if len(sys.argv) == 4 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
