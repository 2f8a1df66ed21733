#!/usr/bin/env bash
# Full verification gate: build, lint clean, full test suite, and the
# fault-recovery integration test on its own (the robustness headline).
set -euo pipefail
cd "$(dirname "$0")/.."

# nothing comes from a registry: every package of the build graph is a path
# in this tree, and no manifest outside the frozen crates/benchmark names a
# registry crate — except the one alias under which crates/benchmark finds
# the worker pool
cargo metadata --offline --format-version 1 | python3 -c '
import json, sys
foreign = [p["id"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
if foreign:
    sys.exit(f"verify: packages from outside the tree: {foreign}")
'
registry_names=$(grep -rE 'serde|rand|rayon|proptest|criterion|parking_lot|crossbeam' \
  --include=Cargo.toml . | grep -v '^./crates/benchmark/' || true)
if [ "$registry_names" != './Cargo.toml:rayon = { package = "par", path = "crates/par" }' ]; then
  echo "verify: registry crate names in a manifest: $registry_names"; exit 1
fi

cargo build --release
# production code keeps its `unsafe` in two reviewed places, counted per
# file: the AVX2 dispatch of samr_solvers::euler::sweep, and the worker
# pool's erased closure pointer and slice carrier. Every other crate root
# forbids it (`crates/benchmark` carries its own offline stand-ins and is
# not counted).
unsafe_uses=$(grep -rcw unsafe --include='*.rs' src crates/*/src | grep -v ':0$' \
  | grep -v '^crates/benchmark/' | sort | tr '\n' ' ')
if [ "$unsafe_uses" != "crates/par/src/lib.rs:6 crates/samr-solvers/src/euler.rs:1 " ]; then
  echo "verify: \`unsafe\` outside its allowlist (file:count): $unsafe_uses"; exit 1
fi
# Three source gates, outside crates/benchmark. A file's production part
# ends at its first `#[cfg(test)]` whose item is a `mod` (one on a field or
# a `fn` does not end it); a `pub mod reference` is not production code.
#
# one clock: host time per phase is taken by `metrics::PhaseClock` alone —
# no production line of the engine or the balancer names `Instant`, and no
# production line anywhere opens a `span!`.
#
# one datapath: the retained `reference` implementations are oracles that
# tests compare against, never a path production code can take — no
# production line calls one (`reference::`, `_reference(`).
#
# no dead public surface: a production `pub fn` must be named in code
# somewhere else — in its own file's production part, or in any other .rs
# file under crates/, src/, examples/ or tests/ (comments do not count; nor
# does a `fn` declaring the name, so two same-named `pub fn`s, say a method
# and its `reference` twin, do not keep each other alive; nor does a
# `pub use` statement, since a re-export only passes the name on) — unless
# the allowlist below gives the reason it stays; an allowlisted name that
# gains a use, or that no production `pub fn` declares any more, fails too
#
# All three passed, the heredoc prints the production-line count under the
# same cut: every line of src/ and crates/*/src outside crates/benchmark
# above each file's test module.
python3 - <<'EOF'
import glob, re, sys
from collections import Counter

def test_start(lines):
    """Index of the `#[cfg(test)]` opening a file's test module."""
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            item = next((l for l in lines[i + 1:]
                         if l.strip() and not l.lstrip().startswith("#[")), "")
            if re.match(r"\s*(pub(\([^)]*\))?\s+)?mod\s", item):
                return i
    return len(lines)

def outside_reference(lines):
    """(line number, line) of `lines` outside a `pub mod reference`."""
    in_reference = False
    for n, line in enumerate(lines, 1):
        if line.startswith("pub mod reference"):
            in_reference = True
        elif in_reference and line.startswith("}"):
            in_reference = False
        elif not in_reference:
            yield n, line

def blank_pub_use(lines):
    """`lines` with every (possibly multi-line) `pub use` statement blanked."""
    out, inside = [], False
    for line in lines:
        inside = inside or re.match(r"\s*pub\s+use\b", line) is not None
        out.append("" if inside else line)
        inside = inside and ";" not in line
    return out

files = sorted(set(glob.glob("src/**/*.rs", recursive=True)
                   + glob.glob("crates/**/*.rs", recursive=True)
                   + glob.glob("examples/**/*.rs", recursive=True)
                   + glob.glob("tests/**/*.rs", recursive=True)))
code = {p: [line.split("//")[0] for line in open(p)] for p in files}
production = {p: test_start(lines) for p, lines in code.items()
              if not p.startswith("crates/benchmark/")
              and re.match(r"(crates/[^/]+/)?src/", p)}

bad = [f"{path}:{n}: {line.strip()}"
       for path, end in production.items()
       for n, line in enumerate(code[path][:end], 1)
       if re.search(r"\bspan!", line)
       or (re.match(r"crates/(samr-engine|core)/src/", path)
           and re.search(r"\bInstant\b", line))]
if bad:
    sys.exit("verify: a phase timed outside metrics::PhaseClock:\n" + "\n".join(bad))

bad = [f"{path}:{n}: {line.strip()}"
       for path, end in production.items()
       for n, line in outside_reference(code[path][:end])
       if re.search(r"reference::|_reference\(", line)]
if bad:
    sys.exit("verify: production code calls a reference implementation:\n"
             + "\n".join(bad))

ALLOW = {
    "touched_faces": "FluxRegister: wired into the driver or deleted by ROADMAP item 9",
    "record_coarse": "FluxRegister: wired into the driver or deleted by ROADMAP item 9",
    "record_fine": "FluxRegister: wired into the driver or deleted by ROADMAP item 9",
    "fine_weight": "FluxRegister: wired into the driver or deleted by ROADMAP item 9",
    "correction": "FluxRegister: wired into the driver or deleted by ROADMAP item 9",
}
word = re.compile(r"[A-Za-z_]\w*")
decl = re.compile(r"\s*pub\s+(?:const\s+|unsafe\s+)*fn\s+(\w+)")
fn_name = re.compile(r"\bfn\s+\w+")
# a declaration names nothing: blank the declared name before counting words
uses = {p: [fn_name.sub("fn", line) for line in blank_pub_use(lines)]
        for p, lines in code.items()}
names = {p: Counter(w for line in lines for w in word.findall(line)) for p, lines in uses.items()}
everywhere = sum(names.values(), Counter())
dead, used, declared = [], set(), set()
for path, end in production.items():
    own = Counter(w for line in uses[path][:end] for w in word.findall(line))
    for n, line in outside_reference(code[path][:end]):
        m = decl.match(line)
        if not m:
            continue
        name = m.group(1)
        declared.add(name)
        if own[name] > 0 or everywhere[name] > names[path][name]:
            used.add(name)
        elif name not in ALLOW:
            dead.append(f"{path}:{n}: {name}")
problems = dead + [f"allowlisted `{n}` is named now: drop it from the allowlist"
                   for n in sorted(set(ALLOW) & used)] + [
    f"allowlisted `{n}` is declared by no production `pub fn`: drop it from the allowlist"
    for n in sorted(set(ALLOW) - declared)]
if problems:
    sys.exit("verify: `pub fn` nothing else names (delete it, or allowlist it with a reason):\n"
             + "\n".join(problems))
print(f"verify: {sum(production.values())} production lines")
EOF
# lint clean, and no workspace crate may clone what a borrow would do: on a
# field, a needless clone is a whole extra allocation and copy of its data
cargo clippy --workspace --exclude benchmark --all-targets -- -D warnings -D clippy::redundant_clone
cargo build -p forecast && cargo test -q -p forecast
cargo test -q
cargo test -p samr-engine --test fault_recovery
cargo test -p samr-engine --test crash_recovery
# forecast-gate smoke: the adaptive predictor must not regret more
# redistributions than the reactive baseline (quick-scale ablation)
cargo test -q -p bench --test harness forecast_ablation_adaptive_regrets_no_more_than_reactive

# hotpath smoke: run the throughput benchmark at quick scale (the binary
# itself panics if a repeat's fingerprint differs from the first run's),
# then check the output is well-formed, that
# throughput did not regress >30% against the committed quick-scale
# baseline, and that no single phase (regrid, ghost, restrict, solve) got
# slower than its own baseline — a phase that slows inside a faster total
# is a regression too; the setup (`Driver::new`: level-0 build and initial
# regrid cascade, outside every phase) obeys the same rule; the ghost phase
# must also be the sum of its four parts (to round-off: they are laps of one
# clock), and its exchange-plan build obeys the phase rule.
# Memory: the five repeats of a preset run in one process, so the peak
# resident set (VmHWM) after the last repeat must be within 10 % of the one
# after the first — field memory is given back, not kept from run to run —
# and within 10 % of the committed baseline's (quick-scale VmHWM spreads
# about 2 % run to run; a regrid holding two generations of its finest level
# again reads 15–16 % over on shockpool3d).
# Quick-scale phases last milliseconds, so the binary reports the best of
# five repeats per phase and of the setup. Those spread ±10% from run to
# run on a steady host, and up to 1.95x (solve) on the 2-vCPU box the
# baseline was taken on, whose second core disappears for minutes at a
# time; so a phase fails beyond 2x its baseline plus 1 ms. Re-baseline (on
# the host that runs the gate) with:
#   cargo run --release -p bench --bin hotpath -- --quick \
#     --out results/BENCH_hotpath_baseline.json
cargo run --release -p bench --bin hotpath -- --quick --out results/BENCH_hotpath_quick.json
python3 - <<'EOF'
import json, sys

cur = json.load(open("results/BENCH_hotpath_quick.json"))
base = json.load(open("results/BENCH_hotpath_baseline.json"))
names = [p["name"] for p in cur["presets"]]
if sorted(names) != ["amr64", "shockpool3d"]:
    sys.exit(f"hotpath: unexpected presets {names}")
for p in cur["presets"]:
    for key in ("cell_updates", "peak_patches", "cell_updates_per_sec",
                "wall_secs", "setup_secs", "phases", "ghost_phases", "vm_hwm_mb"):
        if key not in p:
            sys.exit(f"hotpath: preset {p['name']} missing {key}")
    if p["cell_updates_per_sec"] <= 0:
        sys.exit(f"hotpath: {p['name']} reports no throughput")
    b = next(q for q in base["presets"] if q["name"] == p["name"])
    first, last = p["vm_hwm_mb"]["first"], p["vm_hwm_mb"]["last"]
    if last > 1.10 * first:
        sys.exit(
            f"hotpath: {p['name']} VmHWM grew from {first:.2f} MiB after the first "
            f"repeat to {last:.2f} MiB after the last (> 10 %): memory is kept "
            "from run to run"
        )
    if last > 1.10 * b["vm_hwm_mb"]["last"]:
        sys.exit(
            f"hotpath: {p['name']} VmHWM {last:.2f} MiB is > 10 % above the "
            f"committed baseline's {b['vm_hwm_mb']['last']:.2f} MiB"
        )
    floor = 0.7 * b["cell_updates_per_sec"]
    if p["cell_updates_per_sec"] < floor:
        sys.exit(
            f"hotpath: {p['name']} throughput {p['cell_updates_per_sec']:.3e} "
            f"is >30% below the committed baseline {b['cell_updates_per_sec']:.3e}"
        )
    for phase in ("regrid", "ghost", "restrict", "solve"):
        cur_s, base_s = p["phases"][phase], b["phases"][phase]
        if cur_s > 2.0 * base_s + 0.001:
            sys.exit(
                f"hotpath: {p['name']} {phase} phase {cur_s * 1e3:.2f} ms is slower "
                f"than 2x its committed baseline {base_s * 1e3:.2f} ms + 1 ms "
                f"(total throughput {p['cell_updates_per_sec']:.3e} vs "
                f"{b['cell_updates_per_sec']:.3e})"
            )
    cur_s, base_s = p["setup_secs"], b["setup_secs"]
    if cur_s > 2.0 * base_s + 0.001:
        sys.exit(
            f"hotpath: {p['name']} setup {cur_s * 1e3:.2f} ms is slower than 2x "
            f"its committed baseline {base_s * 1e3:.2f} ms + 1 ms"
        )
    # the ghost phase is accounted for by its four parts (plan fetch or
    # rebuild, parent/boundary fill, sibling copy, messages), and the plan
    # build obeys the same rule as the phases
    ghost, parts = p["phases"]["ghost"], p["ghost_phases"]
    if sorted(parts) != ["coarse_fill", "messages", "plan", "sibling"]:
        sys.exit(f"hotpath: {p['name']} ghost_phases has keys {sorted(parts)}")
    if abs(ghost - sum(parts.values())) > 1e-9 * ghost:
        sys.exit(
            f"hotpath: {p['name']} ghost phase {ghost * 1e3:.2f} ms but its "
            f"parts sum to {sum(parts.values()) * 1e3:.2f} ms"
        )
    if parts["plan"] > 2.0 * b["ghost_phases"]["plan"] + 0.001:
        sys.exit(
            f"hotpath: {p['name']} exchange-plan build {parts['plan'] * 1e3:.2f} ms "
            f"is slower than 2x its committed baseline "
            f"{b['ghost_phases']['plan'] * 1e3:.2f} ms + 1 ms"
        )
print("hotpath smoke: ok")
EOF

# telemetry gate: the AMR64 run with a RecordingSink must stay bit-identical
# to the null-handle run, the JSONL export must parse, the exported gate
# counts must equal the RunResult counters, and recording overhead must stay
# <= 2% or inside its own spread: a quick run lasts ~10 ms, so the binary
# interleaves (null, recording) pairs and reports the median of the per-pair
# overheads with their inter-quartile distance. The trace_anatomy example
# must produce a well-formed Chrome trace.
cargo run --release -p bench --bin telemetry -- --quick --out results/BENCH_telemetry_quick.json
cargo run --release --example trace_anatomy >/dev/null
python3 - <<'EOF'
import json, sys

t = json.load(open("results/BENCH_telemetry_quick.json"))
if not t["bit_identical"]:
    sys.exit("telemetry: recording perturbed the simulation")
if not t["counts_match"]:
    sys.exit("telemetry: gate counts disagree with the RunResult counters")
if t["jsonl_lines"] < 2:
    sys.exit("telemetry: JSONL export is empty")
if t["gates"] <= 0 or t["gates"] != t["global_checks"]:
    sys.exit(f"telemetry: gate events {t['gates']} != global checks {t['global_checks']}")
if t["gate_accepts"] != t["global_redistributions"]:
    sys.exit(
        f"telemetry: accepts {t['gate_accepts']} != redistributions "
        f"{t['global_redistributions']}"
    )
if t["overhead_pct"] > max(2.0, t["overhead_iqr_pct"]):
    sys.exit(
        f"telemetry: median recording overhead {t['overhead_pct']:.2f}% over "
        f"{t['pairs']} pairs exceeds max(2%, IQR {t['overhead_iqr_pct']:.2f}%)"
    )
if t.get("metric_series", 0) <= 0:
    sys.exit("telemetry: recording run sampled no metric series")

# the committed canonical (full-scale) report must carry the same schema
# and its quality gates must have held when it was generated
ref = json.load(open("results/BENCH_telemetry.json"))
for key in ("bench", "preset", "wall_null_secs", "wall_recording_secs",
            "overhead_pct", "bit_identical", "jsonl_lines", "gates",
            "gate_accepts", "global_checks", "global_redistributions",
            "dropped_decisions", "metric_series", "anomalies",
            "counts_match"):
    if key not in ref:
        sys.exit(f"telemetry: committed BENCH_telemetry.json missing {key}")
if not ref["bit_identical"] or not ref["counts_match"]:
    sys.exit("telemetry: committed BENCH_telemetry.json fails its own gates")
if ref["metric_series"] <= 0:
    sys.exit("telemetry: committed BENCH_telemetry.json recorded no metric series")

trace = json.load(open("results/trace_anatomy.trace.json"))
events = trace["traceEvents"]
if not events:
    sys.exit("telemetry: trace_anatomy produced an empty Chrome trace")
for e in events:
    for key in ("name", "ph", "pid"):
        if key not in e:
            sys.exit(f"telemetry: trace event missing {key}: {e}")
    if e["ph"] not in ("M", "X", "i", "C"):
        sys.exit(f"telemetry: unexpected phase {e['ph']}")
    if e["ph"] == "X" and (e["dur"] < 0 or e["ts"] < 0):
        sys.exit(f"telemetry: negative span timing: {e}")
    if e["ph"] == "C" and "value" not in e.get("args", {}):
        sys.exit(f"telemetry: counter row without a value: {e}")
phases = {e["ph"] for e in events}
if not {"X", "i", "C"} <= phases:
    sys.exit(f"telemetry: trace lacks spans, instants or counters (saw {sorted(phases)})")
jsonl = [json.loads(l) for l in open("results/trace_anatomy.jsonl")]
if jsonl[0].get("type") != "meta":
    sys.exit("telemetry: JSONL meta line missing")
types = {l.get("type") for l in jsonl}
if not {"phase", "metric"} <= types:
    sys.exit(f"telemetry: JSONL lacks phase/metric aggregate lines (saw {sorted(types)})")
print("telemetry gate: ok")
EOF

# report gate: the analyzer must round-trip a real run's JSONL, stay silent
# on a diff of identical inputs, and flag a seeded synthetic regression
# (recording wall time tripled) with a nonzero exit.
cargo run --release -p bench --bin report -- run results/trace_anatomy.jsonl > /dev/null
if ! diff_out=$(cargo run --release -p bench --bin report -- diff \
    results/BENCH_telemetry_quick.json results/BENCH_telemetry_quick.json); then
  echo "report: diff of identical inputs exited nonzero"; exit 1
fi
if [ -n "$diff_out" ]; then
  echo "report: diff of identical inputs was not silent: $diff_out"; exit 1
fi
python3 - <<'EOF'
import json
t = json.load(open("results/BENCH_telemetry_quick.json"))
t["wall_recording_secs"] = t["wall_recording_secs"] * 3 + 1.0
json.dump(t, open("results/BENCH_telemetry_regressed.json", "w"))
EOF
if cargo run --release -p bench --bin report -- diff \
    results/BENCH_telemetry_quick.json results/BENCH_telemetry_regressed.json > /dev/null; then
  echo "report: seeded synthetic regression was not flagged"; exit 1
fi
rm -f results/BENCH_telemetry_regressed.json
echo "report gate: ok"

# chaos gate: sweep seeded link+proc fault schedules through the invariant
# oracle at quick scale (the binary itself exits nonzero on any violation
# or a vacuous sweep), then re-check the emitted report: every seed's
# violation list must be empty, at least one crash and one evacuation must
# have happened, and the worst MTTR must respect the bound the binary
# derived from the fault-free baseline.
cargo run --release -p bench --bin chaos -- --quick --seeds 16 --out results/BENCH_chaos.json
python3 - <<'EOF'
import json, sys

c = json.load(open("results/BENCH_chaos.json"))
if c["seeds"] < 16:
    sys.exit(f"chaos: only {c['seeds']} seeds swept, need >= 16")
if c["violations"] != 0:
    sys.exit(f"chaos: {c['violations']} oracle violations")
if c["vacuous"] or c["total_crashes"] < 1:
    sys.exit("chaos: sweep was vacuous (no crash happened)")
if c["total_evacuations"] < 1:
    sys.exit("chaos: no evacuation happened")
bound = c["mttr_bound_secs"]
for s in c["seeds_detail"]:
    if s["violations"]:
        sys.exit(f"chaos: seed {s['seed']} violations: {s['violations']}")
    if s["mttr_max_secs"] > bound:
        sys.exit(
            f"chaos: seed {s['seed']} MTTR {s['mttr_max_secs']:.3f}s "
            f"exceeds the {bound:.3f}s bound"
        )
print(f"chaos gate: ok ({c['total_crashes']} crashes, "
      f"{c['total_evacuations']} evacuations, {c['total_rejoins']} rejoins "
      f"across {c['seeds']} seeds)")
EOF

# tenants gate: run the multi-tenant service benchmark at quick scale (the
# binary itself exits nonzero if two runs of the shared clock — one
# recording telemetry — diverge), then check the report is well-formed and
# that tenant-aware admission beats naive static placement on worst-tenant
# p99 step latency under the congested shared-WAN scenario.
cargo run --release -p bench --bin tenants -- --quick --out results/BENCH_tenants_quick.json
python3 - <<'EOF'
import json, sys

t = json.load(open("results/BENCH_tenants_quick.json"))
if not t["bit_identical"]:
    sys.exit("tenants: shared-clock run is not reproducible")
if t["tenants"] < 8:
    sys.exit(f"tenants: only {t['tenants']} concurrent tenants, need >= 8")
scenarios = {s["scenario"]: s for s in t["scenarios"]}
if sorted(scenarios) != ["congested", "quiet"]:
    sys.exit(f"tenants: unexpected scenarios {sorted(scenarios)}")
for name, s in scenarios.items():
    modes = {m["mode"]: m for m in s["modes"]}
    if sorted(modes) != ["aware", "static"]:
        sys.exit(f"tenants: scenario {name} has modes {sorted(modes)}")
    for mode, m in modes.items():
        if len(m["tenants"]) != t["tenants"]:
            sys.exit(f"tenants: {name}/{mode} reports {len(m['tenants'])} tenants")
        for row in m["tenants"]:
            for key in ("priority", "groups", "steps", "cell_updates",
                        "total_secs", "p50_step_secs", "p99_step_secs",
                        "migrations"):
                if key not in row:
                    sys.exit(f"tenants: {name}/{mode} tenant row missing {key}")
            if row["steps"] <= 0 or row["p99_step_secs"] < row["p50_step_secs"]:
                sys.exit(f"tenants: {name}/{mode} tenant {row['tenant']} malformed")
        if m["aggregate_cell_updates_per_sec"] <= 0:
            sys.exit(f"tenants: {name}/{mode} reports no throughput")
cong = {m["mode"]: m for m in scenarios["congested"]["modes"]}
aware, static = cong["aware"], cong["static"]
if aware["worst_p99_step_secs"] > static["worst_p99_step_secs"]:
    sys.exit(
        f"tenants: aware p99 {aware['worst_p99_step_secs']:.4f}s is worse than "
        f"static placement {static['worst_p99_step_secs']:.4f}s under congestion"
    )
print(f"tenants gate: ok (congested p99: aware {aware['worst_p99_step_secs']:.4f}s "
      f"<= static {static['worst_p99_step_secs']:.4f}s, "
      f"{aware['migrations']} migrations)")
EOF

# scale gate: federation-scale decision sweep at quick scale (the binary
# itself exits nonzero if the arity-8 tree ends a run >10% worse balanced
# than the flat reference, the same routine with the tree pinned to one
# node), then check the schema and the scaling claims: the tree's decision
# bookkeeping must stay O(G) while the flat reference touches all O(G²)
# pairs; up to the arity both rows are the same one-node tree, so every
# simulated column must agree, simulated time included; beyond it a flat
# row is still one node — one decision per check; the
# decision wall must be accounted for by its three parts (local balancing,
# deciding, migrating: within 5 %) and the ghost wall by its four (plan,
# parent fill, sibling copy, messages), and the hierarchical *deciding* wall —
# upsweep, probes, gate; not the migrations the tree accepts and the flat
# path never makes — must stay sublinear in group count.
cargo run --release -p bench --bin scale -- --quick --out results/BENCH_scale_quick.json
python3 - <<'EOF'
import json, sys

s = json.load(open("results/BENCH_scale_quick.json"))
rows = s["sweep"]
for r in rows:
    for key in ("groups", "procs", "mode", "decision_secs_per_step",
                "local_dlb_secs_per_step", "decide_secs_per_step",
                "migrate_secs_per_step", "ghost_secs_per_step",
                "ghost_plan_secs_per_step", "ghost_coarse_fill_secs_per_step",
                "ghost_sibling_secs_per_step", "ghost_messages_secs_per_step",
                "msgs_per_decision", "decision_msgs", "estimator_pairs",
                "final_imbalance", "global_checks", "redistributions",
                "total_secs", "wall_secs"):
        if key not in r:
            sys.exit(f"scale: sweep row missing {key}: {r}")
hier = {r["groups"]: r for r in rows if r["mode"] == "hierarchical"}
flat = {r["groups"]: r for r in rows if r["mode"] == "flat"}
if sorted(hier) != [2, 4, 8, 16, 32, 64] or sorted(flat) != sorted(hier):
    sys.exit(f"scale: unexpected sweep points {sorted(hier)}")
# at or below the tree arity both modes build the same one-node tree: they
# must report identical decision traffic, outcomes and simulated time
for g in (2, 4, 8):
    for key in ("msgs_per_decision", "decision_msgs", "estimator_pairs",
                "final_imbalance", "global_checks", "redistributions",
                "total_secs"):
        if hier[g][key] != flat[g][key]:
            sys.exit(f"scale: G={g} hierarchical {key} {hier[g][key]} != "
                     f"flat {flat[g][key]} (small-G equivalence broken)")
# "one node" observed: beyond the arity a flat row still resolves exactly
# one node per check, i.e. one decision per level-0 step
for g, r in flat.items():
    steps = r["decision_msgs"] / r["msgs_per_decision"]
    if g > 8 and r["global_checks"] != steps:
        sys.exit(f"scale: flat G={g} made {r['global_checks']} decisions in "
                 f"{steps:.0f} checks (the flat reference is not one node)")
for g, r in hier.items():
    if r["estimator_pairs"] > 8 * g:
        sys.exit(f"scale: G={g} hierarchical estimator pairs "
                 f"{r['estimator_pairs']} are not O(G)")
    if r["msgs_per_decision"] > 16 * g + 32:
        sys.exit(f"scale: G={g} hierarchical decision traffic "
                 f"{r['msgs_per_decision']:.0f} msgs/step is not O(G)")
if flat[64]["estimator_pairs"] != 64 * 63 // 2:
    sys.exit(f"scale: flat G=64 estimator pairs {flat[64]['estimator_pairs']} "
             f"!= all {64 * 63 // 2} pairs")
if flat[64]["msgs_per_decision"] < 64 * 63:
    sys.exit("scale: flat G=64 decision traffic is not all-pairs")
for g, r in hier.items():
    if r["final_imbalance"] > 1.10 * flat[g]["final_imbalance"]:
        sys.exit(f"scale: G={g} hierarchical final imbalance "
                 f"{r['final_imbalance']:.4f} is >10% worse than flat "
                 f"{flat[g]['final_imbalance']:.4f}")
for r in rows:
    whole = r["decision_secs_per_step"]
    parts = (r["local_dlb_secs_per_step"] + r["decide_secs_per_step"]
             + r["migrate_secs_per_step"])
    if abs(whole - parts) > 0.05 * whole:
        sys.exit(f"scale: G={r['groups']} {r['mode']} decision wall "
                 f"{whole:.4f}s/step but its parts sum to {parts:.4f}")
    # laps of one clock: the parts sum to the ghost wall to round-off
    whole = r["ghost_secs_per_step"]
    parts = sum(r[f"ghost_{k}_secs_per_step"]
                for k in ("plan", "coarse_fill", "sibling", "messages"))
    if abs(whole - parts) > 1e-9 * whole:
        sys.exit(f"scale: G={r['groups']} {r['mode']} ghost wall "
                 f"{whole:.4f}s/step but its parts sum to {parts:.4f}")
w8 = hier[8]["decide_secs_per_step"]
w64 = hier[64]["decide_secs_per_step"]
if w64 > 4 * max(w8, 0.02):
    sys.exit(f"scale: G=64 deciding wall {w64:.4f}s/step is not sublinear "
             f"vs G=8 {w8:.4f}s/step")
print(f"scale gate: ok (hier G=64: {hier[64]['msgs_per_decision']:.0f} "
      f"msgs/step, {hier[64]['estimator_pairs']} pairs vs flat "
      f"{flat[64]['msgs_per_decision']:.0f} msgs, "
      f"{flat[64]['estimator_pairs']} pairs)")
EOF
