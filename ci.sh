#!/usr/bin/env sh
# Local CI gate: build, full test suite, lints, a seeded fuzz smoke
# campaign, and a timed mini-sweep. Everything is offline and
# deterministic; a clean exit here is the bar for merging.
set -eux

cargo build --release
# Wall-clock budget on the full suite: the conformance/checker layer must
# not let CI creep — fail loudly the moment the suite crosses 900s.
t0=$(date +%s)
cargo test --workspace -q
t1=$(date +%s)
test $((t1 - t0)) -le 900 || {
    echo "FAIL: test suite took $((t1 - t0))s, budget is 900s" >&2
    exit 1
}
cargo clippy --workspace --all-targets -- -D warnings
# The repo benchmark is a workspace of its own, so nothing above builds it:
# its tests pin the simulator's rows (`pinned_rows_match_the_simulator`),
# the split loop's equality with `Machine::run`, and the public `Core`/`Rob`
# surface it compiles against — a kernel change that bends a row fails here,
# not in the post-merge benchmark run. Building it rewrites
# `benchmark/Cargo.lock` (the committed file still lists two packages the
# crate no longer uses), so the committed file goes back afterwards, on
# failure too.
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
trap 'cp target/benchmark-Cargo.lock benchmark/Cargo.lock' EXIT
cargo test --offline --release --manifest-path benchmark/Cargo.toml
cp target/benchmark-Cargo.lock benchmark/Cargo.lock
trap - EXIT
# Nothing but `fa_sim::env` reads the environment: it is the one door, so
# every knob is in its table, parsed loudly and visible to drivers.
# (`set -e` ignores a failing `!` pipeline, hence the explicit exit.)
! grep -rn 'std::env::var' crates/core/src crates/mem/src crates/trace/src crates/isa/src \
    crates/workloads/src crates/bench/src || exit 1
! grep -rn 'std::env::var' crates/sim/src --exclude=env.rs || exit 1
# One campaign engine, one row form: the deleted duplicates stay deleted.
! grep -rnE 'fn (run_grid|measure|measure_parallel|try_run_workload|run_workload|run_once|run_cells_supervised|json_full)\b|SweepReport::new' crates src || exit 1
# Every table rides that engine, `fa ablation` included: the single-run
# path and the serial `smoke`/`diag` commands it fed stay deleted
# (`Core::diag` and `MemorySystem::diag`, the machine snapshots, are another
# thing), and no figure builds a machine of its own. An ablation axis is a
# machine field, which a sweep cell carries as its typed override
# (`SweepCell::ablation`), so no driver fans cells out on the raw worker
# pool (`run_cells`, private to `fa_sim`) and the per-axis closure is gone.
! grep -rn 'run_once_checked' crates src || exit 1
! grep -rnE 'fn (smoke|diag)\b|command\("(smoke|diag)"' crates/bench/src src || exit 1
! grep -n 'Machine::new' crates/bench/src/figures.rs crates/bench/src/lib.rs || exit 1
! grep -rnw 'run_cells\|ablation_axis' crates/bench src || exit 1
# One campaign per command: a figure is data, so `fa fig` measures every
# selected figure's distinct cells in the one `run_grid_supervised` call of
# `figures::run` and merges no per-point reports; a cell carries its own
# fault-injection seed, so the options have none.
sed '/^#\[cfg(test)\]/,$d' crates/bench/src/figures.rs > target/figures_src.txt
test "$(grep -c 'run_grid_supervised(' target/figures_src.txt)" -eq 1
! grep -n '\.merge(' target/figures_src.txt || exit 1
! sed -n '/^pub struct BenchOpts/,/^}/p' crates/bench/src/lib.rs | grep -n 'chaos' || exit 1
# No public surface that nothing calls: the disassembler, the instruction
# classes and their histogram, and the predicates and accessors no
# production code read stay deleted.
! grep -rnwE 'disasm|disasm_program|disasm_instr|InstrClass|class_histogram|is_release|is_control|accesses_overlap|is_atomic_part|next_line|is_busy|backing_mut|has_parked|speculative_atomics' \
    crates src tests examples || exit 1
# Nothing computed that nothing reads: the hot-lock report, the write-only
# counters, the AQ entry's forward-source flag and the progress policy
# object stay deleted (the directory's two rescue constants are the only
# rescue).
! grep -rnwE 'HotLock|hot_locks|HOT_LOCKS|lock_acct|ProgressPolicy|needs_rescue|from_atomic|load_forwards|aq_full_stalls|invals_received|parked_busy|invals_sent|downgrades_sent|alloc_waits' crates src tests examples || exit 1
! grep -rnE 'sum (pauses|prefetches|evictions|requests):' crates || exit 1
# One message type on one inbox per core (`CoreMsg`): the response/notice
# split, its second drain and the two fields nothing read stay deleted.
! grep -rnwE 'CoreNotice|CoreResp|drain_notices|drain_responses|remote_write' crates src tests examples || exit 1
# A failed run is one `SimError::Run` with its snapshot boxed once: no
# outer box, no size allow, no separate timeout type.
! grep -rnE 'result_large_err|RunTimeout|Box<SimError>|map_err\(Box::new\)' crates src tests examples || exit 1
# A campaign is a pure function of its inputs: no wall-clock watchdog, no
# thread-local deadline, no retries — a failed cell is quarantined once.
! grep -rnwE 'set_wall_deadline|wall_deadline_expired|WALL_DEADLINE|WallTimeout|CellQuarantine|CellBudget|FA_RETRIES' crates src tests examples README.md || exit 1
# One reader for a run's options: the cell budget is a `BenchOpts` field,
# and escalation is its thresholds — no on/off switch, no knob for it.
! grep -rnwE 'FA_PROGRESS|parse_progress|budget_cycles' crates src tests examples README.md || exit 1
! grep -rnE 'progress\.enabled|SupervisorOpts::from_env' crates src tests examples || exit 1
# One crossbar, every counter declared once, one trace walk per layer.
! grep -rnE 'dyn Interconnect|trait Interconnect|IdealXbar|ContendedXbar|stat_(l1_hits|l2_hits|stores)\b|fn (trace_tails|trace_events_tail|trace_records)\b' crates src || exit 1
# The suite is one table and the litmus op one enum: the macro and the
# copying shim stay deleted, and no workload name is written a second time
# beside its `SUITE` row (the one-word string literals of the non-test part
# of suite.rs are exactly the 26 names).
! grep -rn 'suite_entry!\|fn to_tso_threads' crates || exit 1
sed '/#\[cfg(test)\]/,$d' crates/workloads/src/suite.rs | grep -oE '"[A-Za-z_]+"' | sort \
    > target/suite_names.txt
test "$(wc -l < target/suite_names.txt)" -eq 26
test -z "$(uniq -d target/suite_names.txt)"
# One reference machine, no vendored code, no dependency that does nothing:
# the serde and proptest stubs, the twin enumerators, the test-local
# operational machines (`tsoref::walk` replaced them) and `conformance`'s
# private grid loop stay deleted. Grep only paths that exist: a missing one
# makes grep exit 2, which `!` would turn into a pass.
test ! -e vendor
! grep -rn 'serde' Cargo.toml crates src --include='*.rs' --include='Cargo.toml' || exit 1
! grep -rn 'proptest' Cargo.toml Cargo.lock crates src tests || exit 1
! grep -rnE 'enumerate_(tso|weak)_outcomes|struct WeakState|fn conformance_config|fn run_operational_' \
    crates tests || exit 1
# Host memory follows what a cell touches: no per-call action vectors, no
# heap block per cache set or per ROB position, no per-sweep hash map (the
# tag array's reference model spells its type through an alias).
! grep -nE 'let mut (acts|dout) = Vec::new\(\)' crates/mem/src/system.rs || exit 1
! grep -nE 'Vec<Vec<' crates/mem/src/tagarray.rs crates/core/src/sched.rs || exit 1
! grep -rn 'HashMap<Line, (Vec' crates/mem/src || exit 1
# A resident directory line costs its stable state only: a transaction and
# the requests parked behind it live in the directory's transaction table,
# so the non-test body of `struct DirEntry` names neither `Txn` nor
# `VecDeque`.
sed '/#\[cfg(test)\]/,$d' crates/mem/src/dir.rs | sed -n '/^struct DirEntry {/,/^}/p' > target/dir_entry.txt
test -s target/dir_entry.txt || exit 1
! grep -nE 'Txn|VecDeque' target/dir_entry.txt || exit 1
# A campaign run stops paying the allocator: each fuzz worker keeps one
# machine and resets it in place, so the non-test part of fuzz.rs builds
# none per run (no `Machine::new`, no `run_checked`); a run's conformance
# check reads the cores' data logs and the memory system's serialization
# log where they are, not the copy `execution()` makes; and `Machine::new`
# is a reset of empty storage, so the machine has one initialiser.
sed '/#\[cfg(test)\]/,$d' crates/sim/src/fuzz.rs > target/fuzz_src.txt
! grep -nE 'Machine::new|run_checked' target/fuzz_src.txt || exit 1
sed -n '/    pub fn run(&mut self/,/^    }$/p;/    pub(crate) fn run_to_quiescence(/,/^    }$/p' \
    crates/sim/src/machine.rs > target/run_fn.txt
grep -q 'self\.checker\.check(' target/run_fn.txt
! grep -n 'execution()' target/run_fn.txt || exit 1
sed -n '/    pub fn new(cfg: MachineConfig/,/^    }$/p' crates/sim/src/machine.rs | grep -q '\.reset('
# The guest image is paged on first store: no dense zeroed store, and no
# derived equality, which would call an untouched page different from one
# stored to 0.
! grep -nE 'words: Vec<Word>|vec!\[0; bytes' crates/isa/src/interp.rs || exit 1
! grep -B2 'pub struct GuestMem' crates/isa/src/interp.rs | grep 'PartialEq' || exit 1
grep -q 'impl PartialEq for GuestMem' crates/isa/src/interp.rs
# The hot maps hash with the in-repo `FxHasher`, not SipHash: the map owners
# of the memory system, the axiomatic checker and the enumerator's `seen` set
# build no default-hasher map outside their tests.
for f in crates/mem/src/privcache.rs crates/mem/src/dir.rs crates/mem/src/progress.rs \
    crates/mem/src/system.rs crates/sim/src/axiom.rs crates/sim/src/tsoref.rs; do
    ! sed '/#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'Hash(Map|Set)::new\(\)|Hash(Map|Set)::with_capacity\(|HashSet::from\(' \
        || exit 1
done
# Nothing polls: rule (a) was rewritten, not appended to; the blocking
# rules are written once (`Lsq::load_blocker`, which the issue path and the
# debug oracle both go through), and the fence block is one definition and
# its one call, both in `lsq.rs`, which owns the fence list.
! grep -n 're-attempted \*every' DESIGN.md || exit 1
sed '/#\[cfg(test)\]/,$d' crates/core/src/lsq.rs > target/lsq_src.txt
grep -q 'fn load_blocker' target/lsq_src.txt
test "$(grep -c 'blocked_by_fence(' target/lsq_src.txt)" -eq 2
test "$(grep -c 'fn blocked_by_fence(' target/lsq_src.txt)" -eq 1
! grep -rn --exclude=lsq.rs 'blocked_by_fence(' crates/core/src || exit 1
# The load/store queue has one owner, `lsq.rs`: no other non-test code of
# the core reaches its load queue, store queue or store buffer, and the
# scheduler's struct names neither queue nor the fence list.
for f in crates/core/src/*.rs; do
    case "$f" in */lsq.rs) continue ;; esac
    ! sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\.(lq|sq|sb)\b' || exit 1
done
sed -n '/^pub(crate) struct Sched {/,/^}/p' crates/core/src/sched.rs > target/sched_struct.txt
test -s target/sched_struct.txt || exit 1
! grep -nwE 'lq|sq|fences' target/sched_struct.txt || exit 1
# Every memory-ordering rule has one owner: `order.rs` stays folded into
# `lsq.rs`, and a fence commit raises no event of its own (every retire
# raises `CommitOrDrain`).
test ! -e crates/core/src/order.rs
! grep -rn 'FenceCommit' crates || exit 1
# One load state (`lsq::LoadState`, the field `Entry::load`): the fields it
# replaced stay deleted; the repairs' victim searches are `Lsq` methods, not
# hand-rolled scans of `core.rs`; and both read one per-state table, so
# `LoadState::Forwarded` appears once in the non-test part of `lsq.rs`.
test "$(grep -cE 'fn (mem_order_victim|inval_victim)\b' target/lsq_src.txt)" -eq 2
! grep -rnE --exclude=lsq.rs 'fn (mem_order_victim|inval_victim)\b' crates || exit 1
test "$(grep -c 'LoadState::Forwarded' target/lsq_src.txt)" -eq 1
! grep -rnE 'MemPhase|\.(mem|fwd_from|fwd_kind|local_wp|poisoned)\b' crates/core/src || exit 1
! grep -nE 'fn (speculatively_bound|squash_performed_loads_on|weak_squash_required)\b' \
    crates/core/src/core.rs || exit 1
# One clock: the idle skip, the stall skip and fast-forward stay folded into
# `Core::due`, `Core::skip` and the one jump. Every credited cycle takes the
# leaf `account_cycle` takes (`cycle_leaf`), read by `Core::stall_leaf`:
# neither `skip` nor the machine's bulk credit names a leaf of its own, and
# every leaf a lane records is a `stall_leaf`.
! grep -rnE 'fn (core_skippable|try_fast_forward|idle_skippable|credit_idle_cycles|stall_cycle)\b' crates || exit 1
sed -n '/pub fn skip(/,/^    }$/p' crates/core/src/core.rs > target/skip_fn.txt
grep -q 'self\.stats\.cpi\.add(leaf, n)' target/skip_fn.txt
! grep -n 'CpiLeaf::' target/skip_fn.txt || exit 1
sed -n '/pub fn stall_leaf(/,/^    }$/p' crates/core/src/core.rs | grep -q 'self\.cycle_leaf(false, mem)'
sed -n '/fn account_cycle(/,/^    }$/p' crates/core/src/core.rs | grep -q 'self\.cycle_leaf('
sed '/#\[cfg(test)\]/,$d' crates/sim/src/machine.rs > target/machine_src.txt
! grep -n 'CpiLeaf::' target/machine_src.txt || exit 1
grep -q 'leaf = .*stall_leaf(' target/machine_src.txt
test "$(grep -E '\.leaf = ' target/machine_src.txt | grep -vc 'stall_leaf(')" -eq 0
# One retire rule (`Core::head_retires`): the store-buffer hold of an RMW or
# an ordering fence is written once, in `Lsq::held_by_sb`, which commit, the
# stall horizon, the debug stall oracle and the cycle leaf all go through.
sed '/#\[cfg(test)\]/,$d' crates/core/src/core.rs > target/core_src.txt
test "$(grep -c 'Fence(FenceKind::Standalone)' target/lsq_src.txt)" -eq 1
test "$(grep -c 'fn held_by_sb(' target/lsq_src.txt)" -eq 1
test "$(grep -c 'head_retires()' target/core_src.txt)" -eq 3
! grep -n 'head\.done)' target/core_src.txt || exit 1
# One watchdog arming rule (`Core::watchdog_armed`), which the counter, the
# stall horizon and the debug stall oracle all read.
test "$(grep -c 'any_locked()' target/core_src.txt)" -eq 1
test "$(grep -c 'watchdog_armed()' target/core_src.txt)" -eq 3
# The memory system calls into a cache only when something happened to it:
# its tick retries exactly the caches an unlock made due (a mask, not a walk
# of every cache), and no jump re-clocks every cache.
sed -n '/    pub fn tick(&mut self) {/,/^    }$/p' crates/mem/src/system.rs > target/mem_tick_fn.txt
grep -q 'self\.retry_due' target/mem_tick_fn.txt
! grep -n 'caches' target/mem_tick_fn.txt || exit 1
! grep -n 'any(PrivCache::retry_due)' crates/mem/src/system.rs || exit 1
sed -n '/    pub fn skip_to(/,/^    }$/p' crates/mem/src/system.rs | grep -q 'self\.now = cycle'
! sed -n '/    pub fn skip_to(/,/^    }$/p' crates/mem/src/system.rs | grep -n 'caches' || exit 1
# Audited chaos runs jump too: storms and the lock-hold bound are clock
# events, so the crossbar keeps no fast-forward test of its own and the jump
# never asks whether the auditor is armed.
! grep -n 'fn fast_forwardable' crates/mem/src/noc.rs || exit 1
sed -n '/    fn jump(/,/^    }$/p' crates/sim/src/machine.rs > target/jump_fn.txt
grep -q 'fn jump(' target/jump_fn.txt
! grep -n 'audit' target/jump_fn.txt || exit 1
# Each coherence rule written once: stalled fills wake on the unlock that
# frees their way (no backoff), one no-commit watchdog (`core-commit`), one
# audit cadence, one core response handler, and one directory grant (the
# non-test part of dir.rs builds `L1Msg::GrantX` in exactly one place).
! grep -rnE 'backoff_delay|backoff_cap|next_retry|max_core_stall|sweep_every|handle_idle_responses|AuditViolation::NoProgress' \
    crates src tests || exit 1
test "$(sed '/#\[cfg(test)\]/,$d' crates/mem/src/dir.rs | grep -c 'L1Msg::GrantX')" -eq 1
# One record of a held lock (`PrivCache::locks`, which the lock-hold bound
# reads), and no settable value that nobody sets: the auditor's shadow lock
# list, the trace caps and the store-prefetch switch stay deleted.
! grep -rnE 'struct LiveLock|lock_ages|audit_locks|full_cap|store_prefetch_at_commit' \
    crates src tests || exit 1
# One JSON codec (`fa_trace::Json`: `Display` writes, `Json::parse` reads):
# the hand-rolled writers and substring scanners stay deleted, and the
# line-oriented journal format is gone with them.
! grep -rnE 'fn (json_object|json_u64_array|json_escape|str_field|u64_field|parse_health|args_json)\b' \
    crates src tests || exit 1
! grep -rn 'fa-checkpoint-v1' crates || exit 1
# One stats registry (`fa_trace::counters!`): a counter block's merge and
# JSON derive from its declaration, so the hand-written merges, roll-ups and
# health codec stay deleted and no merge line sits beside a declaration.
! grep -rnE 'merge_health|struct RowCpi|fn note_rescue|fn agg\(|total_demand_reads' crates src tests \
    || exit 1
! grep -n 'fn apki' crates/sim/src/machine.rs || exit 1
for f in crates/core/src/stats.rs crates/mem/src/stats.rs; do
    ! sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\+= o\.|\.max\(o\.' || exit 1
done
# One driver binary, built once here (`cargo build --release` above builds
# only the root package) and reached directly by every smoke below.
! ls crates/bench/src/bin | grep -vx 'fa.rs' || exit 1
cargo build --release -p fa-bench
FA=./target/release/fa
# One knob table: every "FA_*" literal under crates/ is a row of it, the
# README quotes `fa knobs` verbatim, and the knob the `report` positional
# argument made redundant stays deleted (CHANGES.md, ROADMAP.md's
# "Recent" log and the issue text are history, not documentation).
$FA knobs > target/knobs.txt
sed -n '/^| variable | default /,/^$/p' README.md | sed '/^$/d' | diff - target/knobs.txt
grep -oE 'FA_[A-Z_]+' target/knobs.txt | sort -u > target/knob_names.txt
! grep -rhoE '"FA_[A-Z_]+"' crates --include='*.rs' | tr -d '"' | sort -u \
    | grep -vxFf target/knob_names.txt || exit 1
! grep -rn 'FA_REPORT_BASELIN[E]' . --exclude-dir=.git --exclude-dir=target \
    --exclude-dir=.bench_build --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md \
    || exit 1
# Differential litmus fuzzing under fault injection (seeded — replayable).
# The summary line is pinned whole: these runs are audited under chaos and
# the clock jumps through them, so a jump that moved any outcome shows up
# as a different count of distinct outcomes.
FA_FUZZ_CASES=100 FA_FUZZ_SEED=193459 $FA fuzz > target/fuzz_tso.txt
grep -qx 'fuzz: 100 cases, 400 runs, 57 distinct legal outcomes, 0 failures' target/fuzz_tso.txt
# The knobs reach the fuzzer: the same campaign on the weak machine runs
# clean against the weak enumerator and says so in its header.
FA_MODEL=weak FA_FUZZ_CASES=100 FA_FUZZ_SEED=193459 $FA fuzz > target/fuzz_weak.txt
grep -q '^# fuzz: .*model=weak' target/fuzz_weak.txt
grep -qx 'fuzz: 100 cases, 400 runs, 58 distinct legal outcomes, 0 failures' target/fuzz_weak.txt
# The mini-sweep sizing every smoke below shares. `env` lets a step append
# or override variables (`mini FA_MODEL=weak $FA sweep`); a command ignores
# the axes it does not read (`conformance`: runs, drop, policies, presets;
# the cpistack and weak-baseline figures: policies, presets).
mini() {
    env FA_CORES=2 FA_SCALE=0.05 FA_RUNS=2 FA_DROP=0 FA_WORKLOADS=TATP,PC \
        FA_POLICIES=baseline,FreeAtomics+Fwd FA_PRESETS=tiny "$@"
}
# Timed mini-sweep on the campaign engine: 2 kernels x 2 policies, writing
# the BENCH_sweep.json throughput report, then sanity-check its shape. Each
# cell prints its representative run's counters on stdout.
mini FA_BENCH_JSON=target/BENCH_sweep.json $FA sweep > target/sweep.txt
grep -c ': cycles=' target/sweep.txt | grep -qx 4
grep -q '"schema": "fa-sweep-v1"' target/BENCH_sweep.json
grep -c '"kernel":' target/BENCH_sweep.json | grep -qx 4
# Every row must carry the latency-histogram block.
grep -c '"hists":{"atomic_exec":' target/BENCH_sweep.json | grep -qx 4
# ... and the cycle-accounting block (the report bin's input).
grep -c '"cpi":{"core_cycles":' target/BENCH_sweep.json | grep -qx 4
# CPI-stack driver smoke: the fig-14 grid rendered as top-down cycle
# accounting, writing its own artifact with the cpi blocks.
mini FA_BENCH_JSON=target/BENCH_cpistack.json $FA fig cpistack > target/cpistack.txt
grep -q '"cpi":{"core_cycles":' target/BENCH_cpistack.json
grep -q 'atomic-lifetime attribution' target/cpistack.txt
# The four characterization tables are campaigns too: each writes a report
# with one row per cell (Fig. 1 runs two presets, Fig. 13 two policies).
for f in fig01_atomic_cost:4 fig12_apki:2 table2_characterization:2 fig13_locality:4; do
    mini FA_BENCH_JSON=target/BENCH_${f%:*}.json $FA fig "${f%:*}" > target/${f%:*}.txt
    grep -c '"kernel":' target/BENCH_${f%:*}.json | grep -qx "${f#*:}"
done
# Every table at once is one campaign over the distinct cells the tables
# read: one timing line, and one report with each of the 30 distinct rows
# once (the nine per-figure reports would hold 60).
mini FA_BENCH_JSON=target/BENCH_fig_all.json $FA fig all > target/fig_all.txt
test "$(grep -c '^sweep:' target/fig_all.txt)" -eq 1
grep -c '"kernel":' target/BENCH_fig_all.json | grep -qx 30
# The ablation tables are one campaign too: 3 axes x 4 values x 2 kernels,
# every row tagged with its override and keyed apart by `report`.
mini FA_BENCH_JSON=target/BENCH_ablation.json $FA ablation > target/ablation.txt
test "$(grep -c '^## Ablation' target/ablation.txt)" -eq 3
grep -c '"ablation":"' target/BENCH_ablation.json | grep -qx 24
$FA report target/BENCH_ablation.json target/BENCH_ablation.json > target/report_ablation.txt
grep -q 'verdict: OK — 24 cell(s) compared' target/report_ablation.txt
# Differential bottleneck report smoke 1 — passivity: a report diffed
# against itself is clean and exits 0.
$FA report target/BENCH_sweep.json target/BENCH_sweep.json > target/report_self.txt
grep -q 'verdict: OK' target/report_self.txt
# Report smoke 2 — deliberate regression: inflate one taxonomy leaf of one
# row by 10% of its total cycles; the diff must name the leaf and exit 2.
python3 - <<'EOF'
import re
lines = open("target/BENCH_sweep.json").read().splitlines(True)
out, done = [], False
for ln in lines:
    if not done and '"cpi":{"core_cycles":' in ln:
        total = int(re.search(r'"core_cycles":(\d+)', ln).group(1))
        bump = max(total // 10, 200)
        ln = re.sub(r'("rob_full":)(\d+)',
                    lambda m: m.group(1) + str(int(m.group(2)) + bump), ln, count=1)
        done = True
    out.append(ln)
assert done, "no cpi row found to inflate"
open("target/BENCH_sweep_regressed.json", "w").writelines(out)
EOF
rc=0
$FA report target/BENCH_sweep.json target/BENCH_sweep_regressed.json \
    > target/report_regressed.txt || rc=$?
test "$rc" -eq 2
grep -q 'leaf rob_full:' target/report_regressed.txt
grep -q 'verdict: REGRESSED' target/report_regressed.txt
# Axiomatic TSO conformance smoke: 2 kernels x 4 policies x {ideal,
# contended} x {chaos off, on}, full-execution checker armed on every run.
# The bin exits nonzero on any violation; the grep keeps the gate loud even
# if its exit-code plumbing ever regresses.
mini $FA conformance > target/conformance.txt
grep -q 'conformance: 32 runs' target/conformance.txt
grep -q 'violations: 0, other failures: 0' target/conformance.txt
# Checker-transparency gate: the same mini-sweep with FA_CHECK=tso must
# reproduce the FA_CHECK=off golden rows bit-for-bit, modulo the appended
# "checked" marker — which must be present on every row.
mini FA_BENCH_JSON=target/BENCH_sweep_checked.json FA_CHECK=tso $FA sweep
grep -c ',"checked":true' target/BENCH_sweep_checked.json | grep -qx 4
grep '"kernel":' target/BENCH_sweep_checked.json | sed 's/,"checked":true//' \
    > target/sweep_rows_checked.txt
grep '"kernel":' target/BENCH_sweep.json > target/sweep_rows_off.txt
diff target/sweep_rows_checked.txt target/sweep_rows_off.txt
# Model-transparency gate: FA_MODEL=tso must reproduce the default rows
# bit-for-bit (no tag, no drift) — the weak-memory frontend is passive on
# TSO — while FA_MODEL=weak must tag every row with the model marker.
mini FA_BENCH_JSON=target/BENCH_sweep_tso.json FA_MODEL=tso $FA sweep
grep '"kernel":' target/BENCH_sweep_tso.json > target/sweep_rows_tso.txt
diff target/sweep_rows_tso.txt target/sweep_rows_off.txt
mini FA_BENCH_JSON=target/BENCH_sweep_weak.json FA_MODEL=weak $FA sweep
grep -c ',"model":"weak"' target/BENCH_sweep_weak.json | grep -qx 4
# Weak-model conformance smoke: the same full-execution grid on the
# acquire/release-native machine, validated against the parameterized
# weak axioms (and the memlog litmus suite already ran under
# `cargo test` above).
mini FA_MODEL=weak $FA conformance > target/conformance_weak.txt
grep -q 'conformance: 32 runs' target/conformance_weak.txt
grep -q 'violations: 0, other failures: 0' target/conformance_weak.txt
# Weak-baseline figure smoke: TSO + weak grids, residual-speedup table.
mini FA_BENCH_JSON=target/BENCH_weak_baseline.json $FA fig fig_weak_baseline \
    > target/weak_baseline.txt
grep -q 'residual' target/weak_baseline.txt
grep -q ',"model":"weak"' target/BENCH_weak_baseline.json
# Network-sensitivity smoke: ideal vs contended crossbar on one kernel.
# Contended rows must carry the per-link `net` stats block.
mini FA_WORKLOADS=PC FA_BENCH_JSON=target/BENCH_fig16.json $FA fig fig16_network_sensitivity
grep -q '"schema": "fa-sweep-v1"' target/BENCH_fig16.json
grep -q '"net":{"policy":"contended"' target/BENCH_fig16.json
grep -q '"queue_hist":\[' target/BENCH_fig16.json
grep -q '"req_util":\[' target/BENCH_fig16.json
# The report keys its four NoC points apart: a self-diff compares
# each of the 8 rows with itself.
$FA report target/BENCH_fig16.json target/BENCH_fig16.json > target/report_fig16.txt
grep -q 'verdict: OK — 8 cell(s) compared' target/report_fig16.txt
# Supervision smoke 1 — wedged cell: an impossible 200-cycle budget must
# quarantine every cell (structured failure in the report's quarantine
# block) while the campaign itself completes and exits 2, not 1, not 0.
rc=0
mini FA_CELL_BUDGET=200 FA_BENCH_JSON=target/BENCH_sweep_wedged.json \
    $FA sweep || rc=$?
test "$rc" -eq 2
grep -q '"quarantine"' target/BENCH_sweep_wedged.json
grep -q 'did not quiesce within 200 cycles' target/BENCH_sweep_wedged.json
# Supervision smoke 1b — the budget reaches the figures: a one-cycle
# budget fails the figure's first cell, naming it, exit 1.
rc=0
mini FA_CELL_BUDGET=1 FA_BENCH_JSON=target/BENCH_fig_budget.json $FA fig fig12_apki \
    > /dev/null 2> target/fig_budget.txt || rc=$?
test "$rc" -eq 1
grep -q 'fig12_apki failed: cell TATP/baseline/icelake failed' target/fig_budget.txt
# Supervision smoke 2 — kill/resume: SIGKILL a checkpointed campaign,
# resume it from the journal, and require the resumed report's rows to be
# byte-identical to the uninterrupted golden (wherever the kill landed).
rm -f target/sweep.ckpt
mini FA_CHECKPOINT=target/sweep.ckpt FA_BENCH_JSON=target/BENCH_sweep_killed.json \
    timeout -s KILL 0.05 $FA sweep || true
mini FA_CHECKPOINT=target/sweep.ckpt FA_BENCH_JSON=target/BENCH_sweep_resumed.json $FA sweep
grep '"kernel":' target/BENCH_sweep_resumed.json > target/sweep_rows_resumed.txt
diff target/sweep_rows_resumed.txt target/sweep_rows_off.txt
# Trace-layer smoke: a full-mode run must export loadable Chrome-trace/
# Perfetto JSON with simulator events in it, not just the process/thread
# name metadata (the bin self-validates by parsing; the python check proves
# it is real JSON to an external parser too).
FA_TRACE=full:target/fa_trace.json \
    $FA trace
grep -q '"traceEvents"' target/fa_trace.json
python3 -c 'import json,sys; d=json.load(open("target/fa_trace.json")); sys.exit(0 if sum(e["ph"] != "M" for e in d["traceEvents"]) > 0 else 1)'
# Flight-recorder smoke: a deliberately injected audit violation must
# surface the structured event tail on the error path.
$FA trace --flight-demo > target/flight_demo.txt
grep -q 'flight recorder tail' target/flight_demo.txt
grep -q '"name":"uop.dispatch"' target/flight_demo.txt
