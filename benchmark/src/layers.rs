//! The workload-independent half of a traced run: what each passive layer
//! costs when on, what the oracles cost, how fast the components and the
//! reference interpreter are, and what the supervised sweep adds.
//!
//! All of it runs on fixed small inputs (the `atomic_grid` kernels at
//! `Sizing::fixed_scale`, the litmus gallery) generated from `--seed`, so
//! the numbers read the same whichever workload the traced run profiles.

use crate::host;
use crate::spans::Tracer;
use crate::splitloop::{SplitMachine, TickProfile};
use crate::stats::median;
use crate::workloads::{
    first_line, row_mismatches, total_instructions, Cell, Engine, Plan, Row, Sizing, PAIR,
};
use fa_core::predictor::{BranchPredictor, StoreSets};
use fa_core::rob::{Entry, Rob};
use fa_core::{AtomicPolicy, AtomicQueue, Core};
use fa_isa::interp::{GuestMem, McInterp};
use fa_isa::Uop;
use fa_mem::tagarray::TagArray;
use fa_mem::wheel::Wheel;
use fa_mem::{AuditConfig, CoreId, MemorySystem, ProgressConfig};
use fa_sim::{
    axiom, icelake_like, tiny_machine, CheckMode, LitmusTest, Machine, MachineConfig, MemModel,
    TraceMode,
};
use fa_workloads::WORKLOAD_MEM_BYTES;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per component microbenchmark (after `WARMUP_BATCHES`).
const BATCHES: usize = 30;
const WARMUP_BATCHES: usize = 3;
/// Rounds of the passive-layer table; each ratio is a median over them.
const TABLE_ROUNDS: usize = 3;

pub struct Fixed {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Spans of the supervised sweep pass.
    pub tracer: Tracer,
}

/// Median ns per operation of `batch`, which performs `ops` operations.
fn micro(ops: u64, mut batch: impl FnMut()) -> f64 {
    for _ in 0..WARMUP_BATCHES {
        batch();
    }
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_op)
}

pub fn measure(seed: u64, size: &Sizing) -> Fixed {
    let mut out = Fixed {
        metrics: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        tracer: Tracer::on(),
    };
    let plan = Plan::fixed(seed, size);
    let sim_mips = sweep_overhead(&plan, &mut out);
    reference_speed(&plan, sim_mips, &mut out);
    passive_table(&plan, &mut out);
    oracles(&plan, &mut out);
    components(&plan, &mut out);
    out
}

/// The supervised sweep and its report against the direct path over the
/// same cells. Returns the direct path's simulated MIPS.
fn sweep_overhead(plan: &Plan, out: &mut Fixed) -> f64 {
    let warm = plan.direct_pass(Engine::Machine, &mut Tracer::off());
    let swept = plan.pass(&mut out.tracer);
    let direct = plan.direct_pass(Engine::Machine, &mut Tracer::off());
    for p in [&warm, &swept, &direct] {
        out.attempted += p.ops;
        out.failures.extend(p.failures.iter().cloned());
    }
    out.failures.extend(row_mismatches(
        &plan.cells,
        &warm.rows,
        &swept.rows,
        "supervised sweep",
    ));
    out.failures.extend(row_mismatches(
        &plan.cells,
        &warm.rows,
        &direct.rows,
        "second direct pass",
    ));
    let span_s = |name: &str| out.tracer.total_s(name);
    let sweep = [
        (
            "bench.sweep_overhead_ratio",
            span_s("bench.run_grid_supervised") / direct.host_s,
        ),
        ("bench.report_json_ms", span_s("bench.report_json") * 1e3),
        ("bench.report_parse_ms", span_s("bench.report_parse") * 1e3),
    ];
    out.metrics.extend(sweep);
    total_instructions(&direct.rows) as f64 / direct.host_s / 1e6
}

/// The sequentially consistent interpreter on the same programs: the
/// speed a functional model reaches, and the detailed model's slowdown
/// against it.
fn reference_speed(plan: &Plan, sim_mips: f64, out: &mut Fixed) {
    let kernels: Vec<&Cell> = plan
        .cells
        .iter()
        .filter(|c| c.policy == AtomicPolicy::FencedBaseline)
        .collect();
    let mut mips = Vec::new();
    for round in 0..5 {
        let (mut executed, mut secs) = (0u64, 0.0);
        for cell in &kernels {
            let (programs, guest) = cell.build();
            let mut interp = McInterp::new(programs, guest.size(), plan.seed);
            *interp.mem_mut() = guest;
            let t = Instant::now();
            let r = interp.run(1 << 32);
            secs += t.elapsed().as_secs_f64();
            executed += interp.executed;
            if round == 0 {
                out.attempted += 1;
                if let Err(e) = r {
                    out.failures
                        .push(format!("McInterp on {}: {e}", cell.kernel));
                }
            }
        }
        mips.push(executed as f64 / secs / 1e6);
    }
    let mips = median(&mips);
    out.metrics.push(("isa.mcinterp_mips", mips));
    out.metrics.push(("sim.detail_slowdown", mips / sim_mips));
}

/// What one run of `cells` under `tweak` took and produced.
struct TableRun {
    secs: f64,
    rows: Vec<Row>,
    export_ms: f64,
    rss_mb: f64,
}

fn table_run(
    cells: &[&Cell],
    tweak: &dyn Fn(MachineConfig) -> MachineConfig,
    out: &mut Fixed,
) -> TableRun {
    host::reset_peak_rss();
    let mut run = TableRun {
        secs: 0.0,
        rows: Vec::new(),
        export_ms: 0.0,
        rss_mb: 0.0,
    };
    for cell in cells {
        let (programs, guest) = cell.build();
        let cfg = tweak(cell.cfg.clone());
        let full_trace = cfg.core.trace.mode == TraceMode::Full;
        let t = Instant::now();
        let mut m = Machine::new(cfg, programs, guest);
        m.set_start_offsets(cell.offsets.clone());
        let r = m.run(cell.max_cycles);
        run.secs += t.elapsed().as_secs_f64();
        out.attempted += 1;
        match r {
            Ok(r) => run.rows.push((r.cycles, r.instructions())),
            Err(e) => {
                out.failures
                    .push(format!("{}: {}", cell.id, first_line(&e)));
                run.rows.push((0, 0));
            }
        }
        if full_trace {
            let t = Instant::now();
            black_box(m.perfetto_trace());
            run.export_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    run.rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    run
}

/// CQ and canneal under both policies, plain and with each passive layer
/// switched: the ratio of each variant's construct-and-run time to the
/// plain run's. Every variant must leave the rows untouched.
fn passive_table(plan: &Plan, out: &mut Fixed) {
    let cells: Vec<&Cell> = plan
        .cells
        .iter()
        .filter(|c| matches!(c.kernel.as_str(), "CQ" | "canneal") && PAIR.contains(&c.policy))
        .collect();
    let audit_on = |mut c: MachineConfig| {
        c.mem.audit = AuditConfig::on();
        c
    };
    let progress_off = |mut c: MachineConfig| {
        c.mem.progress = ProgressConfig::off();
        c
    };
    let variants: [(&'static str, &dyn Fn(MachineConfig) -> MachineConfig); 6] = [
        ("plain", &|c| c),
        ("trace.flight_ratio", &|c| c.with_trace(TraceMode::Flight)),
        ("trace.full_ratio", &|c| c.with_trace(TraceMode::Full)),
        ("sim.check_tso_ratio", &|c| c.with_check(CheckMode::Tso)),
        ("mem.audit_ratio", &audit_on),
        ("mem.progress_off_ratio", &progress_off),
    ];
    let mut secs = vec![Vec::new(); variants.len()];
    let (mut export_ms, mut rss_mb) = (Vec::new(), Vec::new());
    let mut plain_rows: Vec<Row> = Vec::new();
    for _ in 0..TABLE_ROUNDS {
        for (i, (name, tweak)) in variants.iter().enumerate() {
            let run = table_run(&cells, *tweak, out);
            secs[i].push(run.secs);
            if i == 0 {
                plain_rows.clone_from(&run.rows);
            } else if run.rows != plain_rows {
                out.failures
                    .push(format!("{name}: a passive layer moved the rows"));
            }
            if *name == "trace.full_ratio" {
                export_ms.push(run.export_ms);
                rss_mb.push(run.rss_mb);
            }
        }
    }
    let plain = median(&secs[0]);
    for (i, (name, _)) in variants.iter().enumerate().skip(1) {
        out.metrics.push((name, median(&secs[i]) / plain));
    }
    out.metrics.push(("trace.full_rss_mb", median(&rss_mb)));
    out.metrics
        .push(("trace.perfetto_export_ms", median(&export_ms)));
}

fn oracles(plan: &Plan, out: &mut Fixed) {
    // The axiomatic checker on the execution of one checked CQ run.
    let cq = plan
        .cells
        .iter()
        .find(|c| c.kernel == "CQ" && c.policy == AtomicPolicy::FreeFwd)
        .expect("the fixed cells include CQ under FreeAtomics+Fwd");
    let (programs, guest) = cq.build();
    let mut m = Machine::new(cq.cfg.clone().with_check(CheckMode::Tso), programs, guest);
    m.set_start_offsets(cq.offsets.clone());
    out.attempted += 1;
    if let Err(e) = m.run(cq.max_cycles) {
        out.failures
            .push(format!("checked CQ run: {}", first_line(&e)));
    }
    let x = m.execution();
    let kevents = x.events().max(1) as f64 / 1e3;
    let ns = micro(1, || {
        black_box(axiom::check_model(black_box(&x), MemModel::Tso).is_ok());
    });
    out.metrics
        .push(("sim.axiom.check_us_per_kevent", ns / 1e3 / kevents));

    // The operational enumerators and one detailed litmus run, per test.
    let mut gallery = LitmusTest::all();
    gallery.extend(LitmusTest::weak_gallery());
    let n = gallery.len() as f64;
    for (name, model) in [
        ("sim.tsoref.tso_enum_us", MemModel::Tso),
        ("sim.tsoref.weak_enum_us", MemModel::Weak),
    ] {
        let t = Instant::now();
        for test in &gallery {
            black_box(test.allowed_outcomes_under(model));
        }
        out.metrics
            .push((name, t.elapsed().as_secs_f64() * 1e6 / n));
    }
    let mut cfg = tiny_machine();
    cfg.core.policy = AtomicPolicy::FreeFwd;
    let mut secs = 0.0;
    for test in &gallery {
        let allowed = test.allowed_outcomes_under(MemModel::Tso);
        let t = Instant::now();
        let got = test.run_checked(&cfg, &[], 5_000_000);
        secs += t.elapsed().as_secs_f64();
        out.attempted += 1;
        match got {
            Ok(outcome) if allowed.contains(&outcome) => {}
            Ok(outcome) => out.failures.push(format!(
                "litmus {}: outcome {outcome:?} is TSO-forbidden",
                test.name
            )),
            Err(e) => out
                .failures
                .push(format!("litmus {}: {}", test.name, first_line(&e))),
        }
    }
    out.metrics.push(("sim.litmus.run_us", secs * 1e6 / n));
}

fn components(plan: &Plan, out: &mut Fixed) {
    let cfg = icelake_like();
    let cq = plan
        .cells
        .iter()
        .find(|c| c.kernel == "CQ")
        .expect("the fixed cells include CQ");
    let (programs, _) = cq.build();
    let program = programs[0].clone();
    let uops: Vec<Uop> = program
        .iter()
        .enumerate()
        .flat_map(|(pc, instr)| fa_isa::decode(*instr, pc as u32))
        .collect();
    let rob_size = cfg.core.rob_size as u64;

    // ROB: push+pop at half occupancy, lookup and one full scan at 352.
    let mut rob = Rob::new();
    let mut seq = 0u64;
    let mut push = |rob: &mut Rob| {
        rob.push(Entry::new(seq, uops[seq as usize % uops.len()]));
        seq += 1;
    };
    for _ in 0..rob_size / 2 {
        push(&mut rob);
    }
    out.metrics.push((
        "core.rob.push_pop_ns",
        micro(1000, || {
            for _ in 0..1000 {
                push(&mut rob);
                black_box(rob.pop_front());
            }
        }),
    ));
    while (rob.len() as u64) < rob_size {
        push(&mut rob);
    }
    let head = rob.head_seq().unwrap_or(0);
    let mut i = 0u64;
    out.metrics.push((
        "core.rob.get_ns",
        micro(1000, || {
            for _ in 0..1000 {
                i = (i + 97) % rob_size;
                black_box(rob.get(head + i));
            }
        }),
    ));
    out.metrics.push((
        "core.rob.scan_ns",
        micro(100, || {
            for _ in 0..100 {
                black_box(black_box(&rob).count(Entry::srcs_ready));
            }
        }),
    ));

    let mut aq = AtomicQueue::new(cfg.core.aq_size);
    let mut ll = 0u64;
    out.metrics.push((
        "core.aq.alloc_release_ns",
        micro(1000, || {
            for _ in 0..1000 {
                ll += 1;
                aq.alloc(ll);
                black_box(aq.release(ll));
            }
        }),
    ));

    let mut bp = BranchPredictor::new(cfg.core.bp_table_bits, cfg.core.bp_history_bits);
    let mut pc = 0u32;
    out.metrics.push((
        "core.predictor.predict_resolve_ns",
        micro(1000, || {
            for _ in 0..1000 {
                pc = pc.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let (taken, snapshot) = bp.predict(pc >> 8);
                bp.resolve(pc >> 8, snapshot, taken, pc & 0x80 != 0);
            }
        }),
    ));

    // 2^10 entries, as `Core::new` sizes it.
    let mut ss = StoreSets::new(10);
    for k in 0..64u32 {
        ss.train_violation(k * 3, k * 3 + 1);
        ss.store_dispatched(k * 3 + 1, u64::from(k));
    }
    out.metrics.push((
        "core.storesets.lookup_ns",
        micro(1000, || {
            for k in 0..1000u32 {
                black_box(ss.load_should_wait(black_box(k)));
            }
        }),
    ));

    out.metrics.push((
        "core.new_us",
        micro(1, || {
            black_box(Core::new(
                CoreId(0),
                cfg.core.clone(),
                program.clone(),
                WORKLOAD_MEM_BYTES,
            ));
        }) / 1e3,
    ));

    // Tag array at L1 geometry: hits on resident lines, then inserts that
    // each evict the LRU way.
    let lines = (cfg.mem.l1_sets * cfg.mem.l1_ways) as u64;
    let mut tags: TagArray<u8> = TagArray::new(cfg.mem.l1_sets, cfg.mem.l1_ways);
    for line in 0..lines {
        let _ = tags.insert(line, 0, |_| false);
    }
    let mut line = 0u64;
    out.metrics.push((
        "mem.tagarray.touch_hit_ns",
        micro(1000, || {
            for _ in 0..1000 {
                line = (line + 61) % lines;
                black_box(tags.touch(line));
            }
        }),
    ));
    let mut next = lines;
    out.metrics.push((
        "mem.tagarray.insert_evict_ns",
        micro(1000, || {
            for _ in 0..1000 {
                black_box(tags.insert(next, 0, |_| false).is_ok());
                next += 1;
            }
        }),
    ));

    // Event wheel holding 64 pending events: schedule one, pop one.
    let mut wheel: Wheel<u64> = Wheel::new();
    let mut now = 0u64;
    for k in 0..64 {
        wheel.schedule(k, k);
    }
    out.metrics.push((
        "mem.wheel.schedule_pop_ns",
        micro(1000, || {
            for _ in 0..1000 {
                now += 1;
                wheel.schedule(now + 63 + (now * 7) % 16, now);
                black_box(wheel.pop_due(now + 64));
            }
        }),
    ));

    out.metrics.push((
        "mem.system_new_ms",
        micro(1, || {
            black_box(MemorySystem::new(
                cfg.mem.clone(),
                4,
                GuestMem::new(WORKLOAD_MEM_BYTES),
            ));
        }) / 1e6,
    ));

    // One audit sweep over a machine stopped mid-run, caches populated.
    let (programs, guest) = cq.build();
    let mut audited = cq.cfg.clone();
    audited.mem.audit = AuditConfig::on();
    let mut m = SplitMachine::new(&audited, programs, guest);
    let _ = m.run::<false>(&cq.offsets, 2_000, &mut TickProfile::default());
    out.attempted += 1;
    if let Err(v) = m.mem_mut().audit() {
        out.failures.push(format!("audit sweep mid-run: {v:?}"));
    }
    out.metrics.push((
        "mem.audit_sweep_us",
        micro(10, || {
            for _ in 0..10 {
                black_box(m.mem_mut().audit().is_ok());
            }
        }) / 1e3,
    ));
}
