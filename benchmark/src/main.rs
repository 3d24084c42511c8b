//! The repo benchmark: host throughput and model stability of the Free
//! Atomics simulator on four workloads, with a layer profile measured from
//! outside. See `benchmark/README.md`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod compare;
mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod profile;
mod spans;
mod splitloop;
mod stats;
mod workloads;

use measure::{Measurement, SETUP_REPS};
use metrics::Better;
use stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Sizing, WorkloadId, PINNED_SEED};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out <dir>]
  benchmark run [--seed <n>] [--seconds <n>] [--out <dir>]
  benchmark compare <A.json> <B.json>
  benchmark pin
workloads: atomic_grid compute_grid noc8_grid litmus_campaign";

/// Seconds of timed passes per workload when `run` is given none: the
/// driver's `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Opts {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(WorkloadId::by_name(v).ok_or_else(bad)?),
            "--seed" => o.seed = parse_u64(v).ok_or_else(bad)?,
            "--seconds" => {
                o.seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                o.trace = matches!(v.as_str(), "0" | "1")
                    .then(|| v == "1")
                    .ok_or_else(bad)?
            }
            "--out" => o.out = PathBuf::from(v),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// One metric of one workload, ready to print and to store.
struct Line {
    name: String,
    unit: &'static str,
    better: Better,
    value: f64,
    /// End-to-end metrics only: the regression bound, the same metric
    /// taken pass by pass, and the spread of the value (`measure::Reading`).
    end_to_end: Option<(f64, Summary, f64)>,
}

impl Line {
    /// `"name":{"value":…,"unit":…}`, the contract's form; `full` adds
    /// direction, bound and the pass-by-pass spread for `result.json`.
    fn json(&self, full: bool) -> String {
        let mut s = format!(
            "{}:{{\"value\":{},\"unit\":{}",
            json::quote(&self.name),
            json::num(self.value),
            json::quote(self.unit)
        );
        if full {
            let _ = write!(s, ",\"better\":{}", json::quote(self.better.name()));
            if let Some((bound, v, spread)) = &self.end_to_end {
                let _ = write!(
                    s,
                    ",\"bound\":{},\"spread\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{}",
                    json::num(*bound),
                    json::num(*spread),
                    json::num(v.median),
                    json::num(v.q1),
                    json::num(v.q3),
                    json::num(v.min),
                    json::num(v.max),
                    v.n
                );
            }
        }
        s.push('}');
        s
    }
}

/// One workload's numbers, or those of the workload-independent layers.
struct Outcome {
    name: &'static str,
    attempted: u64,
    failures: Vec<String>,
    passes: usize,
    end_to_end: Vec<Line>,
    per_layer: Vec<Line>,
}

impl Outcome {
    fn untraced(m: &Measurement) -> Outcome {
        let end_to_end = metrics::END_TO_END
            .iter()
            .zip(m.end_to_end())
            .map(|(m, r)| Line {
                name: m.name.to_string(),
                unit: m.unit,
                better: m.better,
                value: r.value,
                end_to_end: Some((m.bound, r.passes, r.spread)),
            })
            .collect();
        Outcome {
            name: m.plan.id.name(),
            attempted: m.attempted,
            failures: m.failures.clone(),
            passes: m.passes(),
            end_to_end,
            per_layer: Vec::new(),
        }
    }

    /// A traced run's numbers: the catalogue's per-layer metrics that
    /// `values` holds, in catalogue order.
    fn traced(
        name: &'static str,
        values: &[(&str, f64)],
        attempted: u64,
        failures: Vec<String>,
    ) -> Outcome {
        let per_layer = metrics::per_layer()
            .into_iter()
            .filter_map(|m| {
                let (_, value) = values.iter().find(|(n, _)| *n == m.name)?;
                Some(Line {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    value: *value,
                    end_to_end: None,
                })
            })
            .collect();
        Outcome {
            name,
            attempted,
            failures,
            passes: 0,
            end_to_end: Vec::new(),
            per_layer,
        }
    }

    /// Adds a traced run's numbers to an untraced run's.
    fn absorb(&mut self, traced: Outcome) {
        self.attempted += traced.attempted;
        self.failures.extend(traced.failures);
        self.per_layer = traced.per_layer;
    }

    fn print(&self) {
        println!("== {} ({} timed passes)", self.name, self.passes);
        for l in self.end_to_end.iter().chain(&self.per_layer) {
            print!("{:<34} {:>16.6} {:<6}", l.name, l.value, l.unit);
            if let Some((_, s, spread)) = &l.end_to_end {
                print!(
                    " spread {:.4} passes: median {:.6} q1 {:.6} q3 {:.6} min {:.6} n {}",
                    spread, s.median, s.q1, s.q3, s.min, s.n
                );
            }
            println!();
        }
        println!("{:<34} {:>16}", "attempted", self.attempted);
        println!("{:<34} {:>16}", "failed", self.failures.len());
        for f in &self.failures {
            println!("  FAILED {f}");
        }
    }

    /// The contract's result line: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    fn result_line(&self, traced: bool) -> String {
        let lines = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let fields: Vec<String> = lines.iter().map(|l| l.json(false)).collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            fields.join(",")
        )
    }

    /// This workload's object in `result.json`.
    fn json(&self) -> String {
        let block = |lines: &[Line]| {
            lines
                .iter()
                .map(|l| format!("\n        {}", l.json(true)))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"passes\":{},\n      \"end_to_end\":{{{}}},\n      \"per_layer\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            self.passes,
            block(&self.end_to_end),
            block(&self.per_layer)
        )
    }
}

fn write_out(dir: &Path, name: &str, text: &str) {
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `result.json`: what `compare` reads. It carries no claim: this file
/// reports one commit, and the model behind the simulated numbers has no
/// hardware reference in the repo.
fn result_json(seed: u64, workloads: &[Outcome], fixed: &Outcome) -> String {
    let body: Vec<String> = workloads
        .iter()
        .map(|w| format!("    {}:{}", json::quote(w.name), w.json()))
        .collect();
    format!(
        "{{\n  \"schema\":\"fa-benchmark-result-v1\",\n  \"claim\":null,\n  \"model\":\"unvalidated\",\n  \
         \"seed\":{seed},\n  \"host_threads\":1,\n  \"workloads\":{{\n{}\n  }},\n  \"fixed\":{}\n}}\n",
        body.join(",\n"),
        fixed.json()
    )
}

/// `trace.json`: one span store per profiled workload, plus the one of the
/// workload-independent part.
fn trace_json(traces: &[(&str, &spans::Tracer)]) -> String {
    let body: Vec<String> = traces
        .iter()
        .map(|(k, t)| format!("{}:{}", json::quote(k), t.json()))
        .collect();
    format!("{{{}}}\n", body.join(","))
}

/// The traced run of one workload: its half of the per-layer metrics.
fn profiled(id: WorkloadId, seed: u64) -> (Outcome, spans::Tracer) {
    let p = profile::run(id, seed, &Sizing::FULL);
    let values: Vec<(&str, f64)> = p.metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    (
        Outcome::traced(id.name(), &values, p.attempted, p.failures),
        p.tracer,
    )
}

/// The workload-independent half of the per-layer metrics.
fn fixed_layers(seed: u64) -> (Outcome, spans::Tracer) {
    let f = layers::measure(seed, &Sizing::FULL);
    (
        Outcome::traced("fixed", &f.metrics, f.attempted, f.failures),
        f.tracer,
    )
}

/// The driver's entry: one workload, untraced or traced, one result line.
fn contract(o: &Opts) -> ExitCode {
    let Some(id) = o.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = if o.trace {
        // The result line must carry every per-layer metric, so each
        // traced run measures the workload-independent half as well.
        let p = profile::run(id, o.seed, &Sizing::FULL);
        let f = layers::measure(o.seed, &Sizing::FULL);
        let mut values: Vec<(&str, f64)> =
            p.metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        values.extend(&f.metrics);
        let mut failures = p.failures;
        failures.extend(f.failures);
        let outcome = Outcome::traced(id.name(), &values, p.attempted + f.attempted, failures);
        assert_eq!(
            outcome.per_layer.len(),
            metrics::per_layer().len(),
            "a per-layer metric was not measured"
        );
        write_out(
            &o.out,
            "trace.json",
            &trace_json(&[(id.name(), &p.tracer), ("fixed", &f.tracer)]),
        );
        outcome
    } else {
        let mut m = [Measurement::setup(id, o.seed, &Sizing::FULL)];
        measure::run_interleaved(&mut m, measure::passes_for(o.seconds), SETUP_REPS);
        for (i, (calib_ms, host_s)) in m[0].pass_samples().enumerate() {
            println!("pass {i:<3} host.calib_ms {calib_ms:>10.3}  host_s {host_s:>10.6}");
        }
        Outcome::untraced(&m[0])
    };
    outcome.print();
    println!("{}", outcome.result_line(o.trace));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload from one process: timed passes interleaved round-robin,
/// then each workload's traced run, then the workload-independent layers
/// once; writes `result.json` and `trace.json`.
fn run_all(o: &Opts) -> ExitCode {
    let mut ms: Vec<Measurement> = WorkloadId::ALL
        .iter()
        .map(|&id| Measurement::setup(id, o.seed, &Sizing::FULL))
        .collect();
    measure::run_interleaved(&mut ms, measure::passes_for(o.seconds), SETUP_REPS);
    let mut outcomes = Vec::new();
    let mut tracers = Vec::new();
    for m in &ms {
        let mut outcome = Outcome::untraced(m);
        let (traced, tracer) = profiled(m.plan.id, o.seed);
        outcome.absorb(traced);
        outcome.print();
        outcomes.push(outcome);
        tracers.push(tracer);
    }
    let (fixed, fixed_tracer) = fixed_layers(o.seed);
    fixed.print();
    write_out(
        &o.out,
        "result.json",
        &result_json(o.seed, &outcomes, &fixed),
    );
    let mut traces: Vec<(&str, &spans::Tracer)> =
        outcomes.iter().map(|w| w.name).zip(&tracers).collect();
    traces.push(("fixed", &fixed_tracer));
    write_out(&o.out, "trace.json", &trace_json(&traces));
    if outcomes
        .iter()
        .chain([&fixed])
        .all(|w| w.failures.is_empty())
    {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(a).and_then(|ta| read(b).and_then(|tb| compare::compare(&ta, &tb))) {
        Ok(c) => {
            print!("{}", c.table);
            if c.worse > 0 {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "pin")) => (c, &args[1..]),
        Some(_) => ("contract", &args[..]),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if command == "compare" {
        return match rest {
            [a, b] => compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if command == "pin" {
        print!("{}", profile::pin(&Sizing::FULL));
        return ExitCode::SUCCESS;
    }
    match parse_opts(rest) {
        Ok(o) if command == "run" => run_all(&o),
        Ok(o) => contract(&o),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_run_prints_the_end_to_end_catalogue_and_compares_clean_with_itself() {
        let mut ms = [
            Measurement::setup(WorkloadId::ComputeGrid, 9, &Sizing::TINY),
            Measurement::setup(WorkloadId::LitmusCampaign, 9, &Sizing::TINY),
        ];
        measure::run_interleaved(&mut ms, measure::passes_for(0.0), SETUP_REPS);
        let outcomes: Vec<Outcome> = ms.iter().map(Outcome::untraced).collect();
        for o in &outcomes {
            assert!(o.failures.is_empty(), "{:?}", o.failures);
            assert_eq!(o.passes, measure::MIN_PASSES);
            let line = json::parse(&o.result_line(false)).expect("the result line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct").as_bool(), Some(true));
            assert!(line.get("attempted").as_u64().is_some_and(|n| n >= 1));
            let printed: Vec<&str> = line
                .get("metrics")
                .as_obj()
                .expect("metrics")
                .keys()
                .map(String::as_str)
                .collect();
            let mut catalogue: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            catalogue.sort_unstable();
            assert_eq!(printed, catalogue);
            for (name, entry) in line.get("metrics").as_obj().expect("metrics") {
                assert!(
                    entry.get("value").as_f64().is_some_and(|v| v > 0.0),
                    "{name} must never read 0"
                );
                let listed = metrics::END_TO_END.iter().find(|m| m.name == name);
                assert_eq!(entry.get("unit").as_str(), listed.map(|m| m.unit));
            }
        }
        let file = result_json(9, &outcomes, &Outcome::traced("fixed", &[], 0, Vec::new()));
        assert_eq!(
            json::parse(&file).expect("result.json parses").get("claim"),
            &json::Value::Null
        );
        let c = compare::compare(&file, &file).expect("a result file compares with itself");
        assert_eq!(c.worse, 0, "{}", c.table);
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args(
            "--workload noc8_grid --seed 0xF00D --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(WorkloadId::Noc8Grid), 0xF00D, 3.0, true)
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }
}
