//! What every workload has in common, and the two ways a run drives it:
//! untraced (end-to-end metrics) and traced (per-layer metrics).
//!
//! A run is: set up, one warm-up repetition (discarded, its time printed),
//! then timed repetitions of a fixed amount of work until `--seconds` have
//! been measured. Each end-to-end value is the median over the timed
//! repetitions. Outputs are verified after the last repetition, untimed.

use crate::alloc;
use crate::host;
use crate::ledger;
use crate::metrics::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::span::Recorder;
use crate::stats;
use std::time::Instant;

/// One repetition's measurements. Every workload has three timed stages;
/// `items[i] / stage_s[i]` is that stage's rate and `attempted / wall_s` the
/// repetition's.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub stage_s: [f64; 3],
    pub items: [f64; 3],
    /// Process CPU (user + system, all threads) over the three stages.
    pub cpu_s: f64,
    /// Wall time of the stages, each second counted once even where one
    /// stage's figure includes another's.
    pub wall_s: f64,
    /// Operations the repetition attempted and how many failed or were
    /// refused.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of everything the repetition produced that must not depend on
    /// timing. Identical inputs must give identical fingerprints.
    pub fingerprint: String,
}

impl Rep {
    /// Runs `f` as (part of) stage `i`, adding its wall and CPU time.
    pub fn stage<R>(&mut self, i: usize, f: impl FnOnce() -> R) -> R {
        let cpu = host::cpu_seconds();
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        self.stage_s[i] += wall;
        self.wall_s += wall;
        self.cpu_s += host::cpu_seconds() - cpu;
        out
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Builds the inputs from `seed`. Nothing here is timed as a stage; all
    /// of it counts towards `setup_s`.
    fn setup(seed: u64) -> Result<Self, String>;

    /// One repetition of the fixed work. Stage times come from `Instant`
    /// around the program's calls; `rec` only adds spans when tracing.
    fn rep(&mut self, rec: &mut Recorder) -> Result<Rep, String>;

    /// Checks the last repetition's outputs against an independent
    /// reference. Returns the problems found.
    fn verify(&mut self) -> Vec<String>;

    /// Per-layer metrics this workload's traced repetition supports, from
    /// the spans in `rec`, plus any measurements only a traced run makes.
    fn layers(&mut self, rec: &mut Recorder, out: &mut Metrics) -> Result<(), String>;
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

fn timed_rep<W: Workload>(w: &mut W, rec: &mut Recorder, n: u32) -> Result<Rep, String> {
    rec.set_rep(n);
    let id = rec.enter("bench.rep");
    let rep = w.rep(rec)?;
    rec.exit(id, 1);
    Ok(rep)
}

/// Folds fingerprints and failure counts of the repetitions into the
/// contract's `correct` / `attempted` / `failed`.
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    first_fingerprint: Option<String>,
}

impl Verdict {
    fn new() -> Verdict {
        Verdict {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            first_fingerprint: None,
        }
    }

    fn absorb(&mut self, n: u32, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        match &self.first_fingerprint {
            None => self.first_fingerprint = Some(rep.fingerprint.clone()),
            Some(first) if *first != rep.fingerprint => {
                // A repetition whose output differs from the first one's is
                // wrong as a whole: count all of it as failed.
                self.failed += rep.attempted.saturating_sub(rep.failed);
                self.problems.push(format!(
                    "repetition {n} produced {} but repetition 0 produced {first}",
                    rep.fingerprint
                ));
            }
            Some(_) => {}
        }
    }

    fn finish(mut self, verify_problems: Vec<String>, metrics: Metrics) -> RunResult {
        if !verify_problems.is_empty() {
            self.failed = self.failed.max(1);
        }
        self.problems.extend(verify_problems);
        for p in &self.problems {
            eprintln!("[verify] FAILED: {p}");
        }
        RunResult {
            correct: self.problems.is_empty() && self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// The untraced run: end-to-end metrics only, tracing and allocation
/// counting off.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut rec = Recorder::new(W::NAME, false);
    let mut verdict = Verdict::new();
    let mut w = W::setup(seed)?;
    let warm = timed_rep(&mut w, &mut rec, 0)?;
    verdict.absorb(0, &warm);
    let setup_s = started.elapsed().as_secs_f64();
    eprintln!(
        "[{}] set-up {setup_s:.3}s (warm-up repetition {:.3}s, discarded)",
        W::NAME,
        warm.wall_s
    );

    let mut reps: Vec<Rep> = Vec::new();
    let measuring = Instant::now();
    while reps.is_empty() || measuring.elapsed().as_secs_f64() < seconds {
        let n = reps.len() as u32 + 1;
        let rep = timed_rep(&mut w, &mut rec, n)?;
        verdict.absorb(n, &rep);
        eprintln!(
            "[{}] repetition {n}: stages {:.3}s {:.3}s {:.3}s, cpu {:.2}s",
            W::NAME,
            rep.stage_s[0],
            rep.stage_s[1],
            rep.stage_s[2],
            rep.cpu_s
        );
        reps.push(rep);
    }
    let peak_rss_mib = host::peak_rss_mib();
    eprintln!(
        "[{}] {} timed repetitions in {:.3}s",
        W::NAME,
        reps.len(),
        measuring.elapsed().as_secs_f64()
    );

    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", setup_s);
    // Both per attempted operation, so a seed that generates more work does
    // not read as a slower or costlier program.
    m.set(
        "work_per_s",
        median_of(reps.iter().map(|r| r.attempted as f64 / r.wall_s)),
    );
    m.set(
        "cpu_us_per_item",
        median_of(reps.iter().map(|r| r.cpu_s * 1e6 / r.attempted as f64)),
    );
    m.set("peak_rss_mib", peak_rss_mib);
    Ok(verdict.finish(w.verify(), m))
}

/// The traced run: one warm-up, one untraced repetition, one traced
/// repetition (spans and allocation counts on), the workload's own traced
/// measurements, then the layer ledger. Writes the span file on the way out.
pub fn run_traced<W: Workload>(seed: u64) -> Result<RunResult, String> {
    let mut verdict = Verdict::new();
    let mut off = Recorder::new(W::NAME, false);
    let mut w = W::setup(seed)?;
    let warm = timed_rep(&mut w, &mut off, 0)?;
    verdict.absorb(0, &warm);
    let plain = timed_rep(&mut w, &mut off, 1)?;
    verdict.absorb(1, &plain);

    let mut rec = Recorder::new(W::NAME, true);
    alloc::set_counting(true);
    let traced = timed_rep(&mut w, &mut rec, 2)?;
    verdict.absorb(2, &traced);

    let mut m = Metrics::new(PER_LAYER);
    for (i, name) in ["stage1_per_s", "stage2_per_s", "stage3_per_s"]
        .into_iter()
        .enumerate()
    {
        m.set(name, plain.items[i] / plain.stage_s[i]);
    }
    m.set("bench.first_run_s", warm.wall_s);
    m.set(
        "bench.trace_overhead_share",
        traced.wall_s / plain.wall_s - 1.0,
    );
    let problems = w.verify();
    w.layers(&mut rec, &mut m)?;
    drop(w);
    ledger::run(seed, &mut rec, &mut m)?;
    alloc::set_counting(false);

    let path = std::path::Path::new("benchmark/out").join(format!("trace-{}.json", W::NAME));
    rec.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "[{}] {} spans written to {}",
        W::NAME,
        rec.spans().len(),
        path.display()
    );
    Ok(verdict.finish(problems, m))
}
