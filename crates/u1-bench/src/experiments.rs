//! One function per paper table/figure, and [`TABLE`], the name → function
//! table the `exp` binary dispatches over. Each experiment prints the
//! paper's rows or series and writes a JSON document with the measured
//! values next to the paper's, so EXPERIMENTS.md can quote both.
//!
//! Every record-derived experiment reads from a shared [`EngineReport`]
//! produced by ONE streaming pass over the trace ([`crate::analyze`]). The
//! two volume experiments (Fig. 10/11) analyze the end-of-run metastore
//! snapshot rather than the trace; Fig. 17 and the fault experiment run
//! their own backends and need no shared month.
//!
//! An experiment's scalar comparisons with the paper are a list of
//! [`paper::Row`]s, each with the key of its measured value in the
//! document; one renderer prints them and files them under `paper`.

use crate::{bytes, emit, pct, Scenario};
use serde_json::{json, Value};
use std::io;
use u1_analytics as ana;
use u1_analytics::engine::EngineReport;
use u1_core::paper::{self, Row};
use u1_core::{ApiOpKind, RpcClass, RpcKind};

/// What an experiment runs on.
#[derive(Clone, Copy)]
pub enum Experiment {
    /// The shared simulated month and its one-pass report.
    Month(fn(&Scenario, &EngineReport) -> io::Result<()>),
    /// Nothing shared: it builds what it needs.
    Standalone(fn() -> io::Result<()>),
}

/// Every experiment by name (`exp <name>`; the name is also the JSON
/// document's), in the order `exp all` runs them.
#[rustfmt::skip]
pub const TABLE: &[(&str, Experiment)] = {
    use Experiment::{Month, Standalone};
    &[
        ("t3_summary", Month(|_, r| exp_t3_summary(r))),
        ("f2a_traffic_timeseries", Month(|_, r| exp_f2a_traffic_timeseries(r))),
        ("f2b_size_categories", Month(|_, r| exp_f2b_size_categories(r))),
        ("f2c_rw_ratio", Month(|_, r| exp_f2c_rw_ratio(r))),
        ("f3a_after_write", Month(|_, r| exp_f3a_after_write(r))),
        ("f3b_after_read", Month(|_, r| exp_f3b_after_read(r))),
        ("f3c_lifetimes", Month(|_, r| exp_f3c_lifetimes(r))),
        ("f4a_dedup", Month(exp_f4a_dedup)),
        ("f4b_sizes_by_ext", Month(|_, r| exp_f4b_sizes_by_ext(r))),
        ("f4c_categories", Month(|_, r| exp_f4c_categories(r))),
        ("f5_ddos", Month(exp_f5_ddos)),
        ("f6_online_active", Month(|_, r| exp_f6_online_active(r))),
        ("f7a_op_mix", Month(|_, r| exp_f7a_op_mix(r))),
        ("f7b_user_traffic", Month(|_, r| exp_f7b_user_traffic(r))),
        ("f7c_gini", Month(|_, r| exp_f7c_gini(r))),
        ("f8_transitions", Month(|_, r| exp_f8_transitions(r))),
        ("f9_burstiness", Month(|_, r| exp_f9_burstiness(r))),
        ("f10_volume_contents", Month(|s, _| exp_f10_volume_contents(s))),
        ("f11_volume_types", Month(|s, _| exp_f11_volume_types(s))),
        ("f12_rpc_latency", Month(|_, r| exp_f12_rpc_latency(r))),
        ("f13_rpc_scatter", Month(|_, r| exp_f13_rpc_scatter(r))),
        ("f14_load_balance", Month(|_, r| exp_f14_load_balance(r))),
        ("f15_auth_activity", Month(|_, r| exp_f15_auth_activity(r))),
        ("f16_sessions", Month(|_, r| exp_f16_sessions(r))),
        ("f17_uploadjobs", Standalone(exp_f17_uploadjobs)),
        ("t1_findings", Month(|_, r| exp_t1_findings(r))),
        ("ablations", Month(exp_ablations)),
        ("faults", Standalone(|| exp_faults(DEFAULT_FAULTS))),
    ]
};

/// How a measured value and its paper row print: a fraction as a
/// percentage, a number or an `x` ratio with this many decimals, or bytes.
#[derive(Clone, Copy)]
enum Fmt {
    Pct,
    Fixed(usize),
    Times(usize),
    Bytes,
}
use Fmt::{Bytes, Fixed, Pct, Times};

impl Fmt {
    /// `x` as measured or, with two more decimals and trailing zeros
    /// dropped, as the paper states it.
    fn show(self, x: f64, paper: bool) -> String {
        let fixed = |x: f64, n: usize| {
            if paper {
                let digits = format!("{x:.*}", n + 2);
                digits
                    .trim_end_matches('0')
                    .trim_end_matches('.')
                    .to_string()
            } else {
                format!("{x:.n$}")
            }
        };
        match self {
            Pct => format!("{}%", fixed(x * 100.0, 1)),
            Fixed(n) => fixed(x, n),
            Times(n) => format!("{}x", fixed(x, n)),
            Bytes => bytes(x as u64),
        }
    }
}

/// Emits document `id`: `human`, then a table of `vs`, each entry a paper
/// row, the measured value's key in `doc` (object keys and array indices
/// joined by `.`) and how both print. `doc` gains a `paper` object filing
/// each row's id, source and value under the measured value's key.
fn emit_vs(id: &str, mut human: String, mut doc: Value, vs: &[(Row, &str, Fmt)]) -> io::Result<()> {
    if !human.is_empty() && !human.ends_with('\n') {
        human.push('\n');
    }
    human.push_str(&format!(
        "{:<28} {:>10} {:>10}  source",
        "", "measured", "paper"
    ));
    let mut paper = serde_json::Map::new();
    for &(row, key, fmt) in vs {
        let measured = key
            .split('.')
            .try_fold(&doc, |v, step| match v {
                Value::Object(map) => map.get(step),
                Value::Array(items) => items.get(step.parse::<usize>().ok()?),
                _ => None,
            })
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let (measured, stated) = (fmt.show(measured, false), fmt.show(row.value, true));
        human.push_str(&format!(
            "\n{key:<28} {measured:>10} {stated:>10}  {}",
            row.source
        ));
        let entry = json!({"id": row.id, "source": row.source, "value": row.value});
        paper.insert(key.to_string(), entry);
    }
    if let Value::Object(map) = &mut doc {
        map.insert("paper".into(), Value::Object(paper));
    }
    emit(id, &human, &doc)
}

fn fmt_series(series: &[f64], per_day: usize) -> String {
    // Compact day-by-day rendering: one line per day.
    let mut out = String::new();
    for (d, chunk) in series.chunks(per_day).enumerate() {
        let peak = chunk.iter().cloned().fold(0.0f64, f64::max);
        let total: f64 = chunk.iter().sum();
        out.push_str(&format!(
            "  day {d:>2}: total {total:>12.0}   peak/hour {peak:>10.0}\n"
        ));
    }
    out
}

/// Table 3: trace summary.
pub fn exp_t3_summary(rep: &EngineReport) -> io::Result<()> {
    let s = &rep.summary;
    let human = format!(
        "Records           {}\n\
         Unique files      {}\n\
         R/W traffic ratio {:.2}",
        s.records,
        s.unique_files,
        s.download_bytes as f64 / s.upload_bytes.max(1) as f64,
    );
    let vs = [
        (paper::TRACE_DAYS, "summary.trace_days", Fixed(0)),
        (paper::USERS, "summary.unique_users", Fixed(0)),
        (paper::SESSIONS, "summary.sessions", Fixed(0)),
        (paper::TRANSFER_OPS, "summary.transfer_ops", Fixed(0)),
        (paper::UPLOAD_BYTES, "summary.upload_bytes", Bytes),
        (paper::DOWNLOAD_BYTES, "summary.download_bytes", Bytes),
    ];
    emit_vs("t3_summary", human, json!({"summary": s}), &vs)
}

/// Fig. 2(a): traffic time series.
pub fn exp_f2a_traffic_timeseries(rep: &EngineReport) -> io::Result<()> {
    let ts = &rep.traffic;
    let human = format!(
        "Upload bytes per hour, by day:\n{}",
        fmt_series(&ts.upload_bytes, 24)
    );
    let j = json!({"upload_bytes_per_hour": ts.upload_bytes, "download_bytes_per_hour": ts.download_bytes,
                   "diurnal_swing": rep.diurnal_swing});
    let vs = [(paper::UPLOAD_DIURNAL_SWING, "diurnal_swing", Times(1))];
    emit_vs("f2a_traffic_timeseries", human, j, &vs)
}

/// Fig. 2(b): traffic and ops per file-size category.
pub fn exp_f2b_size_categories(rep: &EngineReport) -> io::Result<()> {
    let s = &rep.size_shares;
    let mut human = String::from("size (MB)     up-ops   up-bytes  down-ops down-bytes\n");
    for (i, cat) in s.categories.iter().enumerate() {
        human.push_str(&format!(
            "{:>9}   {:>7}   {:>7}   {:>7}   {:>7}\n",
            cat,
            pct(s.upload_op_share[i]),
            pct(s.upload_byte_share[i]),
            pct(s.download_op_share[i]),
            pct(s.download_byte_share[i]),
        ));
    }
    let j = json!({"shares": {
        "categories": s.categories, "upload_op_share": s.upload_op_share,
        "upload_byte_share": s.upload_byte_share, "download_op_share": s.download_op_share,
        "download_byte_share": s.download_byte_share}});
    // Category 0 holds the paper's tiny files (<0.5MB), category 4 its huge ones (>25MB).
    #[rustfmt::skip]
    let vs = [
        (paper::HUGE_FILE_UPLOAD_BYTE_SHARE, "shares.upload_byte_share.4", Pct),
        (paper::HUGE_FILE_DOWNLOAD_BYTE_SHARE, "shares.download_byte_share.4", Pct),
        (paper::TINY_FILE_UPLOAD_OP_SHARE, "shares.upload_op_share.0", Pct),
        (paper::TINY_FILE_DOWNLOAD_OP_SHARE, "shares.download_op_share.0", Pct),
    ];
    emit_vs("f2b_size_categories", human, j, &vs)
}

/// Fig. 2(c): R/W ratio distribution + ACF.
pub fn exp_f2c_rw_ratio(rep: &EngineReport) -> io::Result<()> {
    let rw = &rep.rw;
    let outside = rw
        .acf
        .lags
        .iter()
        .skip(1)
        .filter(|l| l.abs() > rw.acf.confidence)
        .count();
    let morning: Vec<String> = (6..=15)
        .map(|h| format!("{h}h:{:.2}", rw.by_hour_of_day[h]))
        .collect();
    let human = format!(
        "R/W ratio: min {:.2}, max {:.2}\n\
         ACF: {}/{} lags outside the 95% bound ±{:.3} → {}\n\
         Hour-of-day means 6am→3pm: {}",
        rw.min,
        rw.max,
        outside,
        rw.acf.lags.len().saturating_sub(1),
        rw.acf.confidence,
        if outside * 20 > rw.acf.lags.len() {
            "correlated (non-random), as in the paper"
        } else {
            "mostly uncorrelated"
        },
        morning.join(" "),
    );
    let j = json!({"median": rw.median, "mean": rw.mean,
                   "acf_outside_fraction": outside as f64 / rw.acf.lags.len().max(1) as f64,
                   "by_hour_of_day": rw.by_hour_of_day});
    let vs = [
        (paper::RW_RATIO_MEDIAN, "median", Fixed(2)),
        (paper::RW_RATIO_MEAN, "mean", Fixed(2)),
    ];
    emit_vs("f2c_rw_ratio", human, j, &vs)
}

fn dep_block(
    analysis: &ana::dependencies::DependencyAnalysis,
    deps: &[ana::dependencies::Dependency],
) -> (String, Value) {
    let count = |d: &ana::dependencies::Dependency| {
        let mut counts = analysis.counts.iter();
        counts.find(|(k, _)| k == d).map_or(0, |(_, c)| *c)
    };
    let total: u64 = deps.iter().map(count).sum();
    let mut human = String::new();
    let mut j = serde_json::Map::new();
    for d in deps {
        let count = count(d);
        let ecdf = analysis.times.iter().find(|(k, _)| k == d).map(|(_, e)| e);
        let med = ecdf.map(|e| e.median()).unwrap_or(f64::NAN);
        let under_1h = ecdf.map(|e| e.cdf(3600.0)).unwrap_or(0.0);
        human.push_str(&format!(
            "  {}: {:>7} pairs ({}), median gap {:>10.1}s, {} under 1h\n",
            d.label(),
            count,
            pct(count as f64 / total.max(1) as f64),
            med,
            pct(under_1h),
        ));
        j.insert(
            d.label().to_string(),
            json!({"count": count, "share": count as f64 / total.max(1) as f64,
                   "median_gap_s": med, "under_1h": under_1h}),
        );
    }
    (human, Value::Object(j))
}

/// Fig. 3(a): X-after-Write dependencies.
pub fn exp_f3a_after_write(rep: &EngineReport) -> io::Result<()> {
    let a = &rep.dependencies;
    let (human, j) = dep_block(a, &ana::dependencies::Dependency::AFTER_WRITE);
    let j = json!({"after_write": j, "waw_under_1h": a.waw_under_1h});
    let vs = [
        (paper::WAW_SHARE, "after_write.WAW.share", Pct),
        (paper::RAW_SHARE, "after_write.RAW.share", Pct),
        (paper::DAW_SHARE, "after_write.DAW.share", Pct),
        (paper::WAW_UNDER_1H, "waw_under_1h", Pct),
    ];
    emit_vs("f3a_after_write", human, j, &vs)
}

/// Fig. 3(b): X-after-Read dependencies + reads per file.
pub fn exp_f3b_after_read(rep: &EngineReport) -> io::Result<()> {
    let a = &rep.dependencies;
    let (human, j) = dep_block(a, &ana::dependencies::Dependency::AFTER_READ);
    let human = format!(
        "{human}  reads/file: median {:.0}, p99 {:.0}, max {:.0} (long tail)\n  dying files (>1 day quiet before delete): {} of {} deleted",
        a.reads_per_file.median(),
        a.reads_per_file.quantile(0.99),
        a.reads_per_file.max(),
        a.dying_files,
        a.deleted_files,
    );
    let j = json!({"after_read": j, "rar_under_1d": a.rar_under_1d,
                   "reads_per_file_max": a.reads_per_file.max(),
                   "dying_files": a.dying_files, "deleted_files": a.deleted_files});
    let vs = [
        (paper::WAR_SHARE, "after_read.WAR.share", Pct),
        (paper::RAR_SHARE, "after_read.RAR.share", Pct),
        (paper::DAR_SHARE, "after_read.DAR.share", Pct),
        (paper::RAR_UNDER_1D, "rar_under_1d", Pct),
    ];
    emit_vs("f3b_after_read", human, j, &vs)
}

/// Fig. 3(c): node lifetimes.
pub fn exp_f3c_lifetimes(rep: &EngineReport) -> io::Result<()> {
    let l = &rep.lifetimes;
    let human = format!(
        "files created {}\n\
         dirs  created {}\n\
         median deleted-file lifetime: {:.0}s; median deleted-dir lifetime: {:.0}s",
        l.files_created,
        l.dirs_created,
        l.file_lifetimes.median(),
        l.dir_lifetimes.median(),
    );
    let j = json!({"file_mortality": l.file_mortality, "file_mortality_8h": l.file_mortality_8h,
                   "dir_mortality": l.dir_mortality, "dir_mortality_8h": l.dir_mortality_8h});
    let vs = [
        (paper::FILE_DEATH_IN_MONTH, "file_mortality", Pct),
        (paper::FILE_DEATH_IN_8H, "file_mortality_8h", Pct),
        (paper::DIR_DEATH_IN_MONTH, "dir_mortality", Pct),
        (paper::DIR_DEATH_IN_8H, "dir_mortality_8h", Pct),
    ];
    emit_vs("f3c_lifetimes", human, j, &vs)
}

/// Fig. 4(a): deduplication.
pub fn exp_f4a_dedup(scn: &Scenario, rep: &EngineReport) -> io::Result<()> {
    let d = &rep.dedup;
    let human = format!(
        "store-level dedup ratio (live contents): {:.3}\n\
         most-duplicated content: {} copies (long tail / hot spot)",
        scn.store_dedup_ratio, d.max_copies,
    );
    let j = json!({"dedup_ratio": d.dedup_ratio, "store_dedup_ratio": scn.store_dedup_ratio,
                   "singleton_fraction": d.singleton_fraction, "max_copies": d.max_copies,
                   "unique_contents": d.unique_contents, "total_uploads": d.total_uploads});
    let vs = [
        (paper::DEDUP_RATIO, "dedup_ratio", Fixed(3)),
        (paper::SINGLETON_CONTENTS, "singleton_fraction", Pct),
    ];
    emit_vs("f4a_dedup", human, j, &vs)
}

/// Fig. 4(b): file sizes per extension.
pub fn exp_f4b_sizes_by_ext(rep: &EngineReport) -> io::Result<()> {
    let s = &rep.size_by_ext;
    let mut human = String::from("  ext    median       p90\n");
    let mut by_ext = serde_json::Map::new();
    for (ext, e) in &s.by_ext {
        human.push_str(&format!(
            "  {:<5} {:>10} {:>10}\n",
            ext,
            bytes(e.median() as u64),
            bytes(e.quantile(0.9) as u64)
        ));
        by_ext.insert(
            ext.clone(),
            json!({"median": e.median(), "p90": e.quantile(0.9), "n": e.len()}),
        );
    }
    let j = json!({"under_1mb": s.under_1mb_fraction, "by_ext": by_ext});
    let vs = [(paper::FILES_UNDER_1MB, "under_1mb", Pct)];
    emit_vs("f4b_sizes_by_ext", human, j, &vs)
}

/// Fig. 4(c): category count vs storage share.
pub fn exp_f4c_categories(rep: &EngineReport) -> io::Result<()> {
    let t = &rep.taxonomy;
    let mut human = String::from("category      files   storage\n");
    for (i, cat) in t.categories.iter().enumerate() {
        human.push_str(&format!(
            "{:<12} {:>7} {:>9}\n",
            cat,
            pct(t.file_share[i]),
            pct(t.byte_share[i])
        ));
    }
    let j = json!({"categories": t.categories, "file_share": t.file_share,
                   "byte_share": t.byte_share});
    emit("f4c_categories", &human, &j)
}

/// Fig. 5: DDoS detection.
pub fn exp_f5_ddos(scn: &Scenario, rep: &EngineReport) -> io::Result<()> {
    let attacks = control_attacks(rep);
    let mut human = format!("distinct attack episodes detected: {}\n", attacks.len());
    for (start, end, peak) in &attacks {
        human.push_str(&format!(
            "  day {:>2} hours {}..{}: peak {:.1}x over baseline\n",
            start / 24,
            start,
            end,
            peak
        ));
    }
    human.push_str(&format!(
        "driver ground truth: {} attack sessions, {} attack ops, {} users banned",
        scn.report.attack_sessions, scn.report.attack_ops, scn.report.users_banned
    ));
    let j = json!({
        "detected": attacks.iter().map(|(s, e, p)| json!({"start_hour": s, "end_hour": e, "peak": p})).collect::<Vec<_>>(),
        "ground_truth": {"attack_sessions": scn.report.attack_sessions,
                          "attack_ops": scn.report.attack_ops,
                          "users_banned": scn.report.users_banned},
    });
    emit("f5_ddos", &human, &j)
}

/// The distinct attacks in the session/auth signature (Fig. 5's
/// definition). At small scale single heavy users can legitimately spike
/// the storage series, which the session/auth series are immune to.
fn control_attacks(rep: &EngineReport) -> Vec<(usize, usize, f64)> {
    let control: Vec<_> = rep
        .ddos
        .episodes
        .iter()
        .filter(|e| e.signal != "storage")
        .cloned()
        .collect();
    ana::ddos::distinct_attacks(&control)
}

/// Fig. 6: online vs active users.
pub fn exp_f6_online_active(rep: &EngineReport) -> io::Result<()> {
    let s = &rep.active_online;
    let human = format!("active/online ratio per hour: mean {}", pct(s.mean_ratio));
    let j = json!({"min": s.min_ratio, "mean": s.mean_ratio, "max": s.max_ratio});
    let vs = [
        (paper::ACTIVE_OF_ONLINE_MIN, "min", Pct),
        (paper::ACTIVE_OF_ONLINE_MAX, "max", Pct),
    ];
    emit_vs("f6_online_active", human, j, &vs)
}

/// Fig. 7(a): operation mix.
pub fn exp_f7a_op_mix(rep: &EngineReport) -> io::Result<()> {
    let mix = &rep.op_mix;
    let mut human = String::from("operation            count\n");
    for (name, count) in &mix.counts {
        if *count > 0 {
            human.push_str(&format!("{name:<20} {count:>10}\n"));
        }
    }
    let j = json!({"counts": mix.counts.iter().map(|(n, c)| json!([n, c])).collect::<Vec<_>>()});
    emit("f7a_op_mix", &human, &j)
}

/// Fig. 7(b): per-user traffic distribution.
pub fn exp_f7b_user_traffic(rep: &EngineReport) -> io::Result<()> {
    let t = &rep.inequality;
    let human = format!(
        "active uploader median: {}, p99: {}",
        bytes(t.upload_cdf.median() as u64),
        bytes(t.upload_cdf.quantile(0.99) as u64),
    );
    let j = json!({"users_who_download": t.users_who_download,
                   "users_who_upload": t.users_who_upload});
    let vs = [
        (paper::USERS_WHO_DOWNLOAD, "users_who_download", Pct),
        (paper::USERS_WHO_UPLOAD, "users_who_upload", Pct),
    ];
    emit_vs("f7b_user_traffic", human, j, &vs)
}

/// Fig. 7(c): Lorenz curves and Gini.
pub fn exp_f7c_gini(rep: &EngineReport) -> io::Result<()> {
    let t = &rep.inequality;
    let j = json!({"upload_gini": t.upload_lorenz.gini,
                   "download_gini": t.download_lorenz.gini,
                   "top1_share": t.top1_share,
                   "upload_lorenz": t.upload_lorenz.points});
    let vs = [
        (paper::GINI_UPLOAD, "upload_gini", Fixed(3)),
        (paper::GINI_DOWNLOAD, "download_gini", Fixed(3)),
        (paper::TOP1_TRAFFIC_SHARE, "top1_share", Pct),
    ];
    emit_vs("f7c_gini", String::new(), j, &vs)
}

/// Fig. 8: transition graph.
pub fn exp_f8_transitions(rep: &EngineReport) -> io::Result<()> {
    let g = &rep.markov;
    let mut human = format!(
        "total transitions: {}\ntop edges (global probability):\n",
        g.total_transitions
    );
    for e in g.edges.iter().take(12) {
        human.push_str(&format!(
            "  {:<18} -> {:<18} {:.3}\n",
            e.from, e.to, e.probability
        ));
    }
    let j = json!({
        "total": g.total_transitions,
        "top_edges": g.edges.iter().take(20).map(|e| json!([e.from, e.to, e.probability])).collect::<Vec<_>>(),
        "upload_self": g.probability(ApiOpKind::Upload, ApiOpKind::Upload),
        "download_self": g.probability(ApiOpKind::Download, ApiOpKind::Download),
    });
    let vs = [
        (paper::UPLOAD_SELF_LOOP, "upload_self", Fixed(3)),
        (paper::DOWNLOAD_SELF_LOOP, "download_self", Fixed(3)),
    ];
    emit_vs("f8_transitions", human, j, &vs)
}

/// Fig. 9: burstiness + power-law fits.
pub fn exp_f9_burstiness(rep: &EngineReport) -> io::Result<()> {
    let up = &rep.burst_upload;
    let un = &rep.burst_unlink;
    let fit_line = |b: &ana::burstiness::Burstiness| match &b.fit {
        Some(f) => format!("fit over {} tail samples", f.tail_n),
        None => "insufficient samples".into(),
    };
    let human = format!(
        "Upload inter-op times: {} gaps, CV {:.1} (Poisson would be 1.0) — {}\n\
         Unlink inter-op times: {} gaps, CV {:.1} — {}\n\
         span: {:.2}s .. {:.0}s ({} decades)",
        up.gaps,
        up.cv,
        fit_line(up),
        un.gaps,
        un.cv,
        fit_line(un),
        up.ecdf.min(),
        up.ecdf.max(),
        ((up.ecdf.max() / up.ecdf.min().max(1e-6)).log10()) as i64,
    );
    let j = json!({
        "upload": {"gaps": up.gaps, "cv": up.cv, "fit": up.fit.as_ref().map(|f| json!({"alpha": f.alpha, "theta": f.theta}))},
        "unlink": {"gaps": un.gaps, "cv": un.cv, "fit": un.fit.as_ref().map(|f| json!({"alpha": f.alpha, "theta": f.theta}))},
    });
    let vs = [
        (paper::UPLOAD_INTEROP_ALPHA, "upload.fit.alpha", Fixed(2)),
        (paper::UPLOAD_INTEROP_THETA, "upload.fit.theta", Fixed(1)),
        (paper::UNLINK_INTEROP_ALPHA, "unlink.fit.alpha", Fixed(2)),
        (paper::UNLINK_INTEROP_THETA, "unlink.fit.theta", Fixed(1)),
    ];
    emit_vs("f9_burstiness", human, j, &vs)
}

/// Fig. 10: files vs dirs per volume.
pub fn exp_f10_volume_contents(scn: &Scenario) -> io::Result<()> {
    let c = ana::volumes::volume_contents(&scn.volumes);
    let j = json!({"volumes": c.volumes, "pearson": c.files_dirs_pearson,
                   "with_files": c.with_files, "with_dirs": c.with_dirs,
                   "over_1000_files": c.over_1000_files});
    let vs = [
        (paper::FILES_DIRS_PEARSON, "pearson", Fixed(3)),
        (paper::VOLUMES_WITH_FILES, "with_files", Pct),
        (paper::VOLUMES_WITH_DIRS, "with_dirs", Pct),
        (paper::VOLUMES_OVER_1000_FILES, "over_1000_files", Pct),
    ];
    let human = format!("volumes: {}", c.volumes);
    emit_vs("f10_volume_contents", human, j, &vs)
}

/// Fig. 11: UDF and shared volumes.
pub fn exp_f11_volume_types(scn: &Scenario) -> io::Result<()> {
    let t = ana::volumes::volume_types(&scn.volumes);
    let j =
        json!({"users": t.users, "with_udf": t.users_with_udf, "with_share": t.users_with_share});
    let vs = [
        (paper::USERS_WITH_UDF, "with_udf", Pct),
        (paper::USERS_WITH_SHARE, "with_share", Pct),
    ];
    emit_vs("f11_volume_types", format!("users: {}", t.users), j, &vs)
}

/// Fig. 12: RPC service-time distributions (Table 1 checks their tails).
pub fn exp_f12_rpc_latency(rep: &EngineReport) -> io::Result<()> {
    let a = &rep.rpc;
    let mut human = String::from(
        "rpc                                    panel   class      n     median      p99   far(>10x med)\n",
    );
    let mut rows = Vec::new();
    for p in &a.profiles {
        if p.count == 0 {
            continue;
        }
        human.push_str(&format!(
            "{:<38} {:<7} {:<8} {:>7} {:>9.4}s {:>7.2}s   {}\n",
            p.rpc,
            p.panel,
            p.class,
            p.count,
            p.median_s,
            p.p99_s,
            pct(p.far_from_median),
        ));
        rows.push(json!({"rpc": p.rpc, "panel": p.panel, "class": p.class,
                          "n": p.count, "median_s": p.median_s, "p99_s": p.p99_s,
                          "far_from_median": p.far_from_median}));
    }
    emit("f12_rpc_latency", &human, &json!({"profiles": rows}))
}

/// Fig. 13: median service time vs frequency scatter.
pub fn exp_f13_rpc_scatter(rep: &EngineReport) -> io::Result<()> {
    let a = &rep.rpc;
    let read = a.class_median(RpcClass::Read);
    let write = a.class_median(RpcClass::Write);
    let cascade = a.class_median(RpcClass::Cascade);
    let count = |rpc| a.profile(rpc).map_or(0, |p| p.count);
    let human = format!(
        "class medians: read {read:.4}s < write {write:.4}s < cascade {cascade:.4}s\n\
         cascades are rare: delete_volume n={}, get_from_scratch n={}",
        count(RpcKind::DeleteVolume),
        count(RpcKind::GetFromScratch),
    );
    let j = json!({"read_median": read, "write_median": write, "cascade_median": cascade,
                   "cascade_over_read": cascade / read,
                   "scatter": a.profiles.iter().filter(|p| p.count > 0)
                       .map(|p| json!([p.rpc, p.class, p.count, p.median_s])).collect::<Vec<_>>()});
    let vs = [(paper::CASCADE_OVER_READ, "cascade_over_read", Times(0))];
    emit_vs("f13_rpc_scatter", human, j, &vs)
}

/// Fig. 14: load balance.
pub fn exp_f14_load_balance(rep: &EngineReport) -> io::Result<()> {
    let lb = &rep.load_balance;
    let human = format!(
        "API servers, hourly: mean CV across machines {:.2} (high variance = poor short-window balance)\n\
         store shards, per-minute: mean CV across shards {:.2}",
        lb.api_mean_cv, lb.shard_mean_cv,
    );
    let j = json!({"api_mean_cv": lb.api_mean_cv, "shard_mean_cv": lb.shard_mean_cv,
                   "shard_longrun_cv": lb.shard_longrun_cv});
    let vs = [(paper::SHARD_LONGRUN_IMBALANCE, "shard_longrun_cv", Pct)];
    emit_vs("f14_load_balance", human, j, &vs)
}

/// Fig. 15: auth/session activity.
pub fn exp_f15_auth_activity(rep: &EngineReport) -> io::Result<()> {
    let a = &rep.auth;
    let j = json!({"diurnal_swing": a.diurnal_swing,
                   "monday_over_weekend": a.monday_over_weekend,
                   "auth_failure_fraction": a.auth_failure_fraction,
                   "auth_per_hour": a.auth_per_hour});
    let vs = [
        (paper::AUTH_DIURNAL_SWING, "diurnal_swing", Times(2)),
        (paper::MONDAY_OVER_WEEKEND, "monday_over_weekend", Times(2)),
        (paper::AUTH_FAILURE_RATE, "auth_failure_fraction", Pct),
    ];
    emit_vs("f15_auth_activity", String::new(), j, &vs)
}

/// Fig. 16: session lengths and ops per session.
pub fn exp_f16_sessions(rep: &EngineReport) -> io::Result<()> {
    let s = &rep.sessions;
    let j = json!({"sessions": s.sessions, "under_1s": s.under_1s, "under_8h": s.under_8h,
                   "active_fraction": s.active_fraction, "p80_ops": s.p80_ops,
                   "top20_op_share": s.top20_op_share});
    let vs = [
        (paper::SESSIONS_UNDER_1S, "under_1s", Pct),
        (paper::SESSIONS_UNDER_8H, "under_8h", Pct),
        (paper::ACTIVE_SESSIONS, "active_fraction", Pct),
        (paper::ACTIVE_SESSION_P80_OPS, "p80_ops", Fixed(0)),
        (paper::ACTIVE_SESSION_TOP20_OP_SHARE, "top20_op_share", Pct),
    ];
    emit_vs(
        "f16_sessions",
        format!("closed sessions: {}", s.sessions),
        j,
        &vs,
    )
}

/// Fig. 17 / Table 4: the upload state machine under interruption, resume,
/// cancellation and week-old garbage collection. Self-contained: runs its
/// own mini-backend rather than a whole month.
pub fn exp_f17_uploadjobs() -> io::Result<()> {
    use std::sync::Arc;
    use u1_core::{ContentHash, NodeId, SimClock, SimDuration, UserId};
    use u1_proto::msg::{Request, Response};
    use u1_server::api::{Served, SessionState};
    use u1_server::{Backend, BackendConfig};
    use u1_trace::MemorySink;

    let clock = SimClock::new();
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: u1_auth::AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            ..Default::default()
        },
        Arc::new(clock.clone()),
        Arc::new(MemorySink::new()),
    ));
    let token = backend.register_user(UserId::new(1));
    let mut state = SessionState::new(false);
    // Every request here is answered by one response; `None` is a refusal.
    let mut call = |req| match backend.serve(&mut state, req) {
        Ok(Served::Response(resp)) => Some(resp),
        _ => None,
    };
    let auth = Request::Authenticate {
        token: token.as_bytes().to_vec(),
    };
    call(auth).expect("authenticate");
    let Some(Response::Volumes { volumes }) = call(Request::ListVolumes) else {
        panic!("no volumes");
    };
    let v = volumes[0].volume;

    let mut committed = 0u64;
    let mut resumed = 0u64;
    let mut cancelled = 0u64;
    // 30 uploads of 12MB: 10 clean, 10 interrupted-then-resumed, 5
    // cancelled, 5 abandoned (left for the GC).
    let size = 12u64 << 20;
    let mut abandoned = Vec::new();
    for i in 0..30u64 {
        let make = Request::MakeFile {
            volume: v,
            parent: NodeId::new(0),
            name: format!("f{i}.iso"),
        };
        let Some(Response::NodeCreated { node, .. }) = call(make) else {
            panic!("make f{i}.iso");
        };
        let hash = ContentHash::from_content_id(1000 + i);
        let begin = Request::BeginUpload {
            volume: v,
            node,
            hash,
            size,
        };
        // A dedup hit answers `UploadDone`: nothing to upload.
        let Some(Response::UploadBegun { upload, .. }) = call(begin) else {
            continue;
        };
        let part = |len| Request::UploadChunkSparse { upload, len };
        call(part(5 << 20)).expect("part");
        match i % 6 {
            // 0 and 1 finish cleanly; 2 and 3 are interrupted: the commit
            // is refused, and the upload resumes from the job's one part.
            0..=3 => {
                if i % 6 >= 2 {
                    assert!(call(Request::CommitUpload { upload }).is_none());
                    let offset = 5 << 20;
                    let resume = call(Request::ResumeUpload { upload });
                    assert_eq!(resume, Some(Response::UploadBegun { upload, offset }));
                    resumed += 1;
                }
                call(part(5 << 20)).expect("part");
                call(part(size - (10 << 20))).expect("part");
                call(Request::CommitUpload { upload }).expect("commit");
                committed += 1;
            }
            4 => {
                call(Request::CancelUpload { upload }).expect("cancel");
                cancelled += 1;
            }
            _ => abandoned.push(upload),
        }
    }
    // A week passes: the GC reaps abandoned jobs (Appendix A).
    clock.set(u1_core::SimTime::ZERO + SimDuration::from_days(8));
    let reaped = backend.run_maintenance();
    let stats = backend.blobs.stats();
    let human = format!(
        "committed {committed} (of which resumed after interruption {resumed}), cancelled {cancelled}, \
         abandoned {} → GC reaped {reaped}\n\
         object store: {} multipart initiated, {} completed, {} aborted, {} objects stored",
        abandoned.len(),
        stats.multipart_initiated,
        stats.multipart_completed,
        stats.multipart_aborted,
        stats.objects,
    );
    let j = json!({
        "committed": committed, "resumed": resumed, "cancelled": cancelled,
        "abandoned": abandoned.len(), "gc_reaped": reaped,
        "multipart": {"initiated": stats.multipart_initiated,
                       "completed": stats.multipart_completed,
                       "aborted": stats.multipart_aborted},
    });
    emit("f17_uploadjobs", &human, &j)
}

/// Table 1: the findings checklist, computed from the shared report.
pub fn exp_t1_findings(rep: &EngineReport) -> io::Result<()> {
    let far_mean = {
        let xs: Vec<f64> = rep
            .rpc
            .profiles
            .iter()
            .filter(|p| p.count > 100)
            .map(|p| p.far_from_median)
            .collect();
        ana::stats::mean(&xs)
    };
    #[rustfmt::skip]
    let checks = [
        (paper::FILES_UNDER_1MB, rep.size_by_ext.under_1mb_fraction, 0.08),
        (paper::UPDATE_TRAFFIC, rep.updates.update_traffic_fraction, 0.6),
        (paper::DEDUP_RATIO, rep.dedup.dedup_ratio, 0.5),
        (paper::ATTACKS, control_attacks(rep).len() as f64, 0.35),
        (paper::TOP1_TRAFFIC_SHARE, rep.inequality.top1_share, 0.50),
        (paper::BURSTY, rep.burst_upload.cv, 3.0),
        (paper::RPC_TAILS, far_mean, 0.8),
        (paper::AUTH_FAILURE_RATE, rep.auth.auth_failure_fraction, 2.5),
        (paper::ACTIVE_SESSIONS, rep.sessions.active_fraction, 0.6),
        (paper::SESSIONS_UNDER_8H, rep.sessions.under_8h, 0.05),
    ];
    let findings: Vec<ana::summary::Finding> = checks
        .iter()
        .map(|&(row, measured, tolerance)| ana::summary::Finding {
            id: row.id,
            statement: row.statement.unwrap_or_default(),
            paper_value: row.value,
            measured,
            tolerance,
        })
        .collect();
    let mut human = String::from("finding                paper     measured   holds?\n");
    for f in &findings {
        human.push_str(&format!(
            "{:<20} {:>9.3} {:>11.3}   {}\n",
            f.id,
            f.paper_value,
            f.measured,
            if f.holds() { "yes" } else { "NO" }
        ));
    }
    let holds = findings.iter().filter(|f| f.holds()).count();
    human.push_str(&format!("{holds}/{} findings hold", findings.len()));
    let j = json!({"findings": findings, "holds": holds, "total": findings.len()});
    emit("t1_findings", &human, &j)
}

/// Ablations: quantify the design choices the paper discusses.
pub fn exp_ablations(scn: &Scenario, rep: &EngineReport) -> io::Result<()> {
    // (1) Dedup: bytes avoided = logical - stored uploads.
    let ded = &rep.dedup;
    let dedup_saving = ded.total_bytes.saturating_sub(ded.unique_bytes);
    // (2) Delta updates (the client lacked them): if updates shipped only
    // 10% of the file (typical delta), the saved traffic would be:
    let upd = &rep.updates;
    let delta_saving = (upd.update_bytes as f64 * 0.9) as u64;
    // (3) Warm/cold tiering on the blob store (§9 suggestion).
    let sweep = u1_blobstore::tier::tier_sweep(&scn.backend.blobs, scn.horizon);
    let flat = sweep.monthly_cost_flat();
    let tiered = sweep.monthly_cost();
    let human = format!(
        "dedup-off ablation: {} extra bytes would hit S3 ({} of upload volume)\n\
         delta-updates ablation: shipping 10%-deltas would save {} ({} of upload traffic)\n\
         tiering ablation: flat bill ${flat:.2}/mo vs tiered ${tiered:.2}/mo ({} saved) — {} objects cold",
        bytes(dedup_saving),
        pct(dedup_saving as f64 / ded.total_bytes.max(1) as f64),
        bytes(delta_saving),
        pct(delta_saving as f64 / upd.upload_bytes.max(1) as f64),
        pct(1.0 - tiered / flat.max(f64::MIN_POSITIVE)),
        sweep.cold_objects,
    );
    let j = json!({
        "dedup_saving_bytes": dedup_saving,
        "delta_saving_bytes": delta_saving,
        "tiering": {"flat_monthly": flat, "tiered_monthly": tiered,
                     "cold_objects": sweep.cold_objects},
    });
    emit("ablations", &human, &j)
}

/// The fault plan `exp faults` (and `exp all`) runs under: ~1% shard
/// downtime plus light RPC/part/crash/notify/auth faults.
pub const DEFAULT_FAULTS: &str = "shard=0.01,rpc=0.002,part=0.01,crash=0.01,notify=0.02,auth=0.005";

/// Fault-injection experiment: the same small workload run fault-free and
/// under the plan `spec` names (`light`, or a `key=value` list — see
/// [`FaultPlan::parse`](u1_core::fault::FaultPlan::parse)), reporting error
/// rates and retry-latency inflation from the trace tags. Self-contained
/// like Fig. 17: it runs its own pair of scenarios rather than reusing the
/// shared month. A spec that does not parse is `InvalidInput`.
pub fn exp_faults(spec: &str) -> io::Result<()> {
    use u1_core::fault::FaultPlan;
    use u1_core::SimDuration;
    use u1_workload::WorkloadConfig;

    let cfg = WorkloadConfig {
        users: 300,
        days: 3,
        seed: 0xFA17,
        attacks: false,
        seed_files: 0.5,
        workers: 0,
    };
    let plan = FaultPlan::parse(spec, SimDuration::from_days(cfg.days))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

    let baseline = crate::run_scenario(cfg.clone());
    let faulted = crate::run_scenario_with_faults(cfg, plan);

    let base_f = crate::analyze(&baseline).faults;
    let inj_f = crate::analyze(&faulted).faults;
    let br = &baseline.report;
    let fr = &faulted.report;

    let class_rows: String = inj_f
        .by_class
        .iter()
        .map(|c| format!("    {:<18} {}\n", c.class, c.count))
        .collect();
    #[rustfmt::skip]
    let table = [
        ("", "baseline".to_string(), "faulted".to_string()),
        ("sessions opened", br.sessions_opened.to_string(), fr.sessions_opened.to_string()),
        ("ops executed", br.ops_executed.to_string(), fr.ops_executed.to_string()),
        ("storage error rate", format!("{:.4}", base_f.storage_error_rate), format!("{:.4}", inj_f.storage_error_rate)),
        ("rpc timeouts", br.rpc_timeouts.to_string(), fr.rpc_timeouts.to_string()),
        ("server rpc retries", br.rpc_retries.to_string(), fr.rpc_retries.to_string()),
        ("client retries", br.client_retries.to_string(), fr.client_retries.to_string()),
        ("uploads interrupted/resumed", br.uploads_interrupted.to_string(), fr.uploads_interrupted.to_string()),
        ("auth fallbacks / rescans", fr.auth_fallbacks.to_string(), fr.rescans_forced.to_string()),
        ("retry latency inflation", format!("{:.2}", base_f.retry_latency_inflation), format!("{:.2}", inj_f.retry_latency_inflation)),
    ];
    let rows: String = table
        .iter()
        .map(|(label, base, faulted)| format!("{label:<28} {base:>10} {faulted:>10}\n"))
        .collect();
    let human = format!("fault plan: {spec}\n\n{rows}error classes (faulted):\n{class_rows}");
    let j = json!({"plan": spec, "baseline": {"report": br, "faults": base_f},
                   "faulted": {"report": fr, "faults": inj_f}});
    emit("faults", &human, &j)
}
