//! A reference for every field of the analytics report, computed straight
//! from the paper's definitions over the raw records.
//!
//! It shares no code with the battery: no step function, entity table,
//! `Battery`, `Ecdf` constructor, `lorenz` or `fit_power_law`, only plain
//! `BTreeMap`s, `Vec`s and sorts. It takes the core vocabulary as given:
//! operation and RPC kinds, size buckets, file categories, error classes
//! and calendar arithmetic on `SimTime`. Where the paper leaves a choice
//! open, the reference makes the one DESIGN.md §10 lists.
//!
//! [`check`] compares a report with the reference:
//! * counts and sorted samples exactly;
//! * a float that both sides compute by the same arithmetic in the same
//!   order exactly (NaN equals NaN, and −0 equals +0);
//! * any other float within the bound stated beside it.
//!
//! Every report struct is destructured without `..`, so a new field does
//! not compile until it is either compared or listed in [`NOT_CHECKED`].

use std::collections::{BTreeMap, BTreeSet};
use u1_analytics::burstiness::Burstiness;
use u1_analytics::ddos::DdosReport;
use u1_analytics::dedup::DedupAnalysis;
use u1_analytics::dependencies::{DependencyAnalysis, LifetimeAnalysis};
use u1_analytics::engine::{EngineConfig, EngineReport, EXTS, LB_MINUTES};
use u1_analytics::faults::{ClassCount, FaultAnalysis};
use u1_analytics::markov::{Edge, TransitionGraph};
use u1_analytics::rpc::{LoadBalance, RpcAnalysis, RpcProfile};
use u1_analytics::sessions::{AuthActivity, SessionAnalysis};
use u1_analytics::stats::{Acf, Lorenz, PowerLawFit};
use u1_analytics::storage::{
    RwRatioAnalysis, SizeByExtension, SizeCategoryShares, TaxonomyShares, UpdateAnalysis,
};
use u1_analytics::summary::TraceSummary;
use u1_analytics::timeseries::{OnlineActiveSeries, TrafficSeries};
use u1_analytics::users::{ActiveOnlineSummary, ClassShares, OpMix, TrafficInequality};
use u1_analytics::Ecdf;
use u1_core::fault::ErrorClass;
use u1_core::{
    ApiOpKind, ByteSize, ContentHash, FileCategory, NodeKind, RpcKind, SimDuration, SimTime,
    SizeCategory,
};
use u1_trace::{Payload, SessionEvent, StorageDone, TraceRecord};

/// Report fields the reference does not recompute, each with the reason.
pub const NOT_CHECKED: &[(&str, &str)] = &[(
    "ddos.episodes",
    "the detector's episode rule is this repo's algorithm, not a paper \
     definition; its three hourly input series are compared instead",
)];

/// The Gini coefficients: the report's sorted-rank formula and the
/// reference's mean absolute difference agree to a few ulps of 1.
const GINI_BOUND: f64 = 1e-12;

/// `far_from_median`: the report's `1 − P(X ≤ 10·median)` and the
/// reference's `#{X > 10·median} / n` differ by at most one rounding.
const FAR_BOUND: f64 = 4.0 * f64::EPSILON;

/// The last abscissa of a CCDF plot, `lo·(hi/lo)^1`, against `hi`.
const CCDF_END_BOUND: f64 = 1e-12;

const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 24 * HOUR_US;

/// Checks every field of `report` against the reference over `recs`, the
/// records `report` was folded from, under `cfg`.
pub fn check(report: &EngineReport, recs: &[TraceRecord], cfg: &EngineConfig) {
    let EngineReport {
        summary,
        traffic,
        diurnal_swing,
        online_active,
        active_online,
        size_shares,
        rw,
        updates,
        taxonomy,
        size_by_ext,
        dedup,
        dependencies,
        lifetimes,
        ddos,
        op_mix,
        inequality,
        class_shares,
        markov,
        burst_upload,
        burst_unlink,
        rpc,
        load_balance,
        auth,
        sessions,
        faults,
    } = report;
    let hourly = Hourly::of(recs, cfg.horizon);
    check_summary(summary, recs, cfg.horizon);
    check_traffic(traffic, *diurnal_swing, rw, &hourly);
    check_online(online_active, active_online, recs, cfg.horizon);
    check_sizes(size_shares, size_by_ext, recs);
    check_nodes(updates, taxonomy, recs);
    check_dedup(dedup, recs);
    check_dependencies(dependencies, recs);
    check_lifetimes(lifetimes, recs);
    check_ddos(ddos, &hourly);
    check_op_mix(op_mix, recs);
    check_users(inequality, class_shares, recs);
    check_markov(markov, recs);
    check_burst(burst_upload, ApiOpKind::Upload, recs);
    check_burst(burst_unlink, ApiOpKind::Unlink, recs);
    check_rpc(rpc, recs);
    check_load(load_balance, recs, cfg);
    check_auth(auth, recs, &hourly);
    check_sessions(sessions, recs);
    check_faults(faults, recs);
}

// ---- comparison -------------------------------------------------------

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
        || (a.is_nan() && b.is_nan())
        || (a.abs().to_bits() == 0 && b.abs().to_bits() == 0)
}

fn exact(what: &str, got: f64, want: f64) {
    assert!(
        same(got, want),
        "{what}: report {got:?}, reference {want:?}"
    );
}

fn near(what: &str, got: f64, want: f64, bound: f64) {
    assert!(
        same(got, want) || (got - want).abs() <= bound,
        "{what}: report {got:?}, reference {want:?} (bound {bound:e})"
    );
}

fn exact_all(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        exact(&format!("{what}[{i}]"), g, w);
    }
}

fn exact_pairs(what: &str, got: &[(f64, f64)], want: &[(f64, f64)]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        exact(&format!("{what}[{i}].0"), g.0, w.0);
        exact(&format!("{what}[{i}].1"), g.1, w.1);
    }
}

/// A distribution output against its sorted sample vector.
fn samples(what: &str, got: &Ecdf, want: &[f64]) {
    exact_all(what, got.samples(), want);
}

/// A field the reference skips; it must be listed in [`NOT_CHECKED`].
fn skipped(path: &str) {
    assert!(
        NOT_CHECKED.iter().any(|(p, _)| *p == path),
        "{path} is neither compared nor in NOT_CHECKED"
    );
}

// ---- definitions --------------------------------------------------------

fn secs(us: u64) -> f64 {
    SimDuration::from_micros(us).as_secs_f64()
}

/// Sorted integer samples as sorted `f64` samples.
fn sorted(mut xs: Vec<u64>, unit: impl Fn(u64) -> f64) -> Vec<f64> {
    xs.sort_unstable();
    xs.into_iter().map(unit).collect()
}

fn count(x: u64) -> f64 {
    x as f64
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation over population mean.
fn cv(xs: &[f64]) -> f64 {
    stddev(xs) / mean(xs)
}

fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// `k / n`, or 0 with nothing to divide by.
fn frac(k: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        k as f64 / n as f64
    }
}

/// The q-quantile of sorted samples: the order statistic at ⌊(n−1)q⌋.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).floor() as usize]
}

fn hours(horizon: SimTime) -> usize {
    (horizon.as_micros().div_ceil(HOUR_US) as usize).max(1)
}

fn hour(t: SimTime) -> usize {
    (t.as_micros() / HOUR_US) as usize
}

/// The successful storage records, with their times.
fn done(recs: &[TraceRecord]) -> impl Iterator<Item = (SimTime, &StorageDone)> {
    recs.iter().filter_map(|r| match &r.payload {
        Payload::Storage(d) if d.success => Some((r.t, &**d)),
        _ => None,
    })
}

/// Per-hour request and byte counts over `[0, horizon)`.
struct Hourly {
    up: Vec<u64>,
    down: Vec<u64>,
    session: Vec<u64>,
    auth: Vec<u64>,
    storage: Vec<u64>,
}

impl Hourly {
    fn of(recs: &[TraceRecord], horizon: SimTime) -> Self {
        let n = hours(horizon);
        let mut h = Hourly {
            up: vec![0; n],
            down: vec![0; n],
            session: vec![0; n],
            auth: vec![0; n],
            storage: vec![0; n],
        };
        for r in recs.iter().filter(|r| r.t < horizon) {
            let i = hour(r.t);
            match &r.payload {
                Payload::Session { .. } => h.session[i] += 1,
                Payload::Auth { .. } => h.auth[i] += 1,
                Payload::Storage(d) => {
                    h.storage[i] += 1;
                    match (d.success, d.op) {
                        (true, ApiOpKind::Upload) => h.up[i] += d.size,
                        (true, ApiOpKind::Download) => h.down[i] += d.size,
                        _ => {}
                    }
                }
                Payload::Rpc { .. } => {}
            }
        }
        h
    }
}

/// Hourly values grouped by hour of day.
fn hour_of_day_groups(hourly: impl Iterator<Item = (usize, f64)>) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); 24];
    for (i, x) in hourly {
        out[i % 24].push(x);
    }
    out
}

fn as_f64(xs: &[u64]) -> Vec<f64> {
    xs.iter().map(|&x| x as f64).collect()
}

// ---- Table 3 --------------------------------------------------------------

fn check_summary(s: &TraceSummary, recs: &[TraceRecord], horizon: SimTime) {
    let TraceSummary {
        trace_days,
        records,
        unique_users,
        unique_files,
        sessions,
        transfer_ops,
        upload_bytes,
        download_bytes,
    } = s;
    // The population is every user id in any record.
    let users: BTreeSet<u64> = recs.iter().map(|r| r.payload.user().raw()).collect();
    let files: BTreeSet<u64> = done(recs)
        .filter_map(|(_, d)| d.node)
        .map(|n| n.raw())
        .collect();
    let opens = recs
        .iter()
        .filter(|r| {
            matches!(
                r.payload,
                Payload::Session {
                    event: SessionEvent::Open,
                    ..
                }
            )
        })
        .count() as u64;
    let bytes = |op| {
        done(recs)
            .filter(move |(_, d)| d.op == op)
            .map(|(_, d)| d.size)
    };
    let transfers = done(recs)
        .filter(|(_, d)| matches!(d.op, ApiOpKind::Upload | ApiOpKind::Download))
        .count() as u64;
    assert_eq!(*trace_days, horizon.day_index(), "summary.trace_days");
    assert_eq!(*records, recs.len() as u64, "summary.records");
    assert_eq!(*unique_users, users.len() as u64, "summary.unique_users");
    assert_eq!(*unique_files, files.len() as u64, "summary.unique_files");
    assert_eq!(*sessions, opens, "summary.sessions");
    assert_eq!(*transfer_ops, transfers, "summary.transfer_ops");
    assert_eq!(
        *upload_bytes,
        bytes(ApiOpKind::Upload).sum::<u64>(),
        "summary.upload_bytes"
    );
    assert_eq!(
        *download_bytes,
        bytes(ApiOpKind::Download).sum::<u64>(),
        "summary.download_bytes"
    );
}

// ---- Fig. 2(a), 2(c) -------------------------------------------------------

fn check_traffic(t: &TrafficSeries, swing: f64, rw: &RwRatioAnalysis, hourly: &Hourly) {
    let TrafficSeries {
        upload_bytes,
        download_bytes,
    } = t;
    let up = as_f64(&hourly.up);
    let down = as_f64(&hourly.down);
    exact_all("traffic.upload_bytes", upload_bytes, &up);
    exact_all("traffic.download_bytes", download_bytes, &down);

    // The busiest hour of day's mean upload volume over the quietest's
    // (floored at one byte).
    let means: Vec<f64> = hour_of_day_groups(up.iter().copied().enumerate())
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| mean(v))
        .collect();
    let peak = means.iter().copied().reduce(f64::max).unwrap_or(0.0);
    let trough = means.iter().copied().reduce(f64::min).unwrap_or(f64::MAX);
    exact("diurnal_swing", swing, peak / trough.max(1.0));

    let RwRatioAnalysis {
        hourly: ratios,
        median,
        mean: rw_mean,
        min,
        max,
        acf: Acf { lags, confidence },
        by_hour_of_day,
    } = rw;
    // Hours where both directions carry more than 2% of their mean hourly
    // volume (at least one byte).
    let floor = |xs: &[f64]| 0.02 * mean(xs).max(1.0);
    let (up_floor, down_floor) = (floor(&up), floor(&down));
    let kept: Vec<(usize, f64)> = up
        .iter()
        .zip(&down)
        .enumerate()
        .filter(|(_, (&u, &d))| u > up_floor && d > down_floor)
        .map(|(i, (&u, &d))| (i, d / u))
        .collect();
    let series: Vec<f64> = kept.iter().map(|&(_, r)| r).collect();
    exact_all("rw.hourly", ratios, &series);
    let mut asc = series.clone();
    asc.sort_by(f64::total_cmp);
    exact("rw.median", *median, quantile(&asc, 0.5));
    exact("rw.mean", *rw_mean, mean(&asc));
    exact("rw.min", *min, asc.first().copied().unwrap_or(f64::NAN));
    exact("rw.max", *max, asc.last().copied().unwrap_or(f64::NAN));
    // Sample autocorrelation r_k = Σ (x_i − m)(x_{i+k} − m) / Σ (x_i − m)²,
    // lags 0 to min(n − 1, 700).
    let n = series.len();
    let m = mean(&series);
    let denom: f64 = series.iter().map(|x| (x - m).powi(2)).sum();
    let want_lags: Vec<f64> = (0..=n.saturating_sub(1).min(700))
        .map(|k| {
            if denom <= 0.0 {
                return 0.0;
            }
            let num: f64 = (0..n - k)
                .map(|i| (series[i] - m) * (series[i + k] - m))
                .sum();
            num / denom
        })
        .collect();
    exact_all("rw.acf.lags", lags, &want_lags);
    exact("rw.acf.confidence", *confidence, 2.0 / (n as f64).sqrt());
    let profile = hour_of_day_groups(kept.iter().copied());
    let profile: Vec<f64> = profile.iter().map(|v| mean(v)).collect();
    exact_all("rw.by_hour_of_day", by_hour_of_day, &profile);
}

// ---- Fig. 6 -----------------------------------------------------------------

fn check_online(
    series: &OnlineActiveSeries,
    summary: &ActiveOnlineSummary,
    recs: &[TraceRecord],
    horizon: SimTime,
) {
    let OnlineActiveSeries { online, active } = series;
    let bins = hours(horizon);
    let mut on: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); bins];
    let mut act: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); bins];
    let mut mark = |user: u64, from: SimTime, to: SimTime| {
        let hours = on.iter_mut().take(hour(to).min(bins - 1) + 1);
        for users in hours.skip(hour(from)) {
            users.insert(user);
        }
    };
    // A user is online in every hour from a session's open to its close.
    // A re-open replaces an unclosed open of the same id; a close with no
    // open marks its own instant; an open never closed lasts to the end.
    let mut open: BTreeMap<u64, (u64, SimTime)> = BTreeMap::new();
    for r in recs {
        match &r.payload {
            Payload::Session {
                event,
                session,
                user,
            } => {
                if *event == SessionEvent::Open {
                    open.insert(session.raw(), (user.raw(), r.t));
                } else {
                    let (u, from) = open.remove(&session.raw()).unwrap_or((user.raw(), r.t));
                    mark(u, from, r.t.min(horizon));
                }
            }
            Payload::Storage(d) if d.success && d.op.is_data_management() && r.t < horizon => {
                act[hour(r.t)].insert(d.user.raw());
            }
            _ => {}
        }
    }
    let end = SimTime::from_micros(horizon.as_micros().saturating_sub(1));
    for (u, from) in open.into_values() {
        mark(u, from, end);
    }
    let on: Vec<u64> = on.iter().map(|s| s.len() as u64).collect();
    let act: Vec<u64> = act.iter().map(|s| s.len() as u64).collect();
    assert_eq!(online, &on, "online_active.online");
    assert_eq!(active, &act, "online_active.active");

    let ActiveOnlineSummary {
        min_ratio,
        max_ratio,
        mean_ratio,
    } = summary;
    let ratios: Vec<f64> = on
        .iter()
        .zip(&act)
        .filter(|(&o, _)| o > 0)
        .map(|(&o, &a)| a as f64 / o as f64)
        .collect();
    let lo = ratios.iter().copied().reduce(f64::min).unwrap_or(f64::MAX);
    let hi = ratios.iter().copied().fold(0.0, f64::max);
    exact("active_online.min_ratio", *min_ratio, lo);
    exact("active_online.max_ratio", *max_ratio, hi);
    exact("active_online.mean_ratio", *mean_ratio, mean(&ratios));
}

// ---- Fig. 2(b), 4(b) ----------------------------------------------------------

fn check_sizes(shares: &SizeCategoryShares, by_ext: &SizeByExtension, recs: &[TraceRecord]) {
    let SizeCategoryShares {
        categories,
        upload_op_share,
        upload_byte_share,
        download_op_share,
        download_byte_share,
    } = shares;
    let labels: Vec<&str> = SizeCategory::ALL.iter().map(|c| c.label()).collect();
    assert_eq!(categories, &labels, "size_shares.categories");
    for (op, ops_got, bytes_got, name) in [
        (
            ApiOpKind::Upload,
            upload_op_share,
            upload_byte_share,
            "upload",
        ),
        (
            ApiOpKind::Download,
            download_op_share,
            download_byte_share,
            "download",
        ),
    ] {
        let mut ops = [0u64; 5];
        let mut bytes = [0u64; 5];
        for (_, d) in done(recs).filter(|(_, d)| d.op == op) {
            let c = SizeCategory::ALL
                .iter()
                .position(|&c| c == SizeCategory::of(ByteSize(d.size)))
                .expect("every size has a bucket");
            ops[c] += 1;
            bytes[c] += d.size;
        }
        let share = |xs: &[u64; 5]| -> Vec<f64> {
            let total = xs.iter().sum();
            xs.iter().map(|&x| frac(x, total)).collect()
        };
        exact_all(&format!("size_shares.{name}_op"), ops_got, &share(&ops));
        exact_all(
            &format!("size_shares.{name}_byte"),
            bytes_got,
            &share(&bytes),
        );
    }

    let SizeByExtension {
        all,
        by_ext: curves,
        under_1mb_fraction,
    } = by_ext;
    let uploads: Vec<&StorageDone> = done(recs)
        .filter(|(_, d)| d.op == ApiOpKind::Upload)
        .map(|(_, d)| d)
        .collect();
    let sizes: Vec<u64> = uploads.iter().map(|d| d.size).collect();
    let small = sizes.iter().filter(|&&s| s <= 1_000_000).count() as u64;
    samples("size_by_ext.all", all, &sorted(sizes.clone(), count));
    exact(
        "size_by_ext.under_1mb_fraction",
        *under_1mb_fraction,
        frac(small, sizes.len() as u64),
    );
    // One curve per requested extension that was uploaded, in request order.
    let want: Vec<(&str, Vec<u64>)> = EXTS
        .iter()
        .map(|&e| {
            let of_ext = uploads.iter().filter(|d| d.ext.as_str() == e);
            (e, of_ext.map(|d| d.size).collect::<Vec<u64>>())
        })
        .filter(|(_, s)| !s.is_empty())
        .collect();
    assert_eq!(curves.len(), want.len(), "size_by_ext.by_ext: curves");
    for ((name, ecdf), (e, s)) in curves.iter().zip(want) {
        assert_eq!(name, e, "size_by_ext.by_ext: extension");
        samples(&format!("size_by_ext.by_ext[{e}]"), ecdf, &sorted(s, count));
    }
}

// ---- §5.1 updates, Fig. 4(c) ----------------------------------------------------

/// An upload's hash, size and extension.
type Upload<'a> = (Option<ContentHash>, u64, &'a str);

fn check_nodes(updates: &UpdateAnalysis, taxonomy: &TaxonomyShares, recs: &[TraceRecord]) {
    // Each node's successful uploads, in trace order.
    let mut nodes: BTreeMap<u64, Vec<Upload>> = BTreeMap::new();
    for (_, d) in done(recs).filter(|(_, d)| d.op == ApiOpKind::Upload) {
        if let Some(n) = d.node {
            let ext: &str = d.ext.as_str();
            nodes
                .entry(n.raw())
                .or_default()
                .push((d.hash, d.size, ext));
        }
    }
    let UpdateAnalysis {
        uploads,
        update_uploads,
        upload_bytes,
        update_bytes,
        update_op_fraction,
        update_traffic_fraction,
    } = updates;
    // An update is an upload to a node whose previous upload had a
    // different hash or size.
    let all = nodes.values().flatten();
    let (n, bytes) = (all.clone().count() as u64, all.map(|u| u.1).sum::<u64>());
    let changed = nodes
        .values()
        .flat_map(|ups| {
            ups.windows(2)
                .filter(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1))
        })
        .map(|w| w[1].1);
    let (k, k_bytes) = (changed.clone().count() as u64, changed.sum::<u64>());
    assert_eq!(*uploads, n, "updates.uploads");
    assert_eq!(*upload_bytes, bytes, "updates.upload_bytes");
    assert_eq!(*update_uploads, k, "updates.update_uploads");
    assert_eq!(*update_bytes, k_bytes, "updates.update_bytes");
    exact(
        "updates.update_op_fraction",
        *update_op_fraction,
        frac(k, n),
    );
    exact(
        "updates.update_traffic_fraction",
        *update_traffic_fraction,
        frac(k_bytes, bytes),
    );

    // Every uploaded node once, in the category and size of its last upload.
    let TaxonomyShares {
        categories,
        file_share,
        byte_share,
    } = taxonomy;
    let labels: Vec<&str> = FileCategory::ALL.iter().map(|c| c.label()).collect();
    assert_eq!(categories, &labels, "taxonomy.categories");
    let mut files = [0u64; 7];
    let mut sizes = [0u64; 7];
    for ups in nodes.values() {
        let &(_, size, ext) = ups.last().expect("a node here has an upload");
        let cat = FileCategory::of_extension(ext);
        let c = FileCategory::ALL.iter().position(|&x| x == cat).unwrap();
        files[c] += 1;
        sizes[c] += size;
    }
    let share = |xs: &[u64; 7]| -> Vec<f64> {
        let total = xs.iter().sum::<u64>().max(1);
        xs.iter().map(|&x| frac(x, total)).collect()
    };
    exact_all("taxonomy.file_share", file_share, &share(&files));
    exact_all("taxonomy.byte_share", byte_share, &share(&sizes));
}

// ---- Fig. 4(a) -------------------------------------------------------------------

fn check_dedup(d: &DedupAnalysis, recs: &[TraceRecord]) {
    let DedupAnalysis {
        unique_contents,
        total_uploads,
        unique_bytes,
        total_bytes,
        dedup_ratio,
        singleton_fraction,
        copies_per_content,
        max_copies,
    } = d;
    // A hash names one content of one size: where a trace gives it two
    // sizes, its last upload's size stands for every copy.
    let mut contents: BTreeMap<ContentHash, (u64, u64)> = BTreeMap::new();
    for (_, up) in done(recs).filter(|(_, d)| d.op == ApiOpKind::Upload) {
        if let Some(h) = up.hash {
            let c = contents.entry(h).or_default();
            *c = (c.0 + 1, up.size);
        }
    }
    let copies: Vec<u64> = contents.values().map(|c| c.0).collect();
    let unique: u64 = contents.values().map(|c| c.1).sum();
    let total: u64 = contents.values().map(|c| c.0 * c.1).sum();
    let singles = copies.iter().filter(|&&c| c == 1).count() as u64;
    assert_eq!(
        *unique_contents,
        contents.len() as u64,
        "dedup.unique_contents"
    );
    assert_eq!(
        *total_uploads,
        copies.iter().sum::<u64>(),
        "dedup.total_uploads"
    );
    assert_eq!(*unique_bytes, unique, "dedup.unique_bytes");
    assert_eq!(*total_bytes, total, "dedup.total_bytes");
    assert_eq!(
        *max_copies,
        copies.iter().copied().max().unwrap_or(0),
        "dedup.max_copies"
    );
    // dr = 1 − D_unique / D_total.
    let dr = if total == 0 {
        0.0
    } else {
        1.0 - unique as f64 / total as f64
    };
    exact("dedup.dedup_ratio", *dedup_ratio, dr);
    exact(
        "dedup.singleton_fraction",
        *singleton_fraction,
        frac(singles, contents.len() as u64),
    );
    samples(
        "dedup.copies_per_content",
        copies_per_content,
        &sorted(copies, count),
    );
}

// ---- Fig. 3(a), 3(b) ---------------------------------------------------------------

fn check_dependencies(a: &DependencyAnalysis, recs: &[TraceRecord]) {
    let DependencyAnalysis {
        times,
        counts,
        reads_per_file,
        waw_under_1h,
        rar_under_1d,
        dying_files,
        deleted_files,
        total_files,
    } = a;
    // Each file node's Write (upload), Read (download) and Delete (unlink)
    // events, in trace order. Records that name a directory are not file
    // events.
    let mut nodes: BTreeMap<u64, Vec<(char, SimTime)>> = BTreeMap::new();
    for (t, d) in done(recs) {
        let ev = match d.op {
            ApiOpKind::Upload => 'W',
            ApiOpKind::Download => 'R',
            ApiOpKind::Unlink => 'D',
            _ => continue,
        };
        if let (Some(n), false) = (d.node, d.kind == Some(NodeKind::Directory)) {
            nodes.entry(n.raw()).or_default().push((ev, t));
        }
    }
    // Consecutive pairs X-after-Y, where Y is a write or a read; nothing
    // pairs with what follows a delete. A delete more than a day after the
    // node's previous event is a dying file.
    let labels = ["WAW", "RAW", "DAW", "WAR", "RAR", "DAR"];
    let mut gaps: BTreeMap<&str, Vec<u64>> = labels.iter().map(|&l| (l, Vec::new())).collect();
    let (mut dying, mut deleted) = (0, 0);
    let mut reads = Vec::new();
    for evs in nodes.values() {
        let mut prev: Option<(char, SimTime)> = None;
        for &(ev, t) in evs {
            if let Some((p, t0)) = prev {
                let gap = t.since(t0).as_micros();
                let label = format!("{ev}A{p}");
                gaps.get_mut(label.as_str()).expect("six kinds").push(gap);
                dying += u64::from(ev == 'D' && gap > DAY_US);
            }
            deleted += u64::from(ev == 'D');
            prev = (ev != 'D').then_some((ev, t));
        }
        reads.push(evs.iter().filter(|e| e.0 == 'R').count() as u64);
    }
    assert_eq!(times.len(), 6, "dependencies.times");
    assert_eq!(counts.len(), 6, "dependencies.counts");
    for (((dep, ecdf), (dep2, n)), label) in times.iter().zip(counts).zip(labels) {
        assert_eq!(
            (dep.label(), dep2.label()),
            (label, label),
            "dependency order"
        );
        let g = &gaps[label];
        assert_eq!(*n, g.len() as u64, "dependencies.counts[{label}]");
        samples(
            &format!("dependencies.times[{label}]"),
            ecdf,
            &sorted(g.clone(), secs),
        );
    }
    let under = |label: &str, limit: u64| {
        let g = &gaps[label];
        frac(
            g.iter().filter(|&&us| us <= limit).count() as u64,
            g.len() as u64,
        )
    };
    exact(
        "dependencies.waw_under_1h",
        *waw_under_1h,
        under("WAW", HOUR_US),
    );
    exact(
        "dependencies.rar_under_1d",
        *rar_under_1d,
        under("RAR", DAY_US),
    );
    assert_eq!(*dying_files, dying, "dependencies.dying_files");
    assert_eq!(*deleted_files, deleted, "dependencies.deleted_files");
    assert_eq!(*total_files, nodes.len() as u64, "dependencies.total_files");
    reads.retain(|&r| r > 0);
    samples(
        "dependencies.reads_per_file",
        reads_per_file,
        &sorted(reads, count),
    );
}

// ---- Fig. 3(c) -------------------------------------------------------------------

fn check_lifetimes(l: &LifetimeAnalysis, recs: &[TraceRecord]) {
    let LifetimeAnalysis {
        file_lifetimes,
        dir_lifetimes,
        files_created,
        dirs_created,
        file_mortality,
        dir_mortality,
        file_mortality_8h,
        dir_mortality_8h,
    } = l;
    // A node is created by its first make; a make of a live node only
    // refreshes its creation (kind and time). An unlink of a live node ends
    // one lifetime; an unlink of a node not live is ignored.
    let mut live: BTreeMap<u64, (NodeKind, SimTime)> = BTreeMap::new();
    let mut created: BTreeMap<bool, u64> = BTreeMap::new();
    let mut lifetimes: BTreeMap<bool, Vec<u64>> = BTreeMap::new();
    for (t, d) in done(recs) {
        let Some(n) = d.node.map(|n| n.raw()) else {
            continue;
        };
        let kind = match d.op {
            ApiOpKind::MakeFile => NodeKind::File,
            ApiOpKind::MakeDir => NodeKind::Directory,
            ApiOpKind::Unlink => {
                if let Some((k, t0)) = live.remove(&n) {
                    let lts = lifetimes.entry(k == NodeKind::File).or_default();
                    lts.push(t.since(t0).as_micros());
                }
                continue;
            }
            _ => continue,
        };
        if live.insert(n, (kind, t)).is_none() {
            *created.entry(kind == NodeKind::File).or_default() += 1;
        }
    }
    for (is_file, ecdf, made, mortality, mortality_8h, name) in [
        (
            true,
            file_lifetimes,
            files_created,
            file_mortality,
            file_mortality_8h,
            "file",
        ),
        (
            false,
            dir_lifetimes,
            dirs_created,
            dir_mortality,
            dir_mortality_8h,
            "dir",
        ),
    ] {
        let lts = lifetimes.remove(&is_file).unwrap_or_default();
        let n = created.get(&is_file).copied().unwrap_or(0);
        let young = lts.iter().filter(|&&us| us <= 8 * HOUR_US).count() as u64;
        assert_eq!(*made, n, "lifetimes.{name}s_created");
        exact(
            &format!("lifetimes.{name}_mortality"),
            *mortality,
            frac(lts.len() as u64, n),
        );
        exact(
            &format!("lifetimes.{name}_mortality_8h"),
            *mortality_8h,
            frac(young, n),
        );
        samples(
            &format!("lifetimes.{name}_lifetimes"),
            ecdf,
            &sorted(lts, secs),
        );
    }
}

// ---- Fig. 5 ------------------------------------------------------------------------

fn check_ddos(d: &DdosReport, hourly: &Hourly) {
    let DdosReport {
        episodes: _,
        session_per_hour,
        auth_per_hour,
        storage_per_hour,
    } = d;
    skipped("ddos.episodes");
    exact_all(
        "ddos.session_per_hour",
        session_per_hour,
        &as_f64(&hourly.session),
    );
    exact_all("ddos.auth_per_hour", auth_per_hour, &as_f64(&hourly.auth));
    exact_all(
        "ddos.storage_per_hour",
        storage_per_hour,
        &as_f64(&hourly.storage),
    );
}

// ---- Fig. 7 ------------------------------------------------------------------------

fn check_op_mix(m: &OpMix, recs: &[TraceRecord]) {
    let OpMix { counts } = m;
    // Every request counts, failed or not: storage ops by kind, session
    // opens and closes, authentications. RPCs are not operations.
    let mut n: BTreeMap<usize, u64> = BTreeMap::new();
    for r in recs {
        let op = match &r.payload {
            Payload::Storage(d) => d.op,
            Payload::Session {
                event: SessionEvent::Open,
                ..
            } => ApiOpKind::OpenSession,
            Payload::Session { .. } => ApiOpKind::CloseSession,
            Payload::Auth { .. } => ApiOpKind::Authenticate,
            Payload::Rpc { .. } => continue,
        };
        let i = ApiOpKind::ALL.iter().position(|&k| k == op).unwrap();
        *n.entry(i).or_default() += 1;
    }
    // Descending by count; ties in declaration order.
    let mut want: Vec<(usize, u64)> = (0..ApiOpKind::ALL.len())
        .map(|i| (i, n.get(&i).copied().unwrap_or(0)))
        .collect();
    want.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
    let want: Vec<(&str, u64)> = want
        .into_iter()
        .map(|(i, c)| (ApiOpKind::ALL[i].display_name(), c))
        .collect();
    assert_eq!(counts, &want, "op_mix.counts");
}

fn check_users(ineq: &TrafficInequality, classes: &ClassShares, recs: &[TraceRecord]) {
    // Every user in any record, with the bytes of their successful
    // uploads and downloads.
    let mut users: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in recs {
        let u = users.entry(r.payload.user().raw()).or_default();
        match r.payload.storage() {
            Some(d) if d.success && d.op == ApiOpKind::Upload => u.0 += d.size,
            Some(d) if d.success && d.op == ApiOpKind::Download => u.1 += d.size,
            _ => {}
        }
    }
    let n = users.len() as u64;
    let TrafficInequality {
        users: population,
        users_who_download,
        users_who_upload,
        upload_cdf,
        download_cdf,
        upload_lorenz,
        download_lorenz,
        top1_share,
    } = ineq;
    assert_eq!(*population, n, "inequality.users");
    let ups: Vec<u64> = users.values().map(|u| u.0).filter(|&x| x > 0).collect();
    let downs: Vec<u64> = users.values().map(|u| u.1).filter(|&x| x > 0).collect();
    exact(
        "inequality.users_who_upload",
        *users_who_upload,
        frac(ups.len() as u64, n.max(1)),
    );
    exact(
        "inequality.users_who_download",
        *users_who_download,
        frac(downs.len() as u64, n.max(1)),
    );
    samples(
        "inequality.upload_cdf",
        upload_cdf,
        &sorted(ups.clone(), count),
    );
    samples(
        "inequality.download_cdf",
        download_cdf,
        &sorted(downs.clone(), count),
    );
    lorenz("inequality.upload_lorenz", upload_lorenz, ups);
    lorenz("inequality.download_lorenz", download_lorenz, downs);
    // The top 1% are the ⌊n/100⌋ (at least one) biggest of the users with
    // any traffic.
    let mut totals: Vec<u64> = users
        .values()
        .map(|u| u.0 + u.1)
        .filter(|&x| x > 0)
        .collect();
    totals.sort_unstable_by(|a, b| b.cmp(a));
    let top = (totals.len() / 100).max(1).min(totals.len());
    let all: u64 = totals.iter().sum();
    exact(
        "inequality.top1_share",
        *top1_share,
        frac(totals[..top].iter().sum(), all),
    );

    // Drago et al.'s classes: under 10 KiB in total is occasional; three
    // orders of magnitude between the directions (an empty one counts as
    // one byte) is upload- or download-only; the rest are heavy.
    let ClassShares {
        occasional,
        upload_only,
        download_only,
        heavy,
    } = classes;
    let mut k = [0u64; 4];
    for &(up, down) in users.values() {
        let (u, d) = (up.max(1), down.max(1));
        let class = if up + down < 10 * 1024 {
            0
        } else if u >= 1000 * d {
            1
        } else if d >= 1000 * u {
            2
        } else {
            3
        };
        k[class] += 1;
    }
    exact("class_shares.occasional", *occasional, frac(k[0], n.max(1)));
    exact(
        "class_shares.upload_only",
        *upload_only,
        frac(k[1], n.max(1)),
    );
    exact(
        "class_shares.download_only",
        *download_only,
        frac(k[2], n.max(1)),
    );
    exact("class_shares.heavy", *heavy, frac(k[3], n.max(1)));
}

/// Fig. 7(c) over the users with traffic in one direction.
fn lorenz(what: &str, got: &Lorenz, mut xs: Vec<u64>) {
    let Lorenz { points, gini } = got;
    xs.sort_unstable();
    let n = xs.len();
    let total: u64 = xs.iter().sum();
    if total == 0 {
        exact_pairs(&format!("{what}.points"), points, &[(0.0, 0.0), (1.0, 1.0)]);
        exact(&format!("{what}.gini"), *gini, 0.0);
        return;
    }
    // G = Σᵢ Σⱼ |xᵢ − xⱼ| / (2 n² μ) = Σᵢ Σⱼ |xᵢ − xⱼ| / (2 n Σ x).
    let mad: u128 = xs
        .iter()
        .flat_map(|&a| xs.iter().map(move |&b| u128::from(a.abs_diff(b))))
        .sum();
    let g = mad as f64 / (2.0 * n as f64 * total as f64);
    near(&format!("{what}.gini"), *gini, g, GINI_BOUND);
    // Every plotted point is (k/n, share of the k smallest), from the
    // origin to (1, 1).
    let mut prefix = vec![0u64; n + 1];
    for (i, &x) in xs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + x;
    }
    exact_pairs(&format!("{what}.points[0]"), &points[..1], &[(0.0, 0.0)]);
    let mut last = 0;
    for (i, &(p, s)) in points.iter().enumerate().skip(1) {
        let k = (p * n as f64).round() as usize;
        assert!(k > last && k <= n, "{what}.points[{i}]: not increasing");
        exact(&format!("{what}.points[{i}].0"), p, k as f64 / n as f64);
        exact(
            &format!("{what}.points[{i}].1"),
            s,
            prefix[k] as f64 / total as f64,
        );
        last = k;
    }
    assert_eq!(last, n, "{what}.points: the curve ends at (1, 1)");
}

// ---- Fig. 8 ----------------------------------------------------------------------

fn check_markov(g: &TransitionGraph, recs: &[TraceRecord]) {
    let TransitionGraph {
        total_transitions,
        edges,
        conditional,
    } = g;
    // Each user's successful operations and authentications in trace
    // order, with MakeDir folded into Make; the graph counts consecutive
    // pairs of one user's.
    let mut chains: BTreeMap<u64, Vec<ApiOpKind>> = BTreeMap::new();
    for r in recs {
        let (user, state) = match &r.payload {
            Payload::Storage(d) if d.success => match d.op {
                ApiOpKind::OpenSession | ApiOpKind::CloseSession => continue,
                ApiOpKind::MakeDir => (d.user, ApiOpKind::MakeFile),
                op => (d.user, op),
            },
            Payload::Auth {
                user,
                success: true,
            } => (*user, ApiOpKind::Authenticate),
            _ => continue,
        };
        chains.entry(user.raw()).or_default().push(state);
    }
    let mut pairs: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for chain in chains.values() {
        for w in chain.windows(2) {
            *pairs
                .entry((w[0].display_name(), w[1].display_name()))
                .or_default() += 1;
        }
    }
    let total: u64 = pairs.values().sum();
    assert_eq!(*total_transitions, total, "markov.total_transitions");
    let mut by_count: Vec<(&(&str, &str), &u64)> = pairs.iter().collect();
    by_count.sort_by_key(|&(names, &c)| (std::cmp::Reverse(c), *names));
    assert_eq!(edges.len(), by_count.len(), "markov.edges");
    for (
        Edge {
            from,
            to,
            probability,
        },
        ((f, t), &c),
    ) in edges.iter().zip(by_count)
    {
        assert_eq!((*from, *to), (*f, *t), "markov.edges order");
        exact(
            &format!("markov.edges[{f}→{t}]"),
            *probability,
            frac(c, total),
        );
    }
    let mut out: BTreeMap<&str, u64> = BTreeMap::new();
    for (&(f, _), &c) in &pairs {
        *out.entry(f).or_default() += c;
    }
    assert_eq!(conditional.len(), pairs.len(), "markov.conditional");
    for (&(f, t, p), (&(f2, t2), &c)) in conditional.iter().zip(&pairs) {
        assert_eq!((f, t), (f2, t2), "markov.conditional order");
        exact(&format!("markov.conditional[{f}→{t}]"), p, frac(c, out[f]));
    }
}

// ---- Fig. 9 ------------------------------------------------------------------------

fn check_burst(b: &Burstiness, op: ApiOpKind, recs: &[TraceRecord]) {
    let Burstiness {
        op: name,
        gaps,
        ecdf,
        cv: got_cv,
        fit,
        ccdf,
    } = b;
    let what = format!("burst[{}]", op.display_name());
    assert_eq!(*name, op.display_name(), "{what}.op");
    // The positive gaps between one user's consecutive successful `op`s.
    let mut last: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut us = Vec::new();
    for (t, d) in done(recs).filter(|(_, d)| d.op == op) {
        if let Some(t0) = last.insert(d.user.raw(), t) {
            let gap = t.since(t0).as_micros();
            if gap > 0 {
                us.push(gap);
            }
        }
    }
    let xs = sorted(us, secs);
    assert_eq!(*gaps, xs.len(), "{what}.gaps");
    samples(&format!("{what}.ecdf"), ecdf, &xs);
    exact(&format!("{what}.cv"), *got_cv, cv(&xs));

    // The Hill estimator over the tail x ≥ θ, θ the 0.35-quantile:
    // α = |tail| / Σ ln(x/θ), given at least 100 gaps and 50 in the tail.
    let want_fit = (xs.len() >= 100).then(|| {
        let theta = quantile(&xs, 0.35).max(f64::MIN_POSITIVE);
        let tail: Vec<f64> = xs.iter().copied().filter(|&x| x >= theta).collect();
        let log_sum: f64 = tail.iter().map(|&x| (x / theta).ln()).sum();
        (tail.len() >= 50 && log_sum > 0.0)
            .then(|| (tail.len() as f64 / log_sum, theta, tail.len()))
    });
    match (fit, want_fit.flatten()) {
        (None, None) => {}
        (
            Some(PowerLawFit {
                alpha,
                theta,
                tail_n,
            }),
            Some((a, t, n)),
        ) => {
            exact(&format!("{what}.fit.alpha"), *alpha, a);
            exact(&format!("{what}.fit.theta"), *theta, t);
            assert_eq!(*tail_n, n, "{what}.fit.tail_n");
        }
        (got, want) => panic!("{what}.fit: report {got:?}, reference {want:?}"),
    }

    // 40 points of P(X ≥ x), from max(min, 1 ms) to max.
    if xs.is_empty() {
        assert!(ccdf.is_empty(), "{what}.ccdf");
        return;
    }
    assert_eq!(ccdf.len(), 40, "{what}.ccdf");
    exact(&format!("{what}.ccdf[0].0"), ccdf[0].0, xs[0].max(1e-3));
    let hi = xs[xs.len() - 1];
    near(
        &format!("{what}.ccdf[39].0"),
        ccdf[39].0,
        hi,
        CCDF_END_BOUND * hi,
    );
    for (i, &(x, p)) in ccdf.iter().enumerate() {
        let at_least = xs.iter().filter(|&&v| v >= x).count() as u64;
        exact(
            &format!("{what}.ccdf[{i}].1"),
            p,
            frac(at_least, xs.len() as u64),
        );
    }
}

// ---- Figs. 12–14 ---------------------------------------------------------------

fn check_rpc(a: &RpcAnalysis, recs: &[TraceRecord]) {
    let RpcAnalysis { profiles } = a;
    let mut times: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in recs {
        if let Payload::Rpc {
            rpc, service_us, ..
        } = &r.payload
        {
            times.entry(rpc.dal_name()).or_default().push(*service_us);
        }
    }
    assert_eq!(profiles.len(), RpcKind::ALL.len(), "rpc.profiles");
    for (p, kind) in profiles.iter().zip(RpcKind::ALL) {
        let RpcProfile {
            rpc,
            class,
            panel,
            count: n,
            median_s,
            p99_s,
            max_s,
            far_from_median,
            ecdf,
        } = p;
        let name = kind.dal_name();
        assert_eq!(*rpc, name, "rpc.profiles order");
        assert_eq!(*class, kind.class().label(), "rpc[{name}].class");
        assert_eq!(*panel, kind.figure12_panel(), "rpc[{name}].panel");
        let xs = sorted(times.remove(name).unwrap_or_default(), secs);
        assert_eq!(*n, xs.len() as u64, "rpc[{name}].count");
        samples(&format!("rpc[{name}].ecdf"), ecdf, &xs);
        let median = quantile(&xs, 0.5);
        exact(&format!("rpc[{name}].median_s"), *median_s, median);
        exact(&format!("rpc[{name}].p99_s"), *p99_s, quantile(&xs, 0.99));
        exact(
            &format!("rpc[{name}].max_s"),
            *max_s,
            xs.last().copied().unwrap_or(f64::NAN),
        );
        // The share of samples more than ten times the median.
        let far = xs.iter().filter(|&&x| x > 10.0 * median).count() as u64;
        near(
            &format!("rpc[{name}].far_from_median"),
            *far_from_median,
            frac(far, xs.len() as u64),
            FAR_BOUND,
        );
    }
}

fn check_load(lb: &LoadBalance, recs: &[TraceRecord], cfg: &EngineConfig) {
    let LoadBalance {
        api_hourly,
        shard_minutely,
        api_mean_cv,
        shard_mean_cv,
        shard_longrun_cv,
    } = lb;
    // API requests (session and storage records) per hour and machine;
    // RPCs per shard in total and per minute over the first `LB_MINUTES`.
    // Ids beyond the configured counts wrap around.
    let mut api = vec![vec![0u64; cfg.machines]; hours(cfg.horizon)];
    let mut minutes = vec![vec![0u64; cfg.shards]; LB_MINUTES];
    let mut totals = vec![0u64; cfg.shards];
    for r in recs.iter().filter(|r| r.t < cfg.horizon) {
        match &r.payload {
            Payload::Session { .. } | Payload::Storage(_) => {
                api[hour(r.t)][usize::from(r.machine.raw()) % cfg.machines] += 1;
            }
            Payload::Rpc { shard, .. } => {
                let s = usize::from(shard.raw()) % cfg.shards;
                totals[s] += 1;
                let minute = (r.t.as_micros() / 60_000_000) as usize;
                if minute < LB_MINUTES {
                    minutes[minute][s] += 1;
                }
            }
            Payload::Auth { .. } => {}
        }
    }
    let rows = |grid: &[Vec<u64>]| -> Vec<Vec<f64>> { grid.iter().map(|r| as_f64(r)).collect() };
    let (api, minutes) = (rows(&api), rows(&minutes));
    let spread = |grid: &[Vec<f64>]| -> Vec<(f64, f64)> {
        grid.iter().map(|r| (mean(r), stddev(r))).collect()
    };
    exact_pairs("load_balance.api_hourly", api_hourly, &spread(&api));
    exact_pairs(
        "load_balance.shard_minutely",
        shard_minutely,
        &spread(&minutes),
    );
    // The mean CV over the windows with any load.
    let mean_cv = |grid: &[Vec<f64>]| {
        let cvs: Vec<f64> = grid
            .iter()
            .filter(|r| r.iter().any(|&x| x > 0.0))
            .map(|r| cv(r))
            .collect();
        mean(&cvs)
    };
    exact("load_balance.api_mean_cv", *api_mean_cv, mean_cv(&api));
    exact(
        "load_balance.shard_mean_cv",
        *shard_mean_cv,
        mean_cv(&minutes),
    );
    exact(
        "load_balance.shard_longrun_cv",
        *shard_longrun_cv,
        cv(&as_f64(&totals)),
    );
}

// ---- Fig. 15 -------------------------------------------------------------------

fn check_auth(a: &AuthActivity, recs: &[TraceRecord], hourly: &Hourly) {
    let AuthActivity {
        auth_per_hour,
        session_events_per_hour,
        auth_failure_fraction,
        diurnal_swing,
        monday_over_weekend,
    } = a;
    let per_hour = as_f64(&hourly.auth);
    exact_all("auth.auth_per_hour", auth_per_hour, &per_hour);
    exact_all(
        "auth.session_events_per_hour",
        session_events_per_hour,
        &as_f64(&hourly.session),
    );
    // Over every authentication, inside the horizon or not.
    let (mut total, mut failed) = (0, 0);
    for r in recs {
        if let Payload::Auth { success, .. } = r.payload {
            total += 1;
            failed += u64::from(!success);
        }
    }
    exact(
        "auth.auth_failure_fraction",
        *auth_failure_fraction,
        frac(failed, total),
    );
    // Mean hourly authentications by day (10:00–16:59) over by night
    // (00:00–05:59), and on Mondays over weekends; NaN with no baseline.
    let select = |keep: &dyn Fn(SimTime) -> bool| -> Vec<f64> {
        let hours = per_hour.iter().enumerate();
        hours
            .filter(|(i, _)| keep(SimTime::from_hours(*i as u64)))
            .map(|(_, &v)| v)
            .collect()
    };
    let ratio = |a: Vec<f64>, b: Vec<f64>| {
        let (ma, mb) = (mean(&a), mean(&b));
        if mb > 0.0 {
            ma / mb
        } else {
            f64::NAN
        }
    };
    let swing = ratio(
        select(&|t| (10..=16).contains(&t.hour_of_day())),
        select(&|t| t.hour_of_day() <= 5),
    );
    let monday = ratio(
        select(&|t| t.day_of_week() == 0),
        select(&|t| t.day_of_week() >= 5),
    );
    exact("auth.diurnal_swing", *diurnal_swing, swing);
    exact("auth.monday_over_weekend", *monday_over_weekend, monday);
}

// ---- Fig. 16 -------------------------------------------------------------------

fn check_sessions(s: &SessionAnalysis, recs: &[TraceRecord]) {
    let SessionAnalysis {
        sessions,
        lengths,
        active_lengths,
        ops_per_active_session,
        under_1s,
        under_8h,
        active_fraction,
        p80_ops,
        top20_op_share,
    } = s;
    // A session runs from an open to the next close of its id. A re-open
    // replaces an unclosed open, a close with no open is dropped, and an
    // open never closed is not a session. A session is active if its id
    // has issued a successful data-management op by its close: the count
    // belongs to the id, so a reused id inherits it.
    let mut open: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut ops: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut all, mut active) = (Vec::new(), Vec::new());
    for r in recs {
        match &r.payload {
            Payload::Session { event, session, .. } => {
                let id = session.raw();
                if *event == SessionEvent::Open {
                    open.insert(id, r.t);
                } else if let Some(t0) = open.remove(&id) {
                    let len = r.t.since(t0).as_micros();
                    all.push(len);
                    if ops.get(&id).copied().unwrap_or(0) > 0 {
                        active.push(len);
                    }
                }
            }
            Payload::Storage(d) if d.success && d.op.is_data_management() => {
                *ops.entry(d.session.raw()).or_default() += 1;
            }
            _ => {}
        }
    }
    let closed = all.len() as u64;
    let short = all.iter().filter(|&&us| us <= 1_000_000).count() as u64;
    let day = all.iter().filter(|&&us| us <= 8 * HOUR_US).count() as u64;
    assert_eq!(*sessions, closed, "sessions.sessions");
    exact("sessions.under_1s", *under_1s, frac(short, closed));
    exact("sessions.under_8h", *under_8h, frac(day, closed));
    exact(
        "sessions.active_fraction",
        *active_fraction,
        frac(active.len() as u64, closed),
    );
    samples("sessions.lengths", lengths, &sorted(all, secs));
    samples(
        "sessions.active_lengths",
        active_lengths,
        &sorted(active, secs),
    );
    // Data ops per id that issued any, open or closed.
    let mut per_id: Vec<u64> = ops.into_values().filter(|&c| c > 0).collect();
    per_id.sort_unstable();
    let xs: Vec<f64> = per_id.iter().map(|&c| c as f64).collect();
    samples(
        "sessions.ops_per_active_session",
        ops_per_active_session,
        &xs,
    );
    exact("sessions.p80_ops", *p80_ops, quantile(&xs, 0.8));
    // The share of data ops issued by the busiest 20% of those ids: all
    // above the ⌊0.8 n⌋ least busy.
    let cut = (per_id.len() as f64 * 0.8) as usize;
    let total: u64 = per_id.iter().sum();
    exact(
        "sessions.top20_op_share",
        *top20_op_share,
        frac(per_id[cut..].iter().sum(), total),
    );
}

// ---- fault plane ---------------------------------------------------------------

fn check_faults(f: &FaultAnalysis, recs: &[TraceRecord]) {
    let FaultAnalysis {
        records,
        tagged,
        by_class,
        retried,
        max_attempt,
        storage_ops,
        storage_failures,
        storage_error_rate,
        first_try_mean_s,
        retried_mean_s,
        retry_latency_inflation,
    } = f;
    assert_eq!(*records, recs.len() as u64, "faults.records");
    let classes: Vec<Option<ErrorClass>> = recs.iter().map(|r| r.error_class).collect();
    assert_eq!(
        *tagged,
        classes.iter().flatten().count() as u64,
        "faults.tagged"
    );
    assert_eq!(by_class.len(), ErrorClass::ALL.len(), "faults.by_class");
    for (ClassCount { class, count }, c) in by_class.iter().zip(ErrorClass::ALL) {
        assert_eq!(*class, c.label(), "faults.by_class order");
        let n = classes.iter().filter(|&&x| x == Some(c)).count() as u64;
        assert_eq!(*count, n, "faults.by_class[{class}]");
    }
    let retries = recs.iter().filter(|r| r.attempt > 1).count() as u64;
    assert_eq!(*retried, retries, "faults.retried");
    assert_eq!(
        *max_attempt,
        recs.iter().map(|r| r.attempt).max().unwrap_or(0),
        "faults.max_attempt"
    );
    let storage: Vec<(&TraceRecord, &StorageDone)> = recs
        .iter()
        .filter_map(|r| Some((r, r.payload.storage()?)))
        .collect();
    let failures = storage.iter().filter(|(_, d)| !d.success).count() as u64;
    assert_eq!(*storage_ops, storage.len() as u64, "faults.storage_ops");
    assert_eq!(*storage_failures, failures, "faults.storage_failures");
    exact(
        "faults.storage_error_rate",
        *storage_error_rate,
        frac(failures, storage.len() as u64),
    );
    // Mean duration in seconds of successful storage ops, on the first try
    // and after retries; their ratio when both exist.
    let mean_s = |retry: bool| {
        let us: Vec<u64> = storage
            .iter()
            .filter(|(r, d)| d.success && (r.attempt > 1) == retry)
            .map(|(_, d)| d.duration_us)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            us.iter().sum::<u64>() as f64 / us.len() as f64 / 1e6
        }
    };
    let (first, again) = (mean_s(false), mean_s(true));
    exact("faults.first_try_mean_s", *first_try_mean_s, first);
    exact("faults.retried_mean_s", *retried_mean_s, again);
    let inflation = if first > 0.0 && again > 0.0 {
        again / first
    } else {
        0.0
    };
    exact(
        "faults.retry_latency_inflation",
        *retry_latency_inflation,
        inflation,
    );
}
