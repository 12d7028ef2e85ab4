//! Metadata-store RPC performance and load balance (§7.1–§7.2,
//! Figs. 12–14).

use crate::engine::LB_MINUTES;
use crate::stats::{cv, mean, secs, stddev, Ecdf};
use crate::timeseries::hour_bins;
use serde::Serialize;
use u1_core::{MachineId, RpcClass, RpcKind, ShardId, SimDuration, SimTime};

/// One RPC's service-time profile (a line in one Fig. 12 panel and a point
/// in Fig. 13).
#[derive(Debug, Serialize)]
pub struct RpcProfile {
    pub rpc: &'static str,
    pub class: &'static str,
    pub panel: &'static str,
    pub count: u64,
    pub median_s: f64,
    pub p99_s: f64,
    pub max_s: f64,
    /// Fraction of samples more than 10× the median — the paper observes
    /// 7–22% of samples "very far from the median".
    pub far_from_median: f64,
    pub ecdf: Ecdf,
}

/// Figs. 12–13 analysis.
#[derive(Debug, Serialize)]
pub struct RpcAnalysis {
    pub profiles: Vec<RpcProfile>,
}

impl RpcAnalysis {
    pub fn profile(&self, rpc: RpcKind) -> Option<&RpcProfile> {
        self.profiles.iter().find(|p| p.rpc == rpc.dal_name())
    }

    /// Median of medians per class (the Fig. 13 separation).
    pub fn class_median(&self, class: RpcClass) -> f64 {
        let xs: Vec<f64> = self
            .profiles
            .iter()
            .filter(|p| p.class == class.label() && p.count > 0)
            .map(|p| p.median_s)
            .collect();
        crate::stats::mean(&xs)
    }
}

/// Service times (microseconds) per RPC kind, indexed by declaration order,
/// which is [`RpcKind::ALL`]'s.
pub(crate) type RpcSamples = [Vec<u64>; RpcKind::ALL.len()];

/// Figs. 12–13 from every RPC kind's service times.
pub(crate) fn analysis(samples: RpcSamples) -> RpcAnalysis {
    let profiles = RpcKind::ALL
        .into_iter()
        .zip(samples)
        .map(|(rpc, us)| {
            let ecdf = Ecdf::from_ints(us, secs);
            let median = ecdf.median();
            let far = if ecdf.is_empty() {
                0.0
            } else {
                1.0 - ecdf.cdf(10.0 * median)
            };
            RpcProfile {
                rpc: rpc.dal_name(),
                class: rpc.class().label(),
                panel: rpc.figure12_panel(),
                count: ecdf.len() as u64,
                median_s: median,
                p99_s: ecdf.quantile(0.99),
                max_s: ecdf.max(),
                far_from_median: far,
                ecdf,
            }
        })
        .collect();
    RpcAnalysis { profiles }
}

/// Fig. 14: load balance across API machines (hourly) and store shards
/// (per minute).
#[derive(Debug, Serialize)]
pub struct LoadBalance {
    /// Per-hour (mean, stddev) of API requests across machines.
    pub api_hourly: Vec<(f64, f64)>,
    /// Per-minute (mean, stddev) of RPCs across shards.
    pub shard_minutely: Vec<(f64, f64)>,
    /// Average short-window coefficient of variation for each tier.
    pub api_mean_cv: f64,
    pub shard_mean_cv: f64,
    /// Long-run imbalance: stddev/mean of total per-shard RPC counts over
    /// the whole trace (paper: 4.9%).
    pub shard_longrun_cv: f64,
}

/// `id % n`, skipping the division when `id < n`, as every machine and
/// shard id of the cluster that wrote the trace is.
fn wrap(id: u16, n: usize) -> usize {
    let id = usize::from(id);
    if id < n {
        id
    } else {
        id % n
    }
}

/// The request counts behind [`LoadBalance`]. Grid cells are integer
/// request counts, so chunk merges add exactly and the one f64 conversion
/// at finish is exact.
#[derive(Debug)]
pub(crate) struct LoadGrid {
    machines: usize,
    shards: usize,
    api: Vec<Vec<u64>>,
    shard: Vec<Vec<u64>>,
    shard_totals: Vec<u64>,
}

impl LoadGrid {
    pub(crate) fn new(horizon: SimTime, machines: usize, shards: usize) -> Self {
        // Shards are binned per minute over a window — a full month per
        // minute would be enormous.
        Self {
            machines,
            shards,
            api: vec![vec![0; machines]; hour_bins(horizon)],
            shard: vec![vec![0; shards]; LB_MINUTES],
            shard_totals: vec![0; shards],
        }
    }

    /// An API request (session or storage record) in hour `h`.
    pub(crate) fn api(&mut self, h: usize, machine: MachineId) {
        self.api[h][wrap(machine.raw(), self.machines)] += 1;
    }

    /// An RPC at `t`, inside the horizon.
    pub(crate) fn rpc(&mut self, t: SimTime, shard: ShardId) {
        let idx = wrap(shard.raw(), self.shards);
        self.shard_totals[idx] += 1;
        let minute = t.bin_index(SimDuration::from_mins(1)) as usize;
        if minute < LB_MINUTES {
            self.shard[minute][idx] += 1;
        }
    }

    /// Adds the counts of the chunk after this one.
    pub(crate) fn merge(&mut self, later: &LoadGrid) {
        let add = |dst: &mut Vec<u64>, src: &Vec<u64>| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        };
        let rows = self.api.iter_mut().chain(&mut self.shard);
        rows.zip(later.api.iter().chain(&later.shard))
            .for_each(|(dst, src)| add(dst, src));
        add(&mut self.shard_totals, &later.shard_totals);
    }

    pub(crate) fn finish(&self) -> LoadBalance {
        let to_f64 = |rows: &[Vec<u64>]| -> Vec<Vec<f64>> {
            rows.iter()
                .map(|r| r.iter().map(|&c| c as f64).collect())
                .collect()
        };
        let api = to_f64(&self.api);
        let shard = to_f64(&self.shard);
        let shard_totals: Vec<f64> = self.shard_totals.iter().map(|&c| c as f64).collect();
        let summarize = |rows: &[Vec<f64>]| -> Vec<(f64, f64)> {
            rows.iter().map(|r| (mean(r), stddev(r))).collect()
        };
        let mean_cv = |rows: &[Vec<f64>]| {
            let cvs: Vec<f64> = rows
                .iter()
                .filter(|r| r.iter().sum::<f64>() > 0.0)
                .map(|r| cv(r))
                .collect();
            mean(&cvs)
        };
        LoadBalance {
            api_mean_cv: mean_cv(&api),
            shard_mean_cv: mean_cv(&shard),
            shard_longrun_cv: cv(&shard_totals),
            api_hourly: summarize(&api),
            shard_minutely: summarize(&shard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_all, EngineConfig};
    use crate::testkit::*;
    use u1_core::ApiOpKind::Upload;

    #[test]
    fn rpc_profiles_summarize_service_times() {
        let mut recs = Vec::new();
        for i in 0..100u64 {
            recs.push(rpc_on(at(i), 0, 0, RpcKind::GetNode, 1, 0, 1_000)); // 1ms
        }
        // One 10s outlier.
        recs.push(rpc_on(at(200), 0, 0, RpcKind::GetNode, 1, 0, 10_000_000));
        recs.push(rpc_on(at(201), 0, 0, RpcKind::DeleteVolume, 1, 0, 500_000));
        let a = chunked(&[&recs], at(300)).rpc;
        let node = a.profile(RpcKind::GetNode).unwrap();
        assert_eq!(node.count, 101);
        assert!((node.median_s - 0.001).abs() < 1e-9);
        assert!(node.far_from_median > 0.0);
        assert_eq!(node.panel, "other");
        let dv = a.profile(RpcKind::DeleteVolume).unwrap();
        assert_eq!(dv.class, "cascade");
        assert!((dv.median_s - 0.5).abs() < 1e-9);
        // Unseen RPCs have empty profiles, not panics.
        assert_eq!(a.profile(RpcKind::Move).unwrap().count, 0);
    }

    #[test]
    fn load_balance_detects_skew_and_balance() {
        // Perfectly balanced: same count on each of 2 machines each hour.
        let mut balanced = Vec::new();
        for h in 0..3u64 {
            for m in 0..2u16 {
                for k in 0..10u64 {
                    balanced.push(on_machine(
                        transfer(at(h * 3600 + k), Upload, 1, 1, k, 10, k, "a"),
                        m,
                    ));
                }
            }
        }
        let cfg = EngineConfig::new(SimTime::from_hours(3), 2, 2);
        let lb = run_all(&balanced, &cfg).load_balance;
        assert!(lb.api_mean_cv < 1e-9, "balanced cv {}", lb.api_mean_cv);

        // Skewed: everything on machine 0.
        let skewed: Vec<_> = balanced.iter().cloned().map(|r| on_machine(r, 0)).collect();
        let lb = run_all(&skewed, &cfg).load_balance;
        assert!(lb.api_mean_cv > 0.9, "skewed cv {}", lb.api_mean_cv);
    }

    #[test]
    fn shard_longrun_cv_reflects_totals() {
        let mut recs = Vec::new();
        for s in 0..4u16 {
            for k in 0..25u64 {
                recs.push(rpc_on(at(k), 0, 0, RpcKind::GetNode, 1, s, 100));
            }
        }
        let cfg = EngineConfig::new(SimTime::from_hours(1), 1, 4);
        let lb = run_all(&recs, &cfg).load_balance;
        assert!(lb.shard_longrun_cv < 1e-9);
        // Unbalance one shard.
        for k in 0..100u64 {
            recs.push(rpc_on(at(k), 0, 0, RpcKind::GetNode, 1, 0, 100));
        }
        let lb = run_all(&recs, &cfg).load_balance;
        assert!(lb.shard_longrun_cv > 0.5);
    }
}
