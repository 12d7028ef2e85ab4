//! User-behavior analyses (§6.1, Figs. 6–7): operation mix, per-user
//! traffic, inequality, activity classes.

use crate::stats::{lorenz, Ecdf, Lorenz};
use crate::timeseries::OnlineActiveSeries;
use serde::Serialize;
use u1_core::ApiOpKind;
use u1_trace::{Payload, SessionEvent};

/// Fig. 7(a): operation counts per type. Session open/close and
/// authentications are included as in the paper's bar chart.
#[derive(Debug, Clone, Serialize)]
pub struct OpMix {
    pub counts: Vec<(&'static str, u64)>,
}

/// Operation counts, indexed by `ApiOpKind` declaration order.
pub(crate) type OpCounts = [u64; ApiOpKind::ALL.len()];

/// The Fig. 7(a) operation a record counts as, if any.
pub(crate) fn op_of(payload: &Payload) -> Option<ApiOpKind> {
    match payload {
        Payload::Storage(done) => Some(done.op),
        Payload::Session { event, .. } => Some(match event {
            SessionEvent::Open => ApiOpKind::OpenSession,
            SessionEvent::Close => ApiOpKind::CloseSession,
        }),
        Payload::Auth { .. } => Some(ApiOpKind::Authenticate),
        Payload::Rpc { .. } => None,
    }
}

pub(crate) fn op_mix_of(counts: &OpCounts) -> OpMix {
    // Built over ApiOpKind::ALL then stable-sorted, so the output order
    // depends on the counts alone.
    let mut counts: Vec<(&'static str, u64)> = ApiOpKind::ALL
        .iter()
        .map(|&op| (op.display_name(), counts[op as usize]))
        .collect();
    counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    OpMix { counts }
}

/// Per-user transferred bytes.
#[derive(Debug, Clone, Default, Serialize)]
pub struct UserTraffic {
    pub upload: u64,
    pub download: u64,
}

impl UserTraffic {
    /// Counts one successful storage op, if it moved file contents.
    pub(crate) fn add(&mut self, op: ApiOpKind, size: u64) {
        match op {
            ApiOpKind::Upload => self.upload += size,
            ApiOpKind::Download => self.download += size,
            _ => {}
        }
    }
}

/// Fig. 7(b)/(c): per-user traffic distribution and inequality.
#[derive(Debug, Serialize)]
pub struct TrafficInequality {
    pub users: u64,
    /// Fraction of users with any download / any upload (paper: 14% / 25%).
    pub users_who_download: f64,
    pub users_who_upload: f64,
    pub upload_cdf: Ecdf,
    pub download_cdf: Ecdf,
    /// Lorenz/Gini over *active* users (non-zero traffic), as Fig. 7(c).
    pub upload_lorenz: Lorenz,
    pub download_lorenz: Lorenz,
    /// Share of total traffic generated by the top 1% of active users.
    pub top1_share: f64,
}

/// The inequality report over every user's traffic. Every statistic sorts
/// or sums symmetrically, so the order of the users never shows.
pub(crate) fn inequality<'a>(
    per_user: impl Iterator<Item = &'a UserTraffic> + Clone,
) -> TrafficInequality {
    let users = per_user.clone().count() as u64;
    let downloaders = per_user.clone().filter(|t| t.download > 0).count() as f64;
    let uploaders = per_user.clone().filter(|t| t.upload > 0).count() as f64;
    let up: Vec<f64> = per_user
        .clone()
        .filter(|t| t.upload > 0)
        .map(|t| t.upload as f64)
        .collect();
    let down: Vec<f64> = per_user
        .clone()
        .filter(|t| t.download > 0)
        .map(|t| t.download as f64)
        .collect();
    let mut total: Vec<f64> = per_user
        .map(|t| (t.upload + t.download) as f64)
        .filter(|&x| x > 0.0)
        .collect();
    total.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let top_n = (total.len() / 100).max(1);
    let top1_share = if total.is_empty() {
        0.0
    } else {
        total[..top_n.min(total.len())].iter().sum::<f64>() / total.iter().sum::<f64>()
    };
    TrafficInequality {
        users,
        users_who_download: downloaders / users.max(1) as f64,
        users_who_upload: uploaders / users.max(1) as f64,
        upload_lorenz: lorenz(&up, 100),
        download_lorenz: lorenz(&down, 100),
        upload_cdf: Ecdf::new(up),
        download_cdf: Ecdf::new(down),
        top1_share,
    }
}

/// §6.1's user classes, computed post-hoc from traffic exactly as Drago et
/// al. define them: occasional < 10KB total; three orders of magnitude of
/// up/down imbalance ⇒ upload-only / download-only; the rest heavy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TrafficClass {
    Occasional,
    UploadOnly,
    DownloadOnly,
    Heavy,
}

pub fn classify(traffic: &UserTraffic) -> TrafficClass {
    let total = traffic.upload + traffic.download;
    if total < 10 * 1024 {
        return TrafficClass::Occasional;
    }
    let up = traffic.upload.max(1) as f64;
    let down = traffic.download.max(1) as f64;
    if up / down >= 1000.0 {
        TrafficClass::UploadOnly
    } else if down / up >= 1000.0 {
        TrafficClass::DownloadOnly
    } else {
        TrafficClass::Heavy
    }
}

/// Class shares over the whole population.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct ClassShares {
    pub occasional: f64,
    pub upload_only: f64,
    pub download_only: f64,
    pub heavy: f64,
}

/// Class shares over every user's traffic.
pub(crate) fn class_shares_of<'a>(per_user: impl Iterator<Item = &'a UserTraffic>) -> ClassShares {
    let mut n = 0usize;
    let mut counts = [0u64; 4];
    for t in per_user {
        n += 1;
        let idx = match classify(t) {
            TrafficClass::Occasional => 0,
            TrafficClass::UploadOnly => 1,
            TrafficClass::DownloadOnly => 2,
            TrafficClass::Heavy => 3,
        };
        counts[idx] += 1;
    }
    let n = n.max(1) as f64;
    ClassShares {
        occasional: counts[0] as f64 / n,
        upload_only: counts[1] as f64 / n,
        download_only: counts[2] as f64 / n,
        heavy: counts[3] as f64 / n,
    }
}

/// Fig. 6 summary: the range of active/online ratios across hours.
#[derive(Debug, Clone, Serialize)]
pub struct ActiveOnlineSummary {
    pub min_ratio: f64,
    pub max_ratio: f64,
    pub mean_ratio: f64,
}

/// The Fig. 6 summary of the hourly online and active counts.
pub(crate) fn active_online_summary_from_series(
    series: &OnlineActiveSeries,
) -> ActiveOnlineSummary {
    let ratios: Vec<f64> = series
        .online
        .iter()
        .zip(&series.active)
        .filter(|(&o, _)| o > 0)
        .map(|(&o, &a)| a as f64 / o as f64)
        .collect();
    ActiveOnlineSummary {
        min_ratio: ratios.iter().cloned().fold(f64::MAX, f64::min),
        max_ratio: ratios.iter().cloned().fold(0.0, f64::max),
        mean_ratio: crate::stats::mean(&ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;
    use u1_core::SimTime;

    #[test]
    fn op_mix_counts_sessions_and_auth() {
        let recs = vec![
            session_open(at(1), 1, 1),
            auth(at(1), 1, true),
            op(at(2), ListVolumes, 1, 1),
            transfer(at(3), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(4), Upload, 1, 1, 2, 10, 2, "a"),
            session_close(at(5), 1, 1),
        ];
        let mix = chunked(&[&recs], at(60)).op_mix;
        let get = |name: &str| mix.counts.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("Upload"), 2);
        assert_eq!(get("Open Session"), 1);
        assert_eq!(get("Close Session"), 1);
        assert_eq!(get("Authenticate"), 1);
        assert_eq!(get("List Vol."), 1);
        // Sorted descending.
        assert!(mix.counts.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn classification_follows_drago_rules() {
        let c = |up: u64, down: u64| {
            classify(&UserTraffic {
                upload: up,
                download: down,
            })
        };
        assert_eq!(c(0, 0), TrafficClass::Occasional);
        assert_eq!(c(5_000, 4_000), TrafficClass::Occasional); // < 10KB
        assert_eq!(c(10 * 1024 * 1024, 1_000), TrafficClass::UploadOnly);
        assert_eq!(c(1_000, 10 * 1024 * 1024), TrafficClass::DownloadOnly);
        assert_eq!(c(1_000_000, 1_000_000), TrafficClass::Heavy);
    }

    #[test]
    fn inequality_measures_top1_and_participation() {
        let mut recs = Vec::new();
        // 99 users upload 1KB... well 100KB to exceed occasional; 1 whale.
        for u in 1..=99 {
            recs.push(transfer(at(u), Upload, u, u, u, 100_000, u, "a"));
        }
        recs.push(transfer(
            at(100),
            Upload,
            100,
            100,
            100,
            1_000_000_000,
            100,
            "a",
        ));
        let t = chunked(&[&recs], at(200)).inequality;
        assert_eq!(t.users, 100);
        assert!((t.users_who_upload - 1.0).abs() < 1e-9);
        assert_eq!(t.users_who_download, 0.0);
        assert!(t.top1_share > 0.9, "whale share {}", t.top1_share);
        assert!(t.upload_lorenz.gini > 0.9);
    }

    #[test]
    fn silent_users_still_count_in_population() {
        let recs = vec![
            session_open(at(1), 1, 42),
            transfer(at(2), Upload, 2, 7, 1, 100, 1, "a"),
        ];
        let t = chunked(&[&recs], at(200)).inequality;
        assert_eq!(t.users, 2);
        assert!((t.users_who_upload - 0.5).abs() < 1e-9);
    }

    #[test]
    fn active_online_summary_ranges() {
        let recs = vec![
            session_open(at(10), 1, 1),
            session_open(at(10), 2, 2),
            transfer(at(100), Upload, 1, 1, 1, 10, 1, "a"),
            session_close(at(7000), 1, 1),
            session_close(at(7000), 2, 2),
        ];
        let s = chunked(&[&recs], SimTime::from_hours(2)).active_online;
        assert!((s.max_ratio - 0.5).abs() < 1e-9); // hour 0: 1 active / 2 online
        assert_eq!(s.min_ratio, 0.0); // hour 1: 0 active / 2 online
    }
}
