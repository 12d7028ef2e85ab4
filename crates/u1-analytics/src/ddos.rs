//! DDoS detection (§5.4, Fig. 5): find hours whose session/auth/storage
//! request rates are anomalously far above trailing behavior, and group
//! them into episodes.
//!
//! The paper found the attacks manually; §9 calls for automated
//! countermeasures — this module is that automation, and the harness
//! verifies it rediscovers the three injected attacks.

use crate::timeseries::{column, Hour};
use serde::Serialize;

/// A detected attack episode.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Episode {
    /// First and last anomalous hour indices.
    pub start_hour: usize,
    pub end_hour: usize,
    /// Peak multiplier over the baseline during the episode.
    pub peak_multiplier: f64,
    /// Which signal tripped: "session", "auth" or "storage".
    pub signal: &'static str,
}

impl Episode {
    pub fn start_day(&self) -> u64 {
        self.start_hour as u64 / 24
    }
}

/// An hour is anomalous when its count exceeds `THRESHOLD ×` the
/// trailing-window median.
const THRESHOLD: f64 = 4.0;
/// Trailing window, hours.
const WINDOW: usize = 48;
/// Minimum absolute count for an anomaly (suppresses cold-start noise).
const MIN_COUNT: f64 = 50.0;

fn trailing_median(series: &[f64], i: usize) -> f64 {
    let lo = i.saturating_sub(WINDOW);
    let mut slice: Vec<f64> = series[lo..i].to_vec();
    if slice.is_empty() {
        return f64::MAX; // nothing to compare against yet
    }
    slice.sort_by(|a, b| a.partial_cmp(b).unwrap());
    slice[slice.len() / 2].max(1.0)
}

fn detect_series(series: &[f64], signal: &'static str) -> Vec<Episode> {
    let mut episodes: Vec<Episode> = Vec::new();
    let mut current: Option<Episode> = None;
    for (i, &v) in series.iter().enumerate() {
        let baseline = trailing_median(series, i);
        let mult = v / baseline;
        // Warm-up guard: the trailing median needs a day of history before
        // diurnal ramps stop looking anomalous.
        let anomalous = i >= 24 && v >= MIN_COUNT && mult >= THRESHOLD;
        match (&mut current, anomalous) {
            (None, true) => {
                current = Some(Episode {
                    start_hour: i,
                    end_hour: i,
                    peak_multiplier: mult,
                    signal,
                });
            }
            (Some(ep), true) => {
                ep.end_hour = i;
                ep.peak_multiplier = ep.peak_multiplier.max(mult);
            }
            (Some(_), false) => {
                episodes.push(current.take().unwrap());
            }
            (None, false) => {}
        }
    }
    episodes.extend(current);
    episodes
}

/// Full detection report over the three Fig. 5 signals.
#[derive(Debug, Serialize)]
pub struct DdosReport {
    pub episodes: Vec<Episode>,
    pub session_per_hour: Vec<f64>,
    pub auth_per_hour: Vec<f64>,
    pub storage_per_hour: Vec<f64>,
}

/// Merges overlapping episodes across signals into distinct attacks.
pub fn distinct_attacks(episodes: &[Episode]) -> Vec<(usize, usize, f64)> {
    let mut spans: Vec<(usize, usize, f64)> = Vec::new();
    let mut sorted = episodes.to_vec();
    sorted.sort_by_key(|e| e.start_hour);
    for e in sorted {
        match spans.last_mut() {
            // Merge episodes within 3 hours of each other.
            Some((_, end, peak)) if e.start_hour <= *end + 3 => {
                *end = (*end).max(e.end_hour);
                *peak = peak.max(e.peak_multiplier);
            }
            _ => spans.push((e.start_hour, e.end_hour, e.peak_multiplier)),
        }
    }
    spans
}

/// Fig. 5 from the hourly session, auth and storage request counts.
pub(crate) fn report(hours: &[Hour]) -> DdosReport {
    let session = column(hours, |h| h.session);
    let auth = column(hours, |h| h.auth);
    let storage = column(hours, |h| h.storage);
    let mut episodes = detect_series(&session, "session");
    episodes.extend(detect_series(&auth, "auth"));
    episodes.extend(detect_series(&storage, "storage"));
    episodes.sort_by_key(|e| (e.start_hour, e.signal));
    DdosReport {
        episodes,
        session_per_hour: session,
        auth_per_hour: auth,
        storage_per_hour: storage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::{SimDuration, SimTime};

    #[test]
    fn flat_series_has_no_episodes() {
        let series = vec![100.0; 200];
        assert!(detect_series(&series, "auth").is_empty());
    }

    #[test]
    fn spike_is_detected_with_right_multiplier() {
        let mut series = vec![100.0; 100];
        series[60] = 1500.0;
        series[61] = 1500.0;
        let eps = detect_series(&series, "auth");
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].start_hour, 60);
        assert_eq!(eps[0].end_hour, 61);
        assert!((eps[0].peak_multiplier - 15.0).abs() < 0.5);
    }

    #[test]
    fn low_volume_noise_is_suppressed() {
        // A 10x spike on a nearly-zero baseline is below min_count.
        let mut series = vec![1.0; 100];
        series[50] = 10.0;
        assert!(detect_series(&series, "auth").is_empty());
    }

    #[test]
    fn distinct_attacks_merge_signals() {
        let episodes = vec![
            Episode {
                start_hour: 100,
                end_hour: 102,
                peak_multiplier: 10.0,
                signal: "auth",
            },
            Episode {
                start_hour: 101,
                end_hour: 103,
                peak_multiplier: 245.0,
                signal: "storage",
            },
            Episode {
                start_hour: 600,
                end_hour: 601,
                peak_multiplier: 6.0,
                signal: "session",
            },
        ];
        let attacks = distinct_attacks(&episodes);
        assert_eq!(attacks.len(), 2);
        assert_eq!(attacks[0], (100, 103, 245.0));
    }

    #[test]
    fn end_to_end_detection_on_synthetic_trace() {
        let mut recs = Vec::new();
        // 40 auths/hour baseline for 5 days, 600/hour during hour 60-61.
        for h in 0..120u64 {
            let n = if (60..62).contains(&h) { 600 } else { 40 };
            for k in 0..n {
                recs.push(auth(
                    SimTime::from_hours(h) + SimDuration::from_secs(k),
                    k,
                    true,
                ));
            }
        }
        let report = chunked(&[&recs], SimTime::from_days(5)).ddos;
        let attacks = distinct_attacks(&report.episodes);
        assert_eq!(attacks.len(), 1);
        assert_eq!(attacks[0].0 / 24, 2, "attack on day 2");
    }

    #[test]
    fn chunked_detection_matches_serial() {
        let mut recs = Vec::new();
        for h in 0..120u64 {
            let n = if (60..62).contains(&h) { 600 } else { 40 };
            for k in 0..n {
                recs.push(auth(
                    SimTime::from_hours(h) + SimDuration::from_secs(k),
                    k,
                    true,
                ));
            }
        }
        let horizon = SimTime::from_days(5);
        let serial = chunked(&[&recs], horizon).ddos;
        assert_eq!(serial.episodes.len(), 1);
        for chunk_len in [1usize, 997, 4096] {
            let chunks: Vec<&[_]> = recs.chunks(chunk_len).collect();
            let got = chunked(&chunks, horizon).ddos;
            assert_eq!(got.episodes, serial.episodes, "chunk_len={chunk_len}");
            assert_eq!(got.auth_per_hour, serial.auth_per_hour);
        }
    }
}
