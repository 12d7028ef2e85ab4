//! Every number from the paper that some code here reads, each written
//! once, with the section, figure or table that states it.
//!
//! The workload generator and the auth service read their inputs from
//! here as compile-time constants. The `exp` harness prints each measured
//! value beside the [`Row`] it reproduces and files that row, by id, in
//! the JSON document's `paper` object. The ten rows that carry a statement
//! are Table 1's findings.

/// One number the paper states.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Unique and stable: the JSON documents name the row by it.
    pub id: &'static str,
    /// The section, figure or table that states the number.
    pub source: &'static str,
    pub value: f64,
    /// A Table 1 finding's statement; `None` for every other row.
    pub statement: Option<&'static str>,
}

/// Declares each row as a `pub const` and lists them all in [`ROWS`]. A
/// row is `(id, source, value)`; a Table 1 finding adds its statement.
macro_rules! rows {
    (@some) => { None };
    (@some $statement:literal) => { Some($statement) };
    ($($(#[$doc:meta])* $name:ident = ($id:literal, $source:literal, $value:expr $(, $statement:literal)?);)*) => {
        $($(#[$doc])*
        pub const $name: Row = Row { id: $id, source: $source, value: $value, statement: rows!(@some $($statement)?) };)*
        /// Every row, in declaration order.
        pub const ROWS: &[Row] = &[$($name),*];
    };
}

const TIB: f64 = (1u64 << 40) as f64;

rows! {
    TRACE_DAYS = ("trace-days", "Table 3", 30.0);
    USERS = ("users", "Table 3", 1_294_794.0);
    SESSIONS = ("sessions", "Table 3", 42_500_000.0);
    /// Uploads plus downloads.
    TRANSFER_OPS = ("transfer-ops", "Table 3", 194_300_000.0);
    UPLOAD_BYTES = ("upload-bytes", "Table 3", 105.0 * TIB);
    DOWNLOAD_BYTES = ("download-bytes", "Table 3", 120.0 * TIB);

    /// Peak over trough of the hour-of-day upload means ("up to 10x").
    UPLOAD_DIURNAL_SWING = ("upload-diurnal-swing", "Fig. 2(a)", 10.0);
    /// Share of upload / download bytes moved by files over 25MB.
    HUGE_FILE_UPLOAD_BYTE_SHARE = ("huge-file-upload-byte-share", "Fig. 2(b)", 0.793);
    HUGE_FILE_DOWNLOAD_BYTE_SHARE = ("huge-file-download-byte-share", "Fig. 2(b)", 0.882);
    /// Share of upload / download operations on files under 0.5MB.
    TINY_FILE_UPLOAD_OP_SHARE = ("tiny-file-upload-op-share", "Fig. 2(b)", 0.843);
    TINY_FILE_DOWNLOAD_OP_SHARE = ("tiny-file-download-op-share", "Fig. 2(b)", 0.890);
    /// Download over upload bytes in 1-hour bins.
    RW_RATIO_MEDIAN = ("rw-ratio-median", "Fig. 2(c)", 1.14);
    RW_RATIO_MEAN = ("rw-ratio-mean", "Fig. 2(c)", 1.17);
    /// The client has no delta updates, so an update re-uploads the file.
    UPDATE_TRAFFIC = ("update-traffic", "§5.1", 0.1847, "18.5% of upload traffic is caused by file updates");

    /// Shares of the X-after-write pairs.
    WAW_SHARE = ("waw-share", "Fig. 3(a)", 0.44);
    RAW_SHARE = ("raw-share", "Fig. 3(a)", 0.30);
    DAW_SHARE = ("daw-share", "Fig. 3(a)", 0.26);
    WAW_UNDER_1H = ("waw-under-1h", "Fig. 3(a)", 0.80);
    /// Shares of the X-after-read pairs.
    WAR_SHARE = ("war-share", "Fig. 3(b)", 0.10);
    RAR_SHARE = ("rar-share", "Fig. 3(b)", 0.66);
    DAR_SHARE = ("dar-share", "Fig. 3(b)", 0.24);
    RAR_UNDER_1D = ("rar-under-1d", "Fig. 3(b)", 0.40);
    /// New files / dirs deleted within the month / 8 hours. Generator inputs.
    FILE_DEATH_IN_MONTH = ("file-death-in-month", "Fig. 3(c)", 0.289);
    FILE_DEATH_IN_8H = ("file-death-in-8h", "Fig. 3(c)", 0.171);
    DIR_DEATH_IN_MONTH = ("dir-death-in-month", "Fig. 3(c)", 0.315);
    DIR_DEATH_IN_8H = ("dir-death-in-8h", "Fig. 3(c)", 0.129);

    DEDUP_RATIO = ("dedup", "§5.3", 0.171, "deduplication ratio of 17%");
    /// Contents with no duplicate ("~80%").
    SINGLETON_CONTENTS = ("singleton-contents", "Fig. 4(a)", 0.80);
    FILES_UNDER_1MB = ("files<1MB", "Fig. 4(b)", 0.90, "90% of files are smaller than 1MB");

    ATTACKS = ("ddos", "§5.4", 3.0, "3 DDoS attacks in one month");

    /// Active users as a share of online users, over the hours of the month.
    ACTIVE_OF_ONLINE_MIN = ("active-of-online-min", "Fig. 6", 0.0349);
    ACTIVE_OF_ONLINE_MAX = ("active-of-online-max", "Fig. 6", 0.1625);
    USERS_WHO_DOWNLOAD = ("users-who-download", "Fig. 7(b)", 0.14);
    USERS_WHO_UPLOAD = ("users-who-upload", "Fig. 7(b)", 0.25);
    /// Gini coefficients of per-user traffic over active users.
    GINI_UPLOAD = ("gini-upload", "Fig. 7(c)", 0.8943);
    GINI_DOWNLOAD = ("gini-download", "Fig. 7(c)", 0.8966);
    TOP1_TRAFFIC_SHARE = ("top1%", "§6.1", 0.656,
        "1% of users generate 65% of the traffic (finite-sample-limited: ideal Pareto at this scale gives ~0.49)");

    /// Global probabilities of the two self-loops of the transition graph.
    UPLOAD_SELF_LOOP = ("upload-self-loop", "Fig. 8", 0.167);
    DOWNLOAD_SELF_LOOP = ("download-self-loop", "Fig. 8", 0.158);
    /// "CV >> 1": ten is the coefficient of variation taken as bursty.
    BURSTY = ("bursty", "Fig. 9", 10.0, "user inter-op times are bursty (CV >> 1)");
    /// Fits `P(X >= x) ≈ (theta/x)^alpha` of inter-op times (s). Generator inputs.
    UPLOAD_INTEROP_ALPHA = ("upload-interop-alpha", "Fig. 9", 1.54);
    UPLOAD_INTEROP_THETA = ("upload-interop-theta", "Fig. 9", 41.37);
    UNLINK_INTEROP_ALPHA = ("unlink-interop-alpha", "Fig. 9", 1.44);
    UNLINK_INTEROP_THETA = ("unlink-interop-theta", "Fig. 9", 19.51);

    FILES_DIRS_PEARSON = ("files-dirs-pearson", "Fig. 10", 0.998);
    VOLUMES_WITH_FILES = ("volumes-with-files", "Fig. 10", 0.60);
    VOLUMES_WITH_DIRS = ("volumes-with-dirs", "Fig. 10", 0.32);
    VOLUMES_OVER_1000_FILES = ("volumes-over-1000-files", "Fig. 10", 0.05);
    /// Users with at least one UDF / involved in a share. Generator inputs.
    USERS_WITH_UDF = ("users-with-udf", "Fig. 11", 0.58);
    USERS_WITH_SHARE = ("users-with-share", "Fig. 11", 0.018);

    /// The middle of 7–22% of an RPC's service times over 10x its median.
    RPC_TAILS = ("rpc-tails", "Fig. 12", 0.145, "7–22% of RPC service times far from median");
    /// Cascade over read median service time ("an order of magnitude").
    CASCADE_OVER_READ = ("cascade-over-read", "Fig. 13", 10.0);
    /// Stddev over mean of the shards' whole-trace load.
    SHARD_LONGRUN_IMBALANCE = ("shard-longrun-imbalance", "§7.2", 0.049);
    /// Auth requests by day over by night.
    AUTH_DIURNAL_SWING = ("auth-diurnal-swing", "Fig. 15", 1.55);
    /// Monday's activity over the weekend's. A generator input.
    MONDAY_OVER_WEEKEND = ("monday-over-weekend", "Fig. 15", 1.15);
    /// Auth requests that fail transiently: u1-auth's default failure rate.
    AUTH_FAILURE_RATE = ("auth-failures", "§7.3", 0.0276, "2.76% of auth requests fail");
    SESSIONS_UNDER_1S = ("sessions<1s", "Fig. 16", 0.32);
    SESSIONS_UNDER_8H = ("sessions<8h", "Fig. 16", 0.97, "97% of sessions shorter than 8h");
    /// Sessions with any data management (2.37M of 42.5M).
    ACTIVE_SESSIONS = ("active-sessions", "§7.3", 0.0557, "5.57% of sessions are active");
    /// 80% of active sessions issue ≤ 92 storage ops; the rest 96.7% of them.
    ACTIVE_SESSION_P80_OPS = ("active-session-p80-ops", "Fig. 16", 92.0);
    ACTIVE_SESSION_TOP20_OP_SHARE = ("active-session-top20-op-share", "Fig. 16", 0.967);
}

/// §6.1: user classes (occasional / upload-only / download-only / heavy),
/// as shares of all users. Generator inputs that no experiment prints.
pub const CLASS_OCCASIONAL: f64 = 0.8582;
pub const CLASS_UPLOAD_ONLY: f64 = 0.0722;
pub const CLASS_DOWNLOAD_ONLY: f64 = 0.0234;
pub const CLASS_HEAVY: f64 = 0.0462;

/// §5.4: the three DDoS episodes as day indices into the trace window,
/// which opens 2014-01-11 (Jan 15 → day 4, Jan 16 → day 5, Feb 6 → day
/// 26), and their storage-activity multipliers over normal load.
pub const ATTACK_DAYS: [u64; 3] = [4, 5, 26];
pub const ATTACK_API_MULTIPLIER: [f64; 3] = [4.6, 245.0, 6.7];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_ids_are_unique() {
        let ids: std::collections::HashSet<_> = ROWS.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), ROWS.len(), "a row id repeats");
    }

    #[test]
    fn class_shares_sum_to_one() {
        let total = CLASS_OCCASIONAL + CLASS_UPLOAD_ONLY + CLASS_DOWNLOAD_ONLY + CLASS_HEAVY;
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn dependency_mixes_sum_to_one() {
        assert!((WAW_SHARE.value + RAW_SHARE.value + DAW_SHARE.value - 1.0).abs() < 1e-9);
        assert!((WAR_SHARE.value + RAR_SHARE.value + DAR_SHARE.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attack_days_fall_inside_the_window() {
        for d in ATTACK_DAYS {
            assert!((d as f64) < TRACE_DAYS.value);
        }
    }
}
