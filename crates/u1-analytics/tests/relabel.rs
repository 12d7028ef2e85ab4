//! Ids are labels. Over small generated traces whose user, session and node
//! ids are sparse 64-bit values, relabelling every id by a bijection on
//! `u64` must leave the battery's report unchanged, and on the relabelled
//! trace the battery must still equal every standalone analyzer, serially
//! and merged across a split.

use proptest::prelude::*;
use serde::Serialize;
use u1_analytics as ana;
use u1_analytics::engine::{run_all, run_chunks, Battery, EngineConfig, EngineReport};
use u1_analytics::testkit::*;
use u1_core::{ApiOpKind, NodeKind, RpcKind, SimTime};
use u1_trace::{Payload, TraceRecord};

const DAYS: u64 = 3;

/// One generated event: (kind, user, session, node, second, size, content,
/// success). The id fields index into the trace's sparse id pools.
type Event = (u8, usize, usize, usize, u64, u64, u64, bool);

fn record(ev: Event, users: &[u64], sessions: &[u64], nodes: &[u64]) -> TraceRecord {
    let (kind, u, s, n, secs, size, content, ok) = ev;
    let (t, user, session, node) = (at(secs), users[u], sessions[s], nodes[n]);
    let ext = ["jpg", "mp3", "txt", ""][(content % 4) as usize];
    let mut rec = match kind {
        0 => session_open(t, session, user),
        1 => session_close(t, session, user),
        2 => auth(t, user, ok),
        3 => transfer(
            t,
            ApiOpKind::Upload,
            session,
            user,
            node,
            size,
            content,
            ext,
        ),
        4 => transfer(
            t,
            ApiOpKind::Download,
            session,
            user,
            node,
            size,
            content,
            ext,
        ),
        5 => node_op(t, ApiOpKind::MakeFile, session, user, node, NodeKind::File),
        6 => node_op(
            t,
            ApiOpKind::MakeDir,
            session,
            user,
            node,
            NodeKind::Directory,
        ),
        7 => node_op(t, ApiOpKind::Unlink, session, user, node, NodeKind::File),
        8 => op(t, ApiOpKind::GetDelta, session, user),
        _ => rpc_on(
            t,
            (size % 3) as u16,
            0,
            RpcKind::ALL[(content % 23) as usize],
            user,
            (node % 4) as u16,
            size,
        ),
    };
    if let Payload::Storage(done) = &mut rec.payload {
        // Mostly successes, so chains and sessions form.
        done.success = ok || content % 3 != 0;
    }
    rec
}

fn trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    let pools = (
        proptest::collection::vec(any::<u64>(), 1..5),
        proptest::collection::vec(any::<u64>(), 1..6),
        proptest::collection::vec(any::<u64>(), 1..7),
    );
    let event = (
        0u8..10,
        0usize..4,
        0usize..5,
        0usize..6,
        0..DAYS * 86_400,
        0u64..30_000_000,
        0u64..12,
        any::<bool>(),
    );
    (pools, proptest::collection::vec(event, 0..80)).prop_map(|((users, sessions, nodes), evs)| {
        let mut recs: Vec<TraceRecord> = evs
            .into_iter()
            .map(|(kind, u, s, n, secs, size, content, ok)| {
                let ev = (
                    kind,
                    u % users.len(),
                    s % sessions.len(),
                    n % nodes.len(),
                    secs,
                    size,
                    content,
                    ok,
                );
                record(ev, &users, &sessions, &nodes)
            })
            .collect();
        recs.sort_by_key(|r| r.t);
        recs
    })
}

fn json<T: Serialize>(x: &T) -> serde_json::Value {
    serde_json::to_value(x)
}

/// Every battery field against the standalone analyzer behind it.
fn assert_battery_equals_analyzers(rep: &EngineReport, recs: &[TraceRecord], cfg: &EngineConfig) {
    let h = cfg.horizon;
    let exts: Vec<&str> = cfg.exts.iter().map(String::as_str).collect();
    assert_eq!(
        json(&rep.summary),
        json(&ana::summary::trace_summary(recs, h))
    );
    assert_eq!(
        json(&rep.traffic),
        json(&ana::timeseries::traffic_per_hour(recs, h))
    );
    assert_eq!(
        json(&rep.online_active),
        json(&ana::timeseries::online_active_per_hour(recs, h))
    );
    assert_eq!(
        json(&rep.size_shares),
        json(&ana::storage::size_category_shares(recs))
    );
    assert_eq!(json(&rep.rw), json(&ana::storage::rw_ratio(recs, h)));
    assert_eq!(
        json(&rep.updates),
        json(&ana::storage::update_analysis(recs))
    );
    assert_eq!(
        json(&rep.taxonomy),
        json(&ana::storage::taxonomy_shares(recs))
    );
    assert_eq!(
        json(&rep.size_by_ext),
        json(&ana::storage::size_by_extension(recs, &exts))
    );
    assert_eq!(json(&rep.dedup), json(&ana::dedup::dedup_analysis(recs)));
    assert_eq!(
        json(&rep.dependencies),
        json(&ana::dependencies::dependency_analysis(recs))
    );
    assert_eq!(
        json(&rep.lifetimes),
        json(&ana::dependencies::lifetime_analysis(recs))
    );
    assert_eq!(
        json(&rep.ddos),
        json(&ana::ddos::detect(recs, h, &cfg.ddos))
    );
    assert_eq!(json(&rep.op_mix), json(&ana::users::op_mix(recs)));
    assert_eq!(
        json(&rep.inequality),
        json(&ana::users::traffic_inequality(recs))
    );
    assert_eq!(
        json(&rep.class_shares),
        json(&ana::users::class_shares(recs))
    );
    assert_eq!(
        json(&rep.markov),
        json(&ana::markov::transition_graph(recs))
    );
    assert_eq!(
        json(&rep.burst_upload),
        json(&ana::burstiness::burstiness(recs, ApiOpKind::Upload))
    );
    assert_eq!(
        json(&rep.burst_unlink),
        json(&ana::burstiness::burstiness(recs, ApiOpKind::Unlink))
    );
    assert_eq!(json(&rep.rpc), json(&ana::rpc::rpc_analysis(recs)));
    assert_eq!(
        json(&rep.load_balance),
        json(&ana::rpc::load_balance(
            recs,
            h,
            cfg.machines,
            cfg.shards,
            cfg.lb_minutes
        ))
    );
    assert_eq!(
        json(&rep.auth),
        json(&ana::sessions::auth_activity(recs, h))
    );
    assert_eq!(
        json(&rep.sessions),
        json(&ana::sessions::session_analysis(recs))
    );
    assert_eq!(json(&rep.faults), json(&ana::faults::fault_analysis(recs)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relabelled_sparse_ids_change_nothing(
        recs in trace(),
        k in any::<u64>(),
        split in 0usize..100,
    ) {
        let cfg = EngineConfig::new(SimTime::from_days(DAYS), 3, 4);
        let original = run_all(&recs, &cfg);
        let relabelled: Vec<TraceRecord> = recs.iter().map(|r| relabel(r.clone(), k)).collect();
        let report = run_all(&relabelled, &cfg);
        prop_assert_eq!(json(&report), json(&original));
        assert_battery_equals_analyzers(&report, &relabelled, &cfg);
        let (a, b) = relabelled.split_at(split.min(relabelled.len()));
        let merged = run_chunks(Battery::new(&cfg), &[a, b]);
        prop_assert_eq!(json(&merged), json(&report));
    }
}
