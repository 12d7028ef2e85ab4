//! [`Backend`]: ownership and wiring of every back-end component, plus the
//! cross-cutting helpers (RPC execution with service-time sampling and
//! tracing, push fan-out, maintenance, abuse response).

use crate::cluster::{Cluster, ClusterConfig, Slot};
use crate::push::PushRouter;
use crate::session::{SessionHandle, SessionTable};
use crate::tokencache::{TokenCache, TokenCacheStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use u1_auth::{AuthConfig, AuthService};
use u1_blobstore::BlobStore;
use u1_core::fault::{self, ErrorClass, FaultInjector, FaultPlan, RetryPolicy};
use u1_core::partition::{origin_seed, OriginBank};
use u1_core::sync::Mutex;
use u1_core::{
    ApiOpKind, Clock, ContentHash, CoreError, CoreResult, FxHashMap, NodeId, NodeKind, RpcKind,
    SimDuration, SimTime, UserId, VolumeId,
};
use u1_metastore::{LatencyModel, MetaStore, StoreConfig};
use u1_proto::msg::Push;
use u1_trace::{Payload, StorageDone, TraceRecord, TraceSink};

/// Everything tunable about the back-end.
#[derive(Clone)]
pub struct BackendConfig {
    pub cluster: ClusterConfig,
    pub store: StoreConfig,
    pub auth: AuthConfig,
    /// Root seed for every stochastic model inside the back-end.
    pub seed: u64,
    /// Keep real object bytes (live mode) or sizes only (measurement mode).
    pub store_real_bytes: bool,
    /// TTL of the API tier's token cache (the paper's memcached tier,
    /// §3.2). `None` disables the cache: every session open then takes the
    /// full `GetUserIdFromToken` round trip, which keeps traces bit-for-bit
    /// identical to pre-cache builds.
    pub auth_cache_ttl: Option<SimDuration>,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] by default).
    /// With the default plan no fault RNG is ever materialized and every
    /// trace stays bit-for-bit identical to a build without the fault
    /// plane.
    pub fault: FaultPlan,
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            store: StoreConfig::default(),
            auth: AuthConfig::default(),
            seed: 0xD1CE,
            store_real_bytes: false,
            auth_cache_ttl: None,
            fault: FaultPlan::none(),
        }
    }
}

/// Effective client↔S3 forwarding bandwidth used to account transfer time
/// into upload/download durations (bytes/second).
const TRANSFER_BANDWIDTH: u64 = 10 * 1024 * 1024;

/// Fault-plane counters owned by the backend, read once at the end of a
/// run (like the token-cache stats) rather than summed per partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendFaultStats {
    /// Injected DAL RPC timeouts (each one is a failed attempt; most are
    /// absorbed by the server-side retry loop).
    pub rpc_timeouts: u64,
    /// Backoff-retries the API→DAL path performed after a timeout.
    pub rpc_retries: u64,
    /// Sessions opened from a stale token-cache entry while the auth
    /// service was down.
    pub auth_fallbacks: u64,
    /// Fan-out notifications lost in the notification plane.
    pub notify_dropped: u64,
}

/// The U1 back-end.
pub struct Backend {
    pub(crate) cfg: BackendConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub store: MetaStore,
    pub blobs: BlobStore,
    pub auth: AuthService,
    pub(crate) cluster: Cluster,
    pub sessions: SessionTable,
    pub push_router: PushRouter,
    /// Service-time sampling is stochastic: with one shared model the
    /// interleaving of concurrent driver partitions would decide which RPC
    /// draws which sample, so each origin samples from its own.
    latency: OriginBank<LatencyModel>,
    pub(crate) sink: Arc<dyn TraceSink>,
    /// The memcached-style token cache (`None` when disabled).
    pub(crate) token_cache: Option<TokenCache>,
    /// The fault-injection plane shared with the metastore and blobstore;
    /// a no-op injector when `cfg.fault` is [`FaultPlan::none`].
    pub(crate) faults: Arc<FaultInjector>,
    rpc_timeouts: AtomicU64,
    rpc_retries: AtomicU64,
    pub(crate) auth_fallbacks: AtomicU64,
    notify_dropped: AtomicU64,
    /// Volumes whose change notification was dropped before it reached a
    /// user, keyed by that user. Only targets on the *origin's own shard*
    /// are recorded: the shard-parallel driver serializes all activity of
    /// one shard, so same-shard read-after-write on this map is
    /// deterministic, while cross-shard entries would race the reader.
    missed_notify: Mutex<FxHashMap<UserId, Vec<VolumeId>>>,
}

impl Backend {
    pub fn new(cfg: BackendConfig, clock: Arc<dyn Clock>, sink: Arc<dyn TraceSink>) -> Self {
        let store = MetaStore::new(cfg.store.clone());
        let blobs = BlobStore::new();
        let faults = Arc::new(FaultInjector::new(cfg.fault.clone(), cfg.seed ^ 0xFA17));
        if !faults.is_none() {
            store.set_faults(Arc::clone(&faults));
            blobs.set_faults(Arc::clone(&faults));
        }
        let auth = AuthService::new(cfg.auth.clone(), cfg.seed ^ 0xA117);
        let cluster = Cluster::new(cfg.cluster.clone());
        let token_cache = cfg.auth_cache_ttl.map(TokenCache::new);
        Self {
            cfg,
            clock,
            store,
            blobs,
            auth,
            cluster,
            sessions: SessionTable::new(),
            push_router: PushRouter::new(),
            latency: OriginBank::default(),
            sink,
            token_cache,
            faults,
            rpc_timeouts: AtomicU64::new(0),
            rpc_retries: AtomicU64::new(0),
            auth_fallbacks: AtomicU64::new(0),
            notify_dropped: AtomicU64::new(0),
            missed_notify: Mutex::default(),
        }
    }

    /// Fault-plane counters; all zeros under [`FaultPlan::none`].
    pub fn fault_stats(&self) -> BackendFaultStats {
        BackendFaultStats {
            rpc_timeouts: self.rpc_timeouts.load(Ordering::Relaxed),
            rpc_retries: self.rpc_retries.load(Ordering::Relaxed),
            auth_fallbacks: self.auth_fallbacks.load(Ordering::Relaxed),
            notify_dropped: self.notify_dropped.load(Ordering::Relaxed),
        }
    }

    /// Degraded-mode I/O errors of the trace sink (see
    /// [`u1_trace::TraceSink::io_errors`]); zero for in-memory sinks.
    pub fn trace_io_errors(&self) -> u64 {
        self.sink.io_errors()
    }

    /// Drains the volumes whose change notification to `user` was dropped.
    /// The client calls this at session open and rescans each volume — the
    /// recovery path for lost fan-out (a client that missed a push is out
    /// of sync until its next full generation check).
    pub fn take_missed_notify(&self, user: UserId) -> Vec<VolumeId> {
        let mut vols = self.missed_notify.lock().remove(&user).unwrap_or_default();
        vols.sort_unstable();
        vols.dedup();
        vols
    }

    /// Hit/miss counters of the token cache; zeros when the cache is
    /// disabled.
    pub fn token_cache_stats(&self) -> TokenCacheStats {
        self.token_cache
            .as_ref()
            .map(TokenCache::stats)
            .unwrap_or_default()
    }

    pub fn config(&self) -> &BackendConfig {
        &self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    // ----- tracing helpers (crate-internal) ------------------------------

    /// Executes one metadata RPC: samples its service time, logs the `rpc`
    /// trace record against the acting user's shard, and returns the
    /// sampled duration. See [`Backend::rpc_timed`]; `Err` means the retry
    /// budget ran out.
    pub(crate) fn rpc(
        &self,
        slot: Slot,
        shard_user: UserId,
        rpc: RpcKind,
        cascade_rows: u64,
    ) -> CoreResult<SimDuration> {
        let (total, outcome) = self.rpc_timed(slot, shard_user, rpc, cascade_rows);
        outcome.map(|()| total)
    }

    /// [`Backend::rpc`] for a caller that has to account for the time spent
    /// even when the RPC failed.
    ///
    /// With the fault plane active, each attempt may time out; timed-out
    /// attempts are retried with bounded exponential backoff
    /// ([`u1_core::RetryPolicy`]), each attempt emitting its own `rpc`
    /// record tagged with the attempt number and (for timeouts) the
    /// `timeout` error class. The returned duration is the sum of every
    /// attempt's service time plus the backoff waits; `Err` means the
    /// retry budget ran out. The caller's attempt tag is restored on exit
    /// so `storage_done` records keep the *client-level* attempt number.
    pub(crate) fn rpc_timed(
        &self,
        slot: Slot,
        shard_user: UserId,
        rpc: RpcKind,
        cascade_rows: u64,
    ) -> (SimDuration, CoreResult<()>) {
        let policy = RetryPolicy::dal_default();
        let outer_attempt = fault::current_attempt();
        let mut total = SimDuration::ZERO;
        let mut attempt = 1u8;
        loop {
            let d = self.latency.with(
                |origin| {
                    let seed = origin_seed(self.cfg.seed ^ 0x1A7, "latency-origin", origin);
                    LatencyModel::new(seed)
                },
                |model| model.sample(rpc, cascade_rows),
            );
            total = total + d;
            let timed_out = !self.faults.is_none() && self.faults.rpc_timeout();
            fault::set_attempt(attempt);
            fault::set_error_class(if timed_out {
                Some(ErrorClass::Timeout)
            } else {
                None
            });
            self.sink.record(TraceRecord::new(
                self.now(),
                slot.machine,
                slot.process,
                Payload::Rpc {
                    rpc,
                    shard: self.store.shard_of(shard_user),
                    user: shard_user,
                    service_us: d.as_micros(),
                },
            ));
            if !timed_out {
                fault::set_attempt(outer_attempt);
                fault::set_error_class(None);
                return (total, Ok(()));
            }
            self.rpc_timeouts.fetch_add(1, Ordering::Relaxed);
            if attempt >= policy.max_attempts {
                fault::set_attempt(outer_attempt);
                fault::set_error_class(Some(ErrorClass::Timeout));
                return (
                    total,
                    Err(CoreError::unavailable(format!(
                        "rpc timed out after {attempt} attempts"
                    ))),
                );
            }
            total = total + policy.backoff(attempt);
            self.rpc_retries.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
    }

    /// Logs a completed (or failed) API operation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn log_storage(
        &self,
        h: &SessionHandle,
        op: ApiOpKind,
        volume: VolumeId,
        node: Option<NodeId>,
        kind: Option<NodeKind>,
        size: u64,
        hash: Option<ContentHash>,
        ext: &str,
        success: bool,
        duration: SimDuration,
    ) {
        self.sink.record(TraceRecord::new(
            self.now(),
            h.slot.machine,
            h.slot.process,
            Payload::Storage(Box::new(StorageDone {
                op,
                session: h.session,
                user: h.user,
                volume,
                node,
                kind,
                size,
                hash,
                ext: u1_core::Ext::new(ext),
                success,
                duration_us: duration.as_micros(),
            })),
        ));
    }

    pub(crate) fn log_session_event(&self, h: &SessionHandle, event: u1_trace::SessionEvent) {
        self.sink.record(TraceRecord::new(
            self.now(),
            h.slot.machine,
            h.slot.process,
            Payload::Session {
                event,
                session: h.session,
                user: h.user,
            },
        ));
    }

    pub(crate) fn log_auth(&self, slot: Slot, user: UserId, success: bool) {
        self.sink.record(TraceRecord::new(
            self.now(),
            slot.machine,
            slot.process,
            Payload::Auth { user, success },
        ));
    }

    /// Transfer-time component of an upload/download.
    pub(crate) fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / TRANSFER_BANDWIDTH as f64)
    }

    // ----- push fan-out ----------------------------------------------------

    /// Notifies every affected client of a volume change: the volume
    /// owner's and share recipients' live sessions, except the session that
    /// caused it.
    pub(crate) fn notify_change(&self, origin: &SessionHandle, volume: VolumeId, push: Push) {
        let mut targets = Vec::new();
        if let Some(owner) = self.store.owner_of(volume) {
            targets.push(owner);
        }
        targets.extend(self.store.share_recipients(volume));
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() {
            return;
        }
        if !self.faults.is_none() && self.faults.notify_dropped() {
            // The fan-out dies inside the notification plane: nobody is
            // pushed, and affected same-shard clients are remembered so
            // their next session rescans the volume (see
            // `take_missed_notify` for why only same-shard targets are
            // recorded).
            self.notify_dropped.fetch_add(1, Ordering::Relaxed);
            let origin_shard = self.store.shard_of(origin.user);
            let mut missed = self.missed_notify.lock();
            for user in targets {
                if self.store.shard_of(user) == origin_shard {
                    missed.entry(user).or_default().push(volume);
                }
            }
            return;
        }

        self.fan_out(&targets, Some(origin), push);
    }

    /// Delivers `push` once, down its own channel, to every live session of
    /// `targets` but the pushing session. A session on the pusher's API
    /// process counts as same-process (§3.4.2 footnote 4); any other, and
    /// every session when no session pushed, counts as cross-process.
    pub(crate) fn fan_out(&self, targets: &[UserId], from: Option<&SessionHandle>, push: Push) {
        for user in targets {
            self.sessions.for_each_of(*user, |s| match from {
                Some(h) if s.handle.session == h.session => {}
                _ => {
                    let local = from.is_some_and(|h| s.handle.slot == h.slot);
                    self.push_router.deliver(s, push.clone(), local);
                }
            });
        }
    }

    // ----- maintenance & abuse response -------------------------------------

    /// The periodic server-side sweep: touches and garbage-collects upload
    /// jobs older than the configured week (Appendix A), aborting their
    /// object-store multiparts.
    pub fn run_maintenance(&self) -> usize {
        let now = self.now();
        let reaped = self.store.gc_uploadjobs(now);
        for job in &reaped {
            // The GC check itself is an RPC against the store.
            let slot = Slot {
                machine: u1_core::MachineId::new(0),
                process: u1_core::ProcessId::new(0),
            };
            // Maintenance tolerates RPC failures: the row is already gone
            // and the sweep re-runs daily.
            let _ = self.rpc(slot, job.user, RpcKind::TouchUploadJob, 0);
            let _ = self.rpc(slot, job.user, RpcKind::DeleteUploadJob, 0);
            if let Some(mp) = job.multipart_id {
                let _ = self.blobs.abort_multipart(mp);
            }
        }
        reaped.len()
    }

    /// Closes the current content-index epoch (see
    /// [`u1_metastore::ContentIndex`]) and reconciles the object store with
    /// the folded outcome: hashes whose global refcount folded to zero lose
    /// their objects, and hashes some partition view-zeroed but that
    /// survived the fold get their objects restored (size-only in
    /// measurement mode). The workload driver calls this at day boundaries,
    /// while every partition is quiescent.
    pub fn seal_content_epoch(&self) {
        let outcome = self.store.seal_epoch();
        let now = self.now();
        for hash in outcome.dead {
            self.blobs.delete(hash);
        }
        for (hash, size) in outcome.live {
            self.blobs.restore(hash, size, now);
        }
    }

    /// The manual DDoS countermeasure of §5.4: "U1 engineers manually
    /// handled DDoS by means of deleting fraudulent users and the content
    /// to be shared". Revokes the token, closes every session, and deletes
    /// the user's volumes and contents.
    pub fn ban_user(&self, user: UserId) -> usize {
        if let Some(token) = self.auth.revoke_user(user) {
            // Revocation must reach the memcached tier too, or the banned
            // user could keep opening sessions until the TTL ran out.
            if let Some(cache) = &self.token_cache {
                cache.invalidate(token);
            }
        }
        let evicted = self.sessions.evict_user(user);
        for h in &evicted {
            self.cluster.release_session(h.slot);
            self.log_session_event(h, u1_trace::SessionEvent::Close);
        }
        // Delete the fraudulent content (every non-root volume, then the
        // root volume's nodes).
        if let Ok(vols) = self.store.list_volumes(user) {
            for v in vols {
                if v.kind != u1_core::VolumeKind::Root {
                    if let Ok(released) = self.store.delete_volume(user, v.volume) {
                        for hash in released.unreferenced {
                            self.blobs.delete(hash);
                        }
                    }
                } else if let Ok((_, nodes)) = self.store.get_from_scratch(user, v.volume, |n| n) {
                    for n in nodes {
                        if n.parent.is_none() {
                            if let Ok(released) =
                                self.store.unlink(user, v.volume, n.node, self.now())
                            {
                                for hash in released.unreferenced {
                                    self.blobs.delete(hash);
                                }
                            }
                        }
                    }
                }
            }
        }
        evicted.len()
    }

    /// Flushes the trace sink.
    pub fn flush_trace(&self) {
        self.sink.flush();
    }

    /// Flushes only one origin's (driver partition's) buffered trace
    /// records. Driver workers call this for their own shards at day
    /// boundaries, before parking at the barrier, so the day flush runs in
    /// parallel instead of serially on the coordinator.
    pub fn flush_trace_origin(&self, origin: u32) {
        self.sink.flush_origin(origin);
    }

    /// Tells the trace sink that no record with `t < before` will be
    /// emitted any more. The driver's coordinator calls this at every day
    /// barrier, once every partition has stopped at `before`.
    pub fn seal_trace_before(&self, before: SimTime) {
        self.sink.seal_before(before);
    }
}
