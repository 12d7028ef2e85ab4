//! The battery: every analysis of the report, folded from one decode of
//! each record.
//!
//! Most analyses key their state on one of four entities: the user, the
//! node, the session or the content hash. Each entity kind has ONE id →
//! slot table here, and one row per slot holding every analysis's state for
//! that entity, so a record costs one lookup per entity it names, however
//! many analyses read it. Ids are arbitrary `u64`s (or hashes); the tables
//! assume nothing about their size or density. State keyed by an operation
//! or RPC kind is an array indexed by the kind.
//!
//! Merging a later chunk's battery moves its keys into this one's tables.
//! That gives each of its slots a slot here; rows that refer to other
//! entities (a session's opening user, an upload's content) are renamed
//! through those maps before they combine with the earlier rows.

use crate::burstiness;
use crate::dedup::Copies;
use crate::dependencies::{made, Chain, Created, Deps, Ev, Lifetimes};
use crate::engine::{Ends, EngineConfig, EngineReport, TraceFold, EXTS};
use crate::faults::FaultCounts;
use crate::markov::{chain_op, Transitions};
use crate::rpc::{LoadGrid, RpcSamples};
use crate::sessions::{SessionLog, SessionRow};
use crate::storage::{Content, SizeCounts, UpdateAnalysis, Uploads};
use crate::summary::TraceSummary;
use crate::timeseries::{hour_bins, hour_of, last_instant, Hour, TrafficSeries, UserHours};
use crate::users::{OpCounts, UserTraffic};
use std::hash::Hash;
use std::ops::{Index, IndexMut};
use u1_core::{ApiOpKind, ContentHash, Ext, FileCategory, FxHashMap, NodeKind, SimTime};
use u1_trace::{Payload, SessionEvent, StorageDone, TraceRecord};

/// Rows per page of [`Rows`].
const PAGE: usize = 1 << 10;

/// A table's rows, in pages of [`PAGE`]. A table grows by a page and never
/// copies its rows into a block twice their size: a block that large needs
/// fresh memory, while pages fit in what the heap already holds.
struct Rows<R> {
    pages: Vec<Vec<R>>,
}

impl<R> Rows<R> {
    fn len(&self) -> usize {
        self.pages.len().saturating_sub(1) * PAGE + self.pages.last().map_or(0, Vec::len)
    }

    fn push(&mut self, row: R) {
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE => page.push(row),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(row);
                self.pages.push(page);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &R> + Clone {
        self.pages.iter().flatten()
    }
}

impl<R> Index<usize> for Rows<R> {
    type Output = R;

    fn index(&self, slot: usize) -> &R {
        &self.pages[slot / PAGE][slot % PAGE]
    }
}

impl<R> IndexMut<usize> for Rows<R> {
    fn index_mut(&mut self, slot: usize) -> &mut R {
        &mut self.pages[slot / PAGE][slot % PAGE]
    }
}

impl<R> IntoIterator for Rows<R> {
    type Item = R;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<R>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.pages.into_iter().flatten()
    }
}

/// One entity kind's id → slot table and its rows.
struct Table<K, R> {
    slots: FxHashMap<K, u32>,
    rows: Rows<R>,
    /// The last key looked up and its slot: consecutive records often name
    /// the same entity (an operation's RPCs follow it).
    last: Option<(K, usize)>,
}

impl<K: Hash + Eq + Copy, R: Default> Table<K, R> {
    fn new() -> Self {
        Self {
            slots: FxHashMap::default(),
            rows: Rows { pages: Vec::new() },
            last: None,
        }
    }

    /// The slot of `key`, with a default row on first sight. Slots stay
    /// below `u32::MAX`, which rows may use to mean "no slot".
    fn slot(&mut self, key: K) -> usize {
        if let Some((k, slot)) = self.last {
            if k == key {
                return slot;
            }
        }
        let rows = &mut self.rows;
        let slot = *self.slots.entry(key).or_insert_with(|| {
            let slot = u32::try_from(rows.len())
                .ok()
                .filter(|&s| s < u32::MAX)
                .expect("fewer than 2^32 - 1 ids per entity kind");
            rows.push(R::default());
            slot
        }) as usize;
        self.last = Some((key, slot));
        slot
    }

    /// Moves `later`'s keys into this table (new keys get default rows).
    /// Returns, indexed by later's slots, each key's slot here, and later's
    /// rows.
    fn absorb(&mut self, later: Table<K, R>) -> (Vec<u32>, Rows<R>) {
        let mut slots = vec![0; later.rows.len()];
        for (key, s) in later.slots {
            slots[s as usize] = self.slot(key) as u32;
        }
        (slots, later.rows)
    }
}

/// A node row's upload content when the upload carried no hash.
const NO_CONTENT: u32 = u32::MAX;

/// Everything the battery keeps per user.
#[derive(Default)]
struct User {
    traffic: UserTraffic,
    chain: Ends<ApiOpKind>,
    uploads: Ends<SimTime>,
    unlinks: Ends<SimTime>,
}

/// Everything the battery keeps per node. Upload contents are content
/// slots, or [`NO_CONTENT`].
#[derive(Default)]
struct Node {
    uploads: Option<Uploads<u32>>,
    chain: Option<Chain>,
    reads: u64,
    created: Created,
}

/// A make or unlink that found no creation state in its chunk; the merge
/// replays it, in order, against the earlier chunk's nodes. A make counted
/// provisionally is taken back if the node already existed there.
enum Unresolved {
    Make { node: u32, kind: NodeKind },
    Unlink { node: u32, t: SimTime },
}

/// What an upload's extension means to the report: its file category and
/// which Fig. 4(b) curve, if any, its size joins.
#[derive(Clone, Copy)]
struct ExtInfo {
    category: FileCategory,
    curve: Option<usize>,
}

/// Every analysis of the report, fed simultaneously from one decode of
/// each record. The [`TraceFold`] of the engine.
pub struct Battery {
    cfg: EngineConfig,
    users: Table<u64, User>,
    nodes: Table<u64, Node>,
    sessions: Table<u64, SessionRow>,
    contents: Table<ContentHash, Copies>,
    exts: FxHashMap<Ext, ExtInfo>,
    hours: Vec<Hour>,
    user_hours: UserHours,
    summary: TraceSummary,
    ops: OpCounts,
    sizes: SizeCounts,
    updates: UpdateAnalysis,
    upload_sizes: Vec<u64>,
    ext_sizes: Vec<Vec<u64>>,
    deps: Deps,
    lifetimes: Lifetimes,
    unresolved: Vec<Unresolved>,
    transitions: Transitions,
    upload_gaps: Vec<u64>,
    unlink_gaps: Vec<u64>,
    rpc: RpcSamples,
    load: LoadGrid,
    auths: u64,
    auth_failures: u64,
    session_log: SessionLog,
    faults: FaultCounts,
}

impl Battery {
    pub fn new(cfg: &EngineConfig) -> Self {
        Self {
            users: Table::new(),
            nodes: Table::new(),
            sessions: Table::new(),
            contents: Table::new(),
            exts: FxHashMap::default(),
            hours: vec![Hour::default(); hour_bins(cfg.horizon)],
            user_hours: UserHours::new(cfg.horizon),
            summary: TraceSummary::default(),
            ops: OpCounts::default(),
            sizes: SizeCounts::default(),
            updates: UpdateAnalysis::default(),
            upload_sizes: Vec::new(),
            ext_sizes: vec![Vec::new(); EXTS.len()],
            deps: Deps::default(),
            lifetimes: Lifetimes::default(),
            unresolved: Vec::new(),
            transitions: Transitions::default(),
            upload_gaps: Vec::new(),
            unlink_gaps: Vec::new(),
            rpc: RpcSamples::default(),
            load: LoadGrid::new(cfg.horizon, cfg.machines, cfg.shards),
            auths: 0,
            auth_failures: 0,
            session_log: SessionLog::default(),
            faults: FaultCounts::default(),
            cfg: cfg.clone(),
        }
    }

    /// A successful or failed `storage_done` record by user slot `user`.
    fn storage(&mut self, rec: &TraceRecord, done: &StorageDone, user: usize, hour: Option<usize>) {
        if let Some(h) = hour {
            self.hours[h].storage += 1;
            self.load.api(h, rec.machine);
        }
        if !done.success {
            return;
        }
        let (t, op, size) = (rec.t, done.op, done.size);
        let row = &mut self.users.rows[user];
        row.traffic.add(op, size);
        if let Some(state) = chain_op(op) {
            self.transitions.step(&mut row.chain, state);
        }
        match op {
            ApiOpKind::Upload => burstiness::step(&mut self.upload_gaps, &mut row.uploads, t),
            ApiOpKind::Unlink => burstiness::step(&mut self.unlink_gaps, &mut row.unlinks, t),
            _ => {}
        }
        self.summary.add_transfer(op, size);
        self.sizes.add(op, size);
        if let Some(h) = hour {
            self.hours[h].add_transfer(op, size);
        }
        if op.is_data_management() {
            let session = self.sessions.slot(done.session.raw());
            self.sessions.rows[session].data_ops += 1;
            if let Some(h) = hour {
                self.user_hours.active(user, h);
            }
        }
        let upload = (op == ApiOpKind::Upload).then(|| self.upload(done));
        let Some(node) = done.node else { return };
        let slot = self.nodes.slot(node.raw());
        let row = &mut self.nodes.rows[slot];
        if let Some((content, category)) = upload {
            self.updates.upload(&mut row.uploads, content, category);
        } else if let Some(kind) = made(op) {
            if self.lifetimes.make(&mut row.created, kind, t) {
                let node = slot as u32;
                self.unresolved.push(Unresolved::Make { node, kind });
            }
        } else if op == ApiOpKind::Unlink && !self.lifetimes.unlink(&mut row.created, t) {
            let node = slot as u32;
            self.unresolved.push(Unresolved::Unlink { node, t });
        }
        if done.kind != Some(NodeKind::Directory) {
            if let Some(ev) = Ev::of(op) {
                self.deps.event(&mut row.chain, &mut row.reads, ev, t);
            }
        }
    }

    /// A successful upload's sizes and content; returns what its node
    /// records of it.
    fn upload(&mut self, done: &StorageDone) -> (Content<u32>, FileCategory) {
        let ext = *self.exts.entry(done.ext).or_insert_with(|| ExtInfo {
            category: FileCategory::of_extension(&done.ext),
            curve: EXTS.iter().position(|&e| e == done.ext.as_str()),
        });
        self.upload_sizes.push(done.size);
        if let Some(curve) = ext.curve {
            self.ext_sizes[curve].push(done.size);
        }
        let content = done.hash.map_or(NO_CONTENT, |hash| {
            let slot = self.contents.slot(hash);
            self.contents.rows[slot].add(done.size);
            slot as u32
        });
        ((content, done.size), ext.category)
    }

    /// The online-span sink for the session log: spans end at the horizon.
    fn online(
        user_hours: &mut UserHours,
        horizon: SimTime,
    ) -> impl FnMut(u32, SimTime, SimTime) + '_ {
        move |user, from, to| user_hours.online(user as usize, from, to.min(horizon))
    }
}

impl TraceFold for Battery {
    type Output = EngineReport;

    fn new_partial(&self) -> Self {
        Battery::new(&self.cfg)
    }

    fn feed(&mut self, rec: &TraceRecord) {
        let t = rec.t;
        let hour = (t < self.cfg.horizon).then(|| hour_of(t));
        self.summary.records += 1;
        self.faults.feed(rec);
        if let Some(op) = crate::users::op_of(&rec.payload) {
            self.ops[op as usize] += 1;
        }
        let user = self.users.slot(rec.payload.user().raw());
        match &rec.payload {
            Payload::Session { event, session, .. } => {
                if let Some(h) = hour {
                    self.hours[h].session += 1;
                    self.load.api(h, rec.machine);
                }
                let slot = self.sessions.slot(session.raw());
                let row = &mut self.sessions.rows[slot];
                if *event == SessionEvent::Open {
                    self.summary.sessions += 1;
                    row.open = Some((user as u32, t));
                    row.opened = true;
                } else if let Some((u, from)) =
                    self.session_log.close(slot as u32, row, user as u32, t)
                {
                    let to = t.min(self.cfg.horizon);
                    self.user_hours.online(u as usize, from, to);
                }
            }
            Payload::Storage(done) => self.storage(rec, done, user, hour),
            Payload::Rpc {
                rpc,
                shard,
                service_us,
                ..
            } => {
                if hour.is_some() {
                    self.load.rpc(t, *shard);
                }
                self.rpc[*rpc as usize].push(*service_us);
            }
            Payload::Auth { success, .. } => {
                self.auths += 1;
                self.auth_failures += u64::from(!success);
                if let Some(h) = hour {
                    self.hours[h].auth += 1;
                }
                if *success {
                    let chain = &mut self.users.rows[user].chain;
                    self.transitions.step(chain, ApiOpKind::Authenticate);
                }
            }
        }
    }

    fn merge(&mut self, later: Self) {
        // Users: traffic adds; chains and gap ends join across the boundary.
        let (user_slot, rows) = self.users.absorb(later.users);
        for (theirs, &s) in rows.into_iter().zip(&user_slot) {
            let mine = &mut self.users.rows[s as usize];
            mine.traffic.upload += theirs.traffic.upload;
            mine.traffic.download += theirs.traffic.download;
            self.transitions.join(&mut mine.chain, theirs.chain);
            burstiness::join(&mut self.upload_gaps, &mut mine.uploads, theirs.uploads);
            burstiness::join(&mut self.unlink_gaps, &mut mine.unlinks, theirs.unlinks);
        }
        self.user_hours.merge(later.user_hours, &user_slot);

        let (content_slot, rows) = self.contents.absorb(later.contents);
        for (theirs, &s) in rows.into_iter().zip(&content_slot) {
            self.contents.rows[s as usize].join(theirs);
        }

        // Nodes: the later chunk's unresolved makes and unlinks replay
        // against this chunk's creations before its rows combine.
        let (node_slot, rows) = self.nodes.absorb(later.nodes);
        self.lifetimes.merge(later.lifetimes);
        for ev in later.unresolved {
            match ev {
                Unresolved::Make { node, kind } => {
                    let node = node_slot[node as usize];
                    if self.nodes.rows[node as usize].created.take().is_some() {
                        // The node already existed, so the serial pass would
                        // not have counted this make; the later row carries
                        // the refreshed creation.
                        *self.lifetimes.created(kind) -= 1;
                    } else {
                        self.unresolved.push(Unresolved::Make { node, kind });
                    }
                }
                Unresolved::Unlink { node, t } => {
                    let node = node_slot[node as usize];
                    if !self
                        .lifetimes
                        .unlink(&mut self.nodes.rows[node as usize].created, t)
                    {
                        self.unresolved.push(Unresolved::Unlink { node, t });
                    }
                }
            }
        }
        for (mut theirs, &s) in rows.into_iter().zip(&node_slot) {
            let mine = &mut self.nodes.rows[s as usize];
            if let Some(up) = theirs.uploads.as_mut() {
                up.map_contents(|c| match c {
                    NO_CONTENT => c,
                    c => content_slot[c as usize],
                });
            }
            self.updates.join(&mut mine.uploads, theirs.uploads);
            self.deps.join(&mut mine.chain, theirs.chain);
            mine.reads += theirs.reads;
            if theirs.created.is_some() {
                mine.created = theirs.created;
            }
        }

        let (session_slot, rows) = self.sessions.absorb(later.sessions);
        self.session_log.merge(
            later.session_log,
            &mut self.sessions.rows,
            rows,
            (&session_slot, &user_slot),
            Battery::online(&mut self.user_hours, self.cfg.horizon),
        );

        for (mine, theirs) in self.hours.iter_mut().zip(&later.hours) {
            mine.add(theirs);
        }
        self.summary.merge(&later.summary);
        for (mine, theirs) in self.ops.iter_mut().zip(later.ops) {
            *mine += theirs;
        }
        self.sizes.merge(&later.sizes);
        self.updates.merge(&later.updates);
        self.upload_sizes.extend(later.upload_sizes);
        for (mine, theirs) in self.ext_sizes.iter_mut().zip(later.ext_sizes) {
            mine.extend(theirs);
        }
        self.deps.merge(later.deps);
        self.transitions.merge(&later.transitions);
        self.upload_gaps.extend(later.upload_gaps);
        self.unlink_gaps.extend(later.unlink_gaps);
        for (mine, theirs) in self.rpc.iter_mut().zip(later.rpc) {
            mine.extend(theirs);
        }
        self.load.merge(&later.load);
        self.auths += later.auths;
        self.auth_failures += later.auth_failures;
        self.faults.merge(&later.faults);
    }

    fn finish(self) -> EngineReport {
        let horizon = self.cfg.horizon;
        let mut user_hours = self.user_hours;
        let sessions = self.session_log.finish(
            self.sessions.rows.iter(),
            last_instant(horizon),
            Battery::online(&mut user_hours, horizon),
        );
        let traffic = TrafficSeries::of(&self.hours);
        let online_active = user_hours.finish();
        let users = || self.users.rows.iter().map(|u| &u.traffic);
        let nodes = &self.nodes.rows;
        EngineReport {
            summary: TraceSummary {
                trace_days: horizon.day_index(),
                unique_users: self.users.rows.len() as u64,
                unique_files: nodes.len() as u64,
                ..self.summary
            },
            diurnal_swing: crate::storage::upload_diurnal_swing_from_series(&traffic),
            rw: crate::storage::rw_ratio_from_series(&traffic),
            active_online: crate::users::active_online_summary_from_series(&online_active),
            size_shares: self.sizes.finish(),
            updates: self.updates.finish(),
            taxonomy: crate::storage::taxonomy(
                nodes
                    .iter()
                    .filter_map(|n| n.uploads.map(|up| (up.category, up.last_size))),
            ),
            size_by_ext: crate::storage::size_by_ext(self.upload_sizes, self.ext_sizes),
            dedup: crate::dedup::dedup(self.contents.rows.iter()),
            dependencies: self.deps.finish(
                nodes.iter().map(|n| n.reads),
                nodes.iter().filter(|n| n.chain.is_some()).count() as u64,
            ),
            lifetimes: self.lifetimes.finish(),
            ddos: crate::ddos::report(&self.hours),
            op_mix: crate::users::op_mix_of(&self.ops),
            inequality: crate::users::inequality(users()),
            class_shares: crate::users::class_shares_of(users()),
            markov: self.transitions.finish(),
            burst_upload: burstiness::finish(ApiOpKind::Upload, self.upload_gaps),
            burst_unlink: burstiness::finish(ApiOpKind::Unlink, self.unlink_gaps),
            rpc: crate::rpc::analysis(self.rpc),
            load_balance: self.load.finish(),
            auth: crate::sessions::auth_activity_of(&self.hours, self.auths, self.auth_failures),
            sessions,
            faults: self.faults.finish(),
            traffic,
            online_active,
        }
    }
}
