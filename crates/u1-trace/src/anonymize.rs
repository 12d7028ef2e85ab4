//! Trace anonymization.
//!
//! §4: "Canonical anonymized sensitive information to build the trace (user
//! ids, file names, etc.)". We reproduce that release step: a keyed
//! bijective scrambling of user/session/node/volume ids and removal of file
//! extensions beyond their category-defining suffix. The mapping is
//! deterministic given the key, so two records of the same user still
//! correlate after anonymization (which the paper's analyses require), but
//! raw identities cannot be recovered without the key.

use crate::event::{Payload, TraceRecord};

/// A keyed anonymizer. Ids are passed through a Feistel-style bijection on
/// 64 bits, so anonymization preserves distinctness (no two users collapse
/// into one — that would corrupt per-user statistics).
#[derive(Clone, Debug)]
pub struct Anonymizer {
    key: u64,
}

impl Anonymizer {
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    /// 4-round Feistel permutation over the 64-bit id space.
    fn permute(&self, x: u64) -> u64 {
        let mut l = (x >> 32) as u32;
        let mut r = (x & 0xFFFF_FFFF) as u32;
        for round in 0..4u64 {
            let k = self.key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
            let f = (r as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(k);
            let f = ((f >> 32) ^ f) as u32;
            let nl = r;
            r = l ^ f;
            l = nl;
        }
        ((l as u64) << 32) | r as u64
    }

    /// Anonymizes one record in place.
    pub fn anonymize(&self, rec: &mut TraceRecord) {
        match &mut rec.payload {
            Payload::Session { session, user, .. } => {
                session.0 = self.permute(session.0);
                user.0 = self.permute(user.0);
            }
            Payload::Storage(done) => {
                done.session.0 = self.permute(done.session.0);
                done.user.0 = self.permute(done.user.0);
                done.volume.0 = self.permute(done.volume.0);
                if let Some(n) = &mut done.node {
                    n.0 = self.permute(n.0);
                }
                // Extension is kept: it is the category signal §5.3 needs and
                // is not personally identifying. Hashes are already opaque.
            }
            Payload::Rpc { user, .. } => {
                user.0 = self.permute(user.0);
            }
            Payload::Auth { user, .. } => {
                user.0 = self.permute(user.0);
            }
        }
    }

    /// Anonymizes a whole trace.
    pub fn anonymize_all(&self, recs: &mut [TraceRecord]) {
        for rec in recs {
            self.anonymize(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SessionEvent;
    use std::collections::HashSet;
    use u1_core::{MachineId, ProcessId, SessionId, SimTime, UserId};

    fn session_rec(user: u64) -> TraceRecord {
        TraceRecord::new(
            SimTime::ZERO,
            MachineId::new(0),
            ProcessId::new(0),
            Payload::Session {
                event: SessionEvent::Open,
                session: SessionId::new(user * 10),
                user: UserId::new(user),
            },
        )
    }

    #[test]
    fn permutation_is_injective_on_a_sample() {
        let a = Anonymizer::new(42);
        let mut seen = HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(a.permute(x)), "collision at {x}");
        }
    }

    #[test]
    fn same_user_maps_to_same_pseudonym() {
        let a = Anonymizer::new(7);
        let mut r1 = session_rec(5);
        let mut r2 = session_rec(5);
        a.anonymize(&mut r1);
        a.anonymize(&mut r2);
        assert_eq!(r1.payload.user(), r2.payload.user());
        assert_ne!(r1.payload.user(), UserId::new(5));
    }

    #[test]
    fn different_keys_give_different_pseudonyms() {
        let mut r1 = session_rec(5);
        let mut r2 = session_rec(5);
        Anonymizer::new(1).anonymize(&mut r1);
        Anonymizer::new(2).anonymize(&mut r2);
        assert_ne!(r1.payload.user(), r2.payload.user());
    }

    #[test]
    fn anonymize_all_covers_every_record() {
        let a = Anonymizer::new(3);
        let mut recs: Vec<TraceRecord> = (0..10).map(session_rec).collect();
        a.anonymize_all(&mut recs);
        let users: HashSet<u64> = recs.iter().map(|r| r.payload.user().raw()).collect();
        assert_eq!(users.len(), 10);
        assert!(!users.contains(&0) || a.permute(0) == 0); // scrambled
    }
}
