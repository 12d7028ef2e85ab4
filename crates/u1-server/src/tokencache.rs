//! The API tier's token cache — the paper's memcached analogue (§3.2,
//! §3.4.1: "during the session, the token of that client is cached to avoid
//! overloading the authentication service"; the architecture diagram puts a
//! memcached tier between the API processes and the auth service).
//!
//! Sharded by token bytes so concurrent API processes resolving different
//! tokens never contend on one lock, TTL-aware (memcached entries expire),
//! with hit/miss counters surfaced in the workload driver's report.

use std::sync::atomic::{AtomicU64, Ordering};
use u1_auth::Token;
use u1_core::sync::Mutex;
use u1_core::{FxHashMap, SimDuration, SimTime, UserId};

const SHARDS: usize = 16;

/// Hit/miss counters of a [`TokenCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// A sharded, TTL-aware token → user cache.
pub struct TokenCache {
    ttl: SimDuration,
    shards: Vec<Mutex<FxHashMap<Token, (UserId, SimTime)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TokenCache {
    pub fn new(ttl: SimDuration) -> Self {
        Self {
            ttl,
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Tokens are uniformly random 16-byte strings, so any fixed 8 bytes
    /// spread evenly over the shards.
    fn shard_of(&self, token: &Token) -> usize {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&token.0[..8]);
        (u64::from_le_bytes(raw) % self.shards.len() as u64) as usize
    }

    /// Looks up a token, counting hit/miss. Expired entries are evicted
    /// lazily, on the lookup that finds them stale.
    pub fn lookup(&self, token: Token, now: SimTime) -> Option<UserId> {
        let mut shard = self.shards[self.shard_of(&token)].lock();
        match shard.get(&token) {
            Some((user, cached_at)) if now.since(*cached_at) <= self.ttl => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(*user)
            }
            Some(_) => {
                shard.remove(&token);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Degraded-mode lookup for auth-service outages: returns whatever the
    /// cache still holds for the token, *ignoring the TTL* and without
    /// evicting or touching the hit/miss counters. The real system's
    /// memcached tier kept serving stale entries while the SSO service was
    /// down; sessions opened this way are counted as `auth_fallbacks` by
    /// the backend.
    pub fn lookup_stale(&self, token: Token) -> Option<UserId> {
        self.shards[self.shard_of(&token)]
            .lock()
            .get(&token)
            .map(|(user, _)| *user)
    }

    pub fn insert(&self, token: Token, user: UserId, now: SimTime) {
        self.shards[self.shard_of(&token)]
            .lock()
            .insert(token, (user, now));
    }

    /// Drops a token (auth-side revocation must propagate here, or a banned
    /// user could keep opening sessions until the TTL runs out).
    pub fn invalidate(&self, token: Token) -> bool {
        self.shards[self.shard_of(&token)]
            .lock()
            .remove(&token)
            .is_some()
    }

    pub fn stats(&self) -> TokenCacheStats {
        TokenCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_within_ttl_only() {
        let c = TokenCache::new(SimDuration::from_hours(8));
        let t = Token([1u8; 16]);
        assert_eq!(c.lookup(t, SimTime::ZERO), None);
        c.insert(t, UserId::new(2), SimTime::ZERO);
        assert_eq!(c.lookup(t, SimTime::from_hours(1)), Some(UserId::new(2)));
        assert_eq!(c.lookup(t, SimTime::from_hours(9)), None); // expired + evicted
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn stale_lookup_serves_expired_entries_without_counting() {
        let c = TokenCache::new(SimDuration::from_hours(1));
        let t = Token([3u8; 16]);
        assert_eq!(c.lookup_stale(t), None);
        c.insert(t, UserId::new(5), SimTime::ZERO);
        // Way past the TTL: the fresh path would evict, the stale path
        // serves.
        assert_eq!(c.lookup_stale(t), Some(UserId::new(5)));
        assert_eq!(c.stats(), TokenCacheStats::default());
        assert_eq!(c.len(), 1, "stale lookup must not evict");
    }

    #[test]
    fn invalidate_cuts_access_immediately() {
        let c = TokenCache::new(SimDuration::from_hours(8));
        let t = Token([7u8; 16]);
        c.insert(t, UserId::new(9), SimTime::ZERO);
        assert!(c.invalidate(t));
        assert!(!c.invalidate(t));
        assert_eq!(c.lookup(t, SimTime::ZERO), None);
    }

    #[test]
    fn tokens_spread_over_shards() {
        let c = TokenCache::new(SimDuration::from_hours(1));
        for i in 0..64u8 {
            let mut raw = [0u8; 16];
            raw[0] = i;
            c.insert(Token(raw), UserId::new(i as u64), SimTime::ZERO);
        }
        assert_eq!(c.len(), 64);
        let populated = c.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(populated > 1, "all 64 tokens landed in one shard");
    }
}
