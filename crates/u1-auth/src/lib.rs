//! The Canonical authentication service (§3.4.1) and the per-API-server
//! token cache.
//!
//! The real service was OAuth-based and shared with other Canonical
//! services: on first contact a client exchanges credentials for a token;
//! later connections present the token, the API server asks the auth
//! service to resolve it to a user id, and caches the token for the session
//! "to avoid overloading the authentication service". The paper measures
//! that 2.76% of authentication requests from API servers failed (§7.3).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use u1_core::partition::{origin_seed, OriginBank};
use u1_core::sync::RwLock;
use u1_core::{CoreError, CoreResult, FxHashMap, SimDuration, SimTime, UserId};

/// An OAuth-style bearer token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub [u8; 16]);

impl Token {
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    pub fn from_bytes(raw: &[u8]) -> Option<Token> {
        let arr: [u8; 16] = raw.try_into().ok()?;
        Some(Token(arr))
    }
}

/// Configuration of the auth service model.
#[derive(Debug, Clone)]
pub struct AuthConfig {
    /// Fraction of validation requests that fail transiently — the paper
    /// observed 2.76% (§7.3). Failed requests are retried by clients.
    pub transient_failure_rate: f64,
    /// Token lifetime; `None` disables expiry (U1 tokens "usually do not
    /// expire automatically").
    pub token_ttl: Option<SimDuration>,
}

impl Default for AuthConfig {
    fn default() -> Self {
        Self {
            transient_failure_rate: u1_core::paper::AUTH_FAILURE_RATE.value,
            token_ttl: None,
        }
    }
}

/// Counters mirroring Fig. 15's request series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuthStats {
    pub issued: u64,
    pub validations: u64,
    pub transient_failures: u64,
    pub rejections: u64,
}

struct TokenEntry {
    user: UserId,
    issued_at: SimTime,
}

/// The authentication service: issues and validates tokens.
pub struct AuthService {
    config: AuthConfig,
    tokens: RwLock<FxHashMap<Token, TokenEntry>>,
    by_user: RwLock<FxHashMap<UserId, Token>>,
    seed: u64,
    /// Token bytes and transient-failure rolls come from a stream owned by
    /// the calling driver partition: with one shared stream the
    /// interleaving of concurrent partitions would decide which request
    /// eats which roll, and results would depend on worker count.
    rngs: OriginBank<SmallRng>,
    issued: AtomicU64,
    validations: AtomicU64,
    transient_failures: AtomicU64,
    rejections: AtomicU64,
}

impl AuthService {
    pub fn new(config: AuthConfig, seed: u64) -> Self {
        Self {
            config,
            tokens: RwLock::default(),
            by_user: RwLock::default(),
            seed,
            rngs: OriginBank::default(),
            issued: AtomicU64::new(0),
            validations: AtomicU64::new(0),
            transient_failures: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }

    fn with_rng<R>(&self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        self.rngs.with(
            |origin| SmallRng::seed_from_u64(origin_seed(self.seed, "auth-origin", origin)),
            f,
        )
    }

    /// First-contact flow: exchanges (already verified) credentials for a
    /// token bound to a user id. Re-registering returns the existing token,
    /// as the desktop client stores it locally after the first login.
    pub fn register(&self, user: UserId, now: SimTime) -> Token {
        if let Some(tok) = self.by_user.read().get(&user) {
            return *tok;
        }
        let mut raw = [0u8; 16];
        self.with_rng(|rng| rng.fill(&mut raw));
        let token = Token(raw);
        self.issued.fetch_add(1, Ordering::Relaxed);
        self.tokens.write().insert(
            token,
            TokenEntry {
                user,
                issued_at: now,
            },
        );
        self.by_user.write().insert(user, token);
        token
    }

    /// `auth.get_user_id_from_token`: resolves a token, possibly failing
    /// transiently (the modeled 2.76%). Transient failures are retriable;
    /// rejections (unknown/expired token) are not.
    pub fn get_user_id_from_token(&self, token: Token, now: SimTime) -> CoreResult<UserId> {
        self.validations.fetch_add(1, Ordering::Relaxed);
        if self.config.transient_failure_rate > 0.0 {
            let roll: f64 = self.with_rng(|rng| rng.gen_range(0.0..1.0));
            if roll < self.config.transient_failure_rate {
                self.transient_failures.fetch_add(1, Ordering::Relaxed);
                return Err(CoreError::unavailable("auth service timeout"));
            }
        }
        let tokens = self.tokens.read();
        let Some(entry) = tokens.get(&token) else {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::permission_denied("unknown token"));
        };
        if let Some(ttl) = self.config.token_ttl {
            if now.since(entry.issued_at) > ttl {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(CoreError::permission_denied("expired token"));
            }
        }
        Ok(entry.user)
    }

    /// Revokes a user's token (the manual DDoS countermeasure of §5.4:
    /// engineers "deleted fraudulent users"). Returns the revoked token so
    /// callers can invalidate downstream caches — the API tier's
    /// memcached-style token cache must drop the entry too, or the banned
    /// user would keep authenticating until the cache TTL ran out.
    pub fn revoke_user(&self, user: UserId) -> Option<Token> {
        let token = self.by_user.write().remove(&user)?;
        self.tokens.write().remove(&token);
        Some(token)
    }

    pub fn stats(&self) -> AuthStats {
        AuthStats {
            issued: self.issued.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
            transient_failures: self.transient_failures.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(rate: f64) -> AuthService {
        AuthService::new(
            AuthConfig {
                transient_failure_rate: rate,
                token_ttl: None,
            },
            7,
        )
    }

    #[test]
    fn register_is_idempotent_and_tokens_resolve() {
        let s = svc(0.0);
        let u = UserId::new(5);
        let t1 = s.register(u, SimTime::ZERO);
        let t2 = s.register(u, SimTime::from_secs(10));
        assert_eq!(t1, t2);
        assert_eq!(s.get_user_id_from_token(t1, SimTime::ZERO).unwrap(), u);
        assert_eq!(s.stats().issued, 1);
    }

    #[test]
    fn unknown_token_is_rejected() {
        let s = svc(0.0);
        let bogus = Token([9u8; 16]);
        assert!(matches!(
            s.get_user_id_from_token(bogus, SimTime::ZERO),
            Err(CoreError::PermissionDenied(_))
        ));
        assert_eq!(s.stats().rejections, 1);
    }

    #[test]
    fn transient_failure_rate_is_respected() {
        let s = svc(0.25);
        let t = s.register(UserId::new(1), SimTime::ZERO);
        let mut failures = 0;
        for _ in 0..4000 {
            if matches!(
                s.get_user_id_from_token(t, SimTime::ZERO),
                Err(CoreError::Unavailable(_))
            ) {
                failures += 1;
            }
        }
        let rate = failures as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
        assert_eq!(s.stats().transient_failures, failures);
    }

    #[test]
    fn ttl_expires_tokens() {
        let s = AuthService::new(
            AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: Some(SimDuration::from_hours(1)),
            },
            1,
        );
        let t = s.register(UserId::new(1), SimTime::ZERO);
        assert!(s
            .get_user_id_from_token(t, SimTime::from_secs(30 * 60))
            .is_ok());
        assert!(s.get_user_id_from_token(t, SimTime::from_hours(2)).is_err());
    }

    #[test]
    fn revocation_cuts_access() {
        let s = svc(0.0);
        let u = UserId::new(3);
        let t = s.register(u, SimTime::ZERO);
        assert_eq!(s.revoke_user(u), Some(t));
        assert_eq!(s.revoke_user(u), None);
        assert!(s.get_user_id_from_token(t, SimTime::ZERO).is_err());
    }

    #[test]
    fn distinct_users_get_distinct_tokens() {
        let s = svc(0.0);
        let t1 = s.register(UserId::new(1), SimTime::ZERO);
        let t2 = s.register(UserId::new(2), SimTime::ZERO);
        assert_ne!(t1, t2);
    }

    #[test]
    fn token_bytes_round_trip() {
        let t = Token([3u8; 16]);
        assert_eq!(Token::from_bytes(t.as_bytes()), Some(t));
        assert_eq!(Token::from_bytes(&[1, 2, 3]), None);
    }
}
