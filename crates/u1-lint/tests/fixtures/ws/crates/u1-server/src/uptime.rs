//! Seeded U1L008 entropy fixture: wall clock outside the allow-list (line 4; line 9 suppressed by slug).

pub fn uptime_ms(epoch: u64) -> u64 {
    let t = SystemTime::now().as_millis_since(epoch);
    t
}

pub fn log_stamp(epoch: u64) -> u64 {
    SystemTime::now().as_millis_since(epoch) // u1-lint: allow(nondet-flow) — fixture: log line, not a simulation input
}
