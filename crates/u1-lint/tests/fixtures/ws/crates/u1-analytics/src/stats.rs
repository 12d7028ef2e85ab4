//! Fixture: seeded U1L005 violation (line 4; line 12 suppressed by ID); epsilon comparison is exempt.

fn gini_is_zero(g: f64) -> bool {
    g == 0.0
}

fn nearly(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

fn is_unset(g: f64) -> bool {
    g == 1.0 // u1-lint: allow(U1L005) — fixture: sentinel is stored exactly, never computed
}
