//! Rule registry. Every rule sees the whole workspace (the call-graph
//! rules need that); single-file rules just iterate. Suppression filtering
//! happens centrally in the engine, not in the rules.

pub mod float_eq;
pub mod guard_blocking;
pub mod lock_order;
pub mod nondet_flow;

use crate::diag::Finding;
use crate::model::SourceFile;

pub trait Rule {
    fn id(&self) -> &'static str;
    fn slug(&self) -> &'static str;
    fn check(&self, files: &[SourceFile]) -> Vec<Finding>;
}

/// All rules, in ID order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_eq::FloatEq),
        Box::new(lock_order::LockOrder),
        Box::new(guard_blocking::GuardBlocking),
        Box::new(nondet_flow::NondetFlow),
    ]
}

/// Shared constructor so every rule fills a finding the same way.
pub(crate) fn finding(
    rule: &'static str,
    slug: &'static str,
    file: &SourceFile,
    line: usize,
    col: usize,
    message: String,
) -> Finding {
    Finding {
        rule,
        slug,
        path: file.rel_path.clone(),
        line,
        col,
        message,
        line_text: file.line_text(line).to_string(),
    }
}
