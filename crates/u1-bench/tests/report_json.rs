//! The reports' JSON is written straight from the data, not from a value
//! tree: on the quick month, `to_string` / `to_string_pretty` of the
//! `EngineReport` and the `DriverReport` must be the text of their
//! `to_value` trees, byte for byte.

use serde::Serialize;
use u1_bench::{analyze, run_scenario};
use u1_workload::WorkloadConfig;

/// Compares without `assert_eq!`: the texts run to megabytes, so a failure
/// names the first differing byte and its surroundings instead.
fn assert_same_text(streamed: &str, tree: &str, what: &str) {
    if streamed == tree {
        return;
    }
    let at = streamed
        .bytes()
        .zip(tree.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(streamed.len().min(tree.len()));
    let around = |s: &str| {
        s.get(at.saturating_sub(60)..(at + 60).min(s.len()))
            .map(str::to_owned)
    };
    panic!(
        "{what}: streamed text ({} B) differs from the tree's ({} B) at byte {at}:\n\
         streamed …{:?}…\n\
         tree     …{:?}…",
        streamed.len(),
        tree.len(),
        around(streamed),
        around(tree)
    );
}

fn assert_streams_its_tree<T: Serialize>(value: &T, what: &str) {
    let tree = serde_json::to_value(value);
    assert_same_text(
        &serde_json::to_string(value).expect("streamed"),
        &serde_json::to_string(&tree).expect("tree"),
        what,
    );
    assert_same_text(
        &serde_json::to_string_pretty(value).expect("streamed"),
        &serde_json::to_string_pretty(&tree).expect("tree"),
        &format!("{what} (pretty)"),
    );
}

#[test]
fn quick_month_reports_stream_the_text_of_their_trees() {
    let scn = run_scenario(WorkloadConfig::quick());
    assert_streams_its_tree(&analyze(&scn), "EngineReport");
    assert_streams_its_tree(&scn.report, "DriverReport");
}
