//! Copy-on-write rows, submit → settle → caller: the committed target,
//! the route's snapshot and the next session's target are one row set
//! per unchanged table, and nothing a caller does to the target it was
//! handed reaches the snapshot the next delta session diffs against.

mod common;

use common::oracle::lands_like_pm;
use xdx_relational::{Rows, Value};
use xdx_runtime::{ExchangeRequest, Runtime, RuntimeConfig, SessionResult, SessionState};
use xdx_xmark::{churn, generate, lf, load_source, mf, schema, GenConfig};

fn ship(runtime: &Runtime, name: &str, doc: &str, base_version: Option<u64>) -> SessionResult {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    let source = load_source(doc, &schema, &mf).unwrap();
    let mut request = ExchangeRequest::new(name, source, mf, lf);
    if let Some(version) = base_version {
        request = request.with_base_version(version);
    }
    let result = runtime.submit(request).unwrap().wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    result
}

fn start() -> Runtime {
    Runtime::start(schema(), RuntimeConfig::default().with_workers(2))
}

#[test]
fn reshipped_targets_converge_on_one_row_set_and_land_the_oracle() {
    let (schema, doc) = (schema(), generate(GenConfig::sized(12_000)));
    let runtime = start();
    let first = ship(&runtime, "first", &doc, None).target.unwrap();
    let second = ship(&runtime, "second", &doc, None).target.unwrap();
    assert!(first.total_rows() > 0);
    for name in first.table_names() {
        let (a, b) = (first.table(name).unwrap(), second.table(name).unwrap());
        assert!(
            Rows::ptr_eq(&a.data.rows, &b.data.rows),
            "{name}: the re-shipped target holds rows of its own"
        );
        // The second target took over rows it did not index; equal rows
        // at equal positions keep its indexes true.
        assert_eq!(a.indexes.len(), b.indexes.len(), "{name}");
        assert!(!b.indexes.is_empty(), "{name}");
    }
    lands_like_pm(&schema, &lf(&schema), &first, &doc);
    lands_like_pm(&schema, &lf(&schema), &second, &doc);
}

#[test]
fn a_caller_rewriting_its_target_leaves_the_route_snapshot_intact() {
    let (schema, doc) = (schema(), generate(GenConfig::sized(12_000)));
    let churned = churn(&doc, 5, 7);
    assert_ne!(doc, churned);
    // Two fleets ship the same rounds; only one of them has a caller that
    // tramples the target it was handed before the delta round.
    let patch_bytes = |trample: bool| {
        let runtime = start();
        let mut seeded = ship(&runtime, "seed", &doc, None).target.unwrap();
        if trample {
            let names: Vec<String> = seeded.table_names().iter().map(|n| n.to_string()).collect();
            for name in names {
                let (table, _) = seeded.table_mut(&name).unwrap();
                let rows = &mut table.data.rows;
                rows.sort_by(|a, b| b.cmp(a));
                rows.get_mut(0)
                    .unwrap()
                    .iter_mut()
                    .for_each(|cell| *cell = Value::Str("trampled".into()));
                let appended = rows.slice(..1).to_rows();
                rows.absorb(appended);
            }
        }
        let delta = ship(&runtime, "delta", &churned, Some(1));
        assert_eq!(delta.metrics.delta_patches_applied, 1, "trample {trample}");
        assert_eq!(delta.metrics.delta_full_fallbacks, 0, "trample {trample}");
        assert_eq!(delta.metrics.delta_full_chosen, 0, "trample {trample}");
        lands_like_pm(&schema, &lf(&schema), &delta.target.unwrap(), &churned);
        drop(seeded);
        delta.metrics.delta_patch_bytes
    };
    let control = patch_bytes(false);
    assert!(control > 0);
    assert_eq!(
        patch_bytes(true),
        control,
        "the patch was diffed against a trampled base"
    );
}
