//! Exact scan counters. The query metrics are process-global, so this
//! check lives alone in its own test binary: nothing else scans while
//! it reads the deltas.

use hyperbench_core::builder::hypergraph_from_edges;
use hyperbench_query::{legacy, metrics, resolve};
use hyperbench_repo::store::pack::write_pack;
use hyperbench_repo::Repository;

fn counter(name: &str) -> u64 {
    hyperbench_telemetry::global()
        .snapshot()
        .counter(name)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

#[test]
fn a_list_page_scans_each_live_row_once_and_hydrates_none() {
    let mut memory = Repository::new();
    for i in 0..40 {
        let collection = if i % 3 == 0 { "TPC-H" } else { "SPARQL" };
        let h = hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"])]);
        memory.insert(h, collection, "CQ Application");
    }
    for id in [0, 7, 8, 39] {
        memory.remove(id).expect("present");
    }
    let dir = std::env::temp_dir().join(format!("hyperbench-scan-counters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("repo.pack");
    write_pack(&memory, &path).expect("write pack");
    let paged = Repository::open_pack(&path).expect("open pack");
    let _ = std::fs::remove_dir_all(&dir);

    // The plan `GET /v1/hypergraphs?collection=TPC-H&limit=5` runs.
    let query = legacy::desugar_params([("collection", "TPC-H")]).expect("valid params");
    let plan = resolve(&query).expect("resolves");
    metrics::metrics();
    for repo in [&memory, &paged] {
        let live = repo.len() as u64;
        assert_eq!(live, 36);
        let scanned = counter("hyperbench_query_rows_scanned_total");
        let hydrated = counter("hyperbench_query_rows_hydrated_total");
        let page = plan.execute_rows(repo.metas(), None, 5);
        assert_eq!(page.items.len(), 5);
        assert!(page.next_after.is_some(), "more matches than one page");
        assert_eq!(
            counter("hyperbench_query_rows_scanned_total") - scanned,
            live,
            "paged: {}",
            repo.is_paged()
        );
        assert_eq!(counter("hyperbench_query_rows_hydrated_total"), hydrated);
    }
}
