//! Table 4: the first-of-three race — for hypergraphs with hw ≤ k
//! (k ∈ {3..6}), run all three GHD algorithms on `Check(GHD,k−1)` and
//! take the first definitive answer. The paper ran them in parallel;
//! [`race_ghd_opts`] runs them as a time-sliced portfolio on one thread,
//! so the reported times are each race's total on that thread.

use std::time::Duration;

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_decomp::driver::race_ghd_opts;

use crate::experiments::table3::group_hw;
use crate::experiments::ExperimentReport;
use crate::report::{fmt_avg, Table};
use crate::{parallel_map, AnalyzedBenchmark};

/// Regenerates Table 4.
pub fn run(bench: &AnalyzedBenchmark) -> ExperimentReport {
    let timeout = bench.config.ghd_timeout;
    // Each race runs on the thread that calls it: one race per pool thread.
    let threads = bench.config.worker_count();
    let cfg = SubedgeConfig::default();

    let mut t = Table::new(&["hw -> ghw", "yes", "avg(yes)", "no", "avg(no)", "timeout"]);
    let mut decided = 0usize;
    let mut identical = 0usize; // no-answers: ghw = hw certified

    for k in 3..=6usize {
        let group = group_hw(bench, k);
        if group.is_empty() {
            continue;
        }
        let opts = hyperbench_decomp::Options::with_jobs(bench.config.jobs);
        let results = parallel_map(&group, threads, |a| {
            let r = race_ghd_opts(&a.instance.hypergraph, k - 1, timeout, &cfg, &opts);
            (r.outcome.label(), r.elapsed)
        });
        let mut yes = 0usize;
        let mut yes_t = Duration::ZERO;
        let mut no = 0usize;
        let mut no_t = Duration::ZERO;
        let mut to = 0usize;
        for (label, elapsed) in results {
            match label {
                "yes" => {
                    yes += 1;
                    yes_t += elapsed;
                }
                "no" => {
                    no += 1;
                    no_t += elapsed;
                }
                _ => to += 1,
            }
        }
        decided += yes + no;
        identical += no;
        t.row(&[
            format!("{k} -> {}", k - 1),
            yes.to_string(),
            fmt_avg(yes_t, yes),
            no.to_string(),
            fmt_avg(no_t, no),
            to.to_string(),
        ]);
    }

    let body = if t.is_empty() {
        "No instances with hw in 3..=6 at this scale; increase --scale.\n".to_string()
    } else {
        t.render()
    };

    ExperimentReport {
        id: "table4",
        title: "GHW of instances (first-of-three race)".to_string(),
        body,
        checkpoints: vec![(
            "hw = ghw among solved cases".into(),
            "97% (in the vast majority no improvement is possible)".into(),
            crate::report::pct(identical, decided),
        )],
    }
}
