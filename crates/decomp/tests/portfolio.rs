//! Process-level behaviour of the one-thread GHD portfolio
//! (`driver::race_ghd_opts`): it spawns no thread of its own, and the
//! `hyperbench_decomp_cancellations_total` counter moves once per race
//! that runs out of time, however many of its time slices expired.
//!
//! Both read process-wide state (the thread count and the global metric
//! registry), so they share this binary's only test.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::{Hypergraph, HypergraphBuilder};
use hyperbench_decomp::driver::race_ghd_opts;
use hyperbench_decomp::metrics::metrics;
use hyperbench_decomp::Options;

/// The complete graph on `n` vertices, one binary edge per pair.
fn clique(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(&format!("e{i}_{j}"), &[format!("v{i}"), format!("v{j}")]);
        }
    }
    b.build()
}

/// Current thread count of this process (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

#[test]
fn portfolio_stays_on_its_thread_and_counts_one_cancellation_per_timeout() {
    let cfg = SubedgeConfig::default();
    let serial = Options::with_jobs(1);
    let cancellations = || metrics().cancellations.get();
    // ghw(K12) = 6 (every GHD of the complete graph has a bag holding
    // all 12 vertices), and no contestant settles k = 4 in 60 ms.
    let undecidable = clique(12);

    // No thread beyond the caller's: a sampler watches the count while
    // a race that runs to its deadline executes.
    if let Some(before) = thread_count() {
        let done = AtomicBool::new(false);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    peak.fetch_max(thread_count().unwrap_or(0), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            race_ghd_opts(&undecidable, 4, Duration::from_millis(100), &cfg, &serial);
            done.store(true, Ordering::Relaxed);
        });
        // `before` plus the sampler itself.
        let peak = peak.load(Ordering::Relaxed);
        assert!(
            peak <= before + 1,
            "race spawned threads: {before} before, peak {peak} with the sampler"
        );
    }

    // A race stopped by its deadline after a dozen expired slices counts
    // one cancellation.
    let c0 = cancellations();
    let r = race_ghd_opts(&undecidable, 4, Duration::from_millis(60), &cfg, &serial);
    assert_eq!(r.outcome.label(), "timeout");
    assert_eq!(
        cancellations() - c0,
        1,
        "one cancellation per timed-out race"
    );

    // A race decided after earlier slices expired (BalSep needs a few
    // milliseconds for this "no" on a laptop-class core) counts none.
    let c1 = cancellations();
    let r = race_ghd_opts(&undecidable, 2, Duration::from_secs(30), &cfg, &serial);
    assert_eq!(r.outcome.label(), "no");
    assert_eq!(cancellations(), c1, "expired slices are not cancellations");

    // A race whose contestants all hit the subedge cap ends in `Timeout`
    // without a budget stop, so it counts none either.
    let capped = SubedgeConfig {
        max_total: 1,
        ..SubedgeConfig::default()
    };
    let r = race_ghd_opts(&clique(5), 2, Duration::from_secs(30), &capped, &serial);
    assert_eq!(r.outcome.label(), "timeout");
    assert_eq!(cancellations(), c1);
}
