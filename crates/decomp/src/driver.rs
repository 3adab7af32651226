//! Width-search drivers: `Check(HD,k)` / `Check(GHD,k)` wrappers with
//! uniform outcomes, the iterative hw search of §6.2 (Figure 4) and the
//! "first of GlobalBIP, LocalBIP and BalSep to terminate" race of §6.4
//! (Table 4). The paper runs the three in parallel; [`race_ghd_opts`]
//! runs them as a portfolio on the caller's thread, in time slices that
//! double each round, so a race costs one thread whatever the answer.

use std::time::{Duration, Instant};

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::Hypergraph;

use crate::balsep::{decompose_balsep_opts, decompose_hybrid_opts, BalsepConfig};
use crate::budget::Budget;
use crate::detk::{decompose_hd_opts, SearchResult};
use crate::globalbip::decompose_globalbip_opts;
use crate::localbip::decompose_localbip_opts;
use crate::parallel::Options;
use crate::tree::Decomposition;

/// Outcome of a `Check(decomposition, k)` run.
#[derive(Debug)]
pub enum Outcome {
    /// A decomposition of width ≤ k (the "yes" certificate).
    Yes(Decomposition),
    /// Certified: no decomposition of width ≤ k exists.
    No,
    /// The search was stopped (deadline, cancellation, or a truncated
    /// subedge enumeration that prevents certification).
    Timeout,
}

impl Outcome {
    /// Whether this is a definitive answer (yes or no).
    pub fn is_decided(&self) -> bool {
        !matches!(self, Outcome::Timeout)
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Yes(_) => "yes",
            Outcome::No => "no",
            Outcome::Timeout => "timeout",
        }
    }
}

impl From<SearchResult> for Outcome {
    fn from(r: SearchResult) -> Outcome {
        match r {
            SearchResult::Found(d) => Outcome::Yes(d),
            SearchResult::NotFound => Outcome::No,
            SearchResult::Stopped => {
                crate::metrics::metrics().cancellations.inc();
                Outcome::Timeout
            }
            SearchResult::NotFoundUncertified => Outcome::Timeout,
        }
    }
}

/// Solves `Check(HD,k)`.
///
/// `k = 1` is answered by the linear-time GYO reduction (α-acyclicity is
/// equivalent to hw = 1), which is how the paper's Figure-4 pipeline can
/// classify thousands of instances "in 0 seconds"; larger `k` runs the
/// backtracking search.
pub fn check_hd(h: &Hypergraph, k: usize, budget: &Budget) -> Outcome {
    check_hd_opts(h, k, budget, &Options::serial())
}

/// [`check_hd`] with an explicit engine configuration: `opts.jobs > 1`
/// runs the backtracking search on the work-stealing pool. Same width,
/// same yes/no — parallelism only changes how fast the answer arrives
/// (and possibly which witness tree is returned).
pub fn check_hd_opts(h: &Hypergraph, k: usize, budget: &Budget, opts: &Options) -> Outcome {
    if k == 1 && h.num_edges() > 0 {
        return match hyperbench_core::gyo::join_tree(h) {
            Some(jt) => Outcome::Yes(join_tree_to_decomposition(h, &jt)),
            None => Outcome::No,
        };
    }
    decompose_hd_opts(h, k, budget, opts).into()
}

/// Converts a GYO join tree (edge, parent) list into a width-1
/// decomposition: one node per edge, bag = the edge.
fn join_tree_to_decomposition(
    h: &Hypergraph,
    jt: &[(hyperbench_core::EdgeId, Option<hyperbench_core::EdgeId>)],
) -> Decomposition {
    use crate::tree::CoverAtom;
    if jt.is_empty() {
        return Decomposition::new(hyperbench_core::BitSet::new(), Vec::new());
    }
    let root_edge = jt
        .iter()
        .find(|(_, p)| p.is_none())
        .expect("join tree has a root")
        .0;
    let mut d = Decomposition::new(
        h.edge_set(root_edge).clone(),
        vec![CoverAtom::Edge(root_edge)],
    );
    // node id per edge, built top-down.
    let mut node_of: Vec<Option<crate::tree::NodeId>> = vec![None; jt.len()];
    node_of[root_edge as usize] = Some(d.root());
    let mut placed = 1;
    while placed < jt.len() {
        let mut progressed = false;
        for &(e, p) in jt {
            if node_of[e as usize].is_some() {
                continue;
            }
            let Some(p) = p else { continue };
            if let Some(pn) = node_of[p as usize] {
                let id = d.add_child(pn, h.edge_set(e).clone(), vec![CoverAtom::Edge(e)]);
                node_of[e as usize] = Some(id);
                placed += 1;
                progressed = true;
            }
        }
        assert!(progressed, "join tree contains a parent cycle");
    }
    d
}

/// The three GHD algorithms of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GhdAlgorithm {
    /// Algorithm 1 (§4.2): materialize `f(H,k)` globally.
    GlobalBip,
    /// §4.3: subedges computed per node.
    LocalBip,
    /// Algorithm 2 (§4.4): balanced separators.
    BalSep,
}

impl GhdAlgorithm {
    /// All three, in the paper's presentation order.
    pub const ALL: [GhdAlgorithm; 3] = [
        GhdAlgorithm::GlobalBip,
        GhdAlgorithm::LocalBip,
        GhdAlgorithm::BalSep,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            GhdAlgorithm::GlobalBip => "GlobalBIP",
            GhdAlgorithm::LocalBip => "LocalBIP",
            GhdAlgorithm::BalSep => "BalSep",
        }
    }
}

/// Solves `Check(GHD,k)` with the selected algorithm.
pub fn check_ghd(
    h: &Hypergraph,
    k: usize,
    algo: GhdAlgorithm,
    budget: &Budget,
    cfg: &SubedgeConfig,
) -> Outcome {
    check_ghd_opts(h, k, algo, budget, cfg, &Options::serial())
}

/// [`check_ghd`] with an explicit engine configuration (worker count).
pub fn check_ghd_opts(
    h: &Hypergraph,
    k: usize,
    algo: GhdAlgorithm,
    budget: &Budget,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> Outcome {
    search_ghd(h, k, algo, budget, cfg, opts).into()
}

/// [`check_ghd_opts`] before the fold into an [`Outcome`], which maps
/// both an expired budget (`Stopped`) and a truncated subedge
/// enumeration (`NotFoundUncertified`) to `Timeout`. The portfolio needs
/// the difference: only the first is worth another slice.
fn search_ghd(
    h: &Hypergraph,
    k: usize,
    algo: GhdAlgorithm,
    budget: &Budget,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> SearchResult {
    match algo {
        GhdAlgorithm::GlobalBip => decompose_globalbip_opts(h, k, budget, cfg, opts),
        GhdAlgorithm::LocalBip => decompose_localbip_opts(h, k, budget, cfg, opts),
        GhdAlgorithm::BalSep => decompose_balsep_opts(h, k, budget, &balsep_config(cfg), opts),
    }
}

/// The default BalSep configuration over the subedge settings `cfg`.
fn balsep_config(cfg: &SubedgeConfig) -> BalsepConfig {
    BalsepConfig {
        subedge_cfg: *cfg,
        ..BalsepConfig::default()
    }
}

/// Solves `Check(GHD,k)` with the hybrid strategy (§7 future work): the
/// balanced-separator recursion splits the hypergraph down to
/// `switch_depth`, then the detk engine decomposes the small components.
pub fn check_ghd_hybrid(
    h: &Hypergraph,
    k: usize,
    switch_depth: usize,
    budget: &Budget,
    cfg: &SubedgeConfig,
) -> Outcome {
    check_ghd_hybrid_opts(h, k, switch_depth, budget, cfg, &Options::serial())
}

/// [`check_ghd_hybrid`] with an explicit engine configuration.
pub fn check_ghd_hybrid_opts(
    h: &Hypergraph,
    k: usize,
    switch_depth: usize,
    budget: &Budget,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> Outcome {
    decompose_hybrid_opts(h, k, budget, &balsep_config(cfg), switch_depth, opts).into()
}

/// Result of the first-of-three race (§6.4, Table 4).
#[derive(Debug)]
pub struct RaceResult {
    /// The first definitive outcome (or `Timeout` if none).
    pub outcome: Outcome,
    /// Which algorithm produced it (`None` on timeout).
    pub winner: Option<GhdAlgorithm>,
    /// Wall-clock time of the race. The race runs on one thread, so
    /// this is the time of all contestants' slices together, not of the
    /// winner alone as in the paper's parallel race.
    pub elapsed: Duration,
}

/// The order in which the portfolio runs its contestants each round. A
/// width search asks `Check(GHD,k)` for `k = 2, 3, …`, and every `k`
/// below the answer is a "no"; BalSep is the paper's fast no-prover
/// (§6.4), so it goes first. GlobalBIP and LocalBIP follow in the
/// paper's order.
const PORTFOLIO: [GhdAlgorithm; 3] = [
    GhdAlgorithm::BalSep,
    GhdAlgorithm::GlobalBip,
    GhdAlgorithm::LocalBip,
];

/// The portfolio's first time slice. BalSep proves most "no"s of small
/// instances well within a millisecond, so the first round often ends the
/// race. Each round doubles the slice, which bounds the waste of
/// restarting from scratch: the slices a contestant loses before the one
/// it finishes in add up to less than twice the time it needs.
const FIRST_SLICE: Duration = Duration::from_millis(1);

/// Runs the three GHD algorithms on `Check(GHD,k)` as a portfolio; the
/// first definitive answer wins. The paper's §6.4 setup runs them in
/// parallel and "stop[s] the computation as soon as one terminates";
/// see [`race_ghd_opts`] for how this one shares a single thread.
pub fn race_ghd(h: &Hypergraph, k: usize, timeout: Duration, cfg: &SubedgeConfig) -> RaceResult {
    race_ghd_opts(h, k, timeout, cfg, &Options::serial())
}

/// [`race_ghd`] with an explicit engine configuration.
///
/// The race runs on the caller's thread and spawns none of its own. In
/// each round every remaining contestant (BalSep, GlobalBIP, LocalBIP, in
/// that order) searches from scratch for one time slice: 1 ms in the
/// first round, doubling each round, and never past `timeout`. The first
/// `yes` or certified `no` wins. A contestant whose slice runs out is run
/// again next round; one whose subedge enumeration was truncated (an
/// uncertified "no") leaves the race, and when none is left the race
/// ends in `Timeout` at once. Since one contestant runs at a time, each
/// gets the whole `opts.jobs` worker budget.
pub fn race_ghd_opts(
    h: &Hypergraph,
    k: usize,
    timeout: Duration,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> RaceResult {
    let start = Instant::now();
    let deadline = start + timeout;
    let mut contestants = PORTFOLIO.to_vec();
    let mut slice = FIRST_SLICE;
    let (winner, result) = 'race: loop {
        let mut i = 0;
        while i < contestants.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break 'race (None, SearchResult::Stopped);
            }
            let algo = contestants[i];
            let budget = Budget::with_timeout(slice.min(left));
            match search_ghd(h, k, algo, &budget, cfg, opts) {
                SearchResult::Stopped => i += 1,
                SearchResult::NotFoundUncertified => {
                    contestants.remove(i);
                }
                decided => break 'race (Some(algo), decided),
            }
        }
        if contestants.is_empty() {
            break (None, SearchResult::NotFoundUncertified);
        }
        slice = slice.saturating_mul(2);
    };
    RaceResult {
        // One conversion per race, so a race that runs out of time counts
        // one cancellation however many slices expired.
        outcome: result.into(),
        winner,
        elapsed: start.elapsed(),
    }
}

/// Per-`k` record of an iterative width search (one bar of Figure 4).
#[derive(Debug)]
pub struct KStep {
    /// The `k` that was checked.
    pub k: usize,
    /// The outcome of `Check(HD,k)`.
    pub outcome: Outcome,
    /// Time spent on this check.
    pub elapsed: Duration,
}

/// Result of the iterative hw computation.
#[derive(Debug)]
pub struct HwResult {
    /// One entry per `k` tried, in increasing order.
    pub steps: Vec<KStep>,
    /// Smallest `k` with a yes-answer, if any.
    pub upper: Option<usize>,
    /// Largest `k` with a certified no-answer plus one, i.e. a lower bound
    /// on hw (1 when nothing was certified).
    pub lower: usize,
}

impl HwResult {
    /// The exact hypertree width, when the search pinned it down
    /// (upper bound met by certified no at `upper - 1`).
    pub fn exact(&self) -> Option<usize> {
        match self.upper {
            Some(u) if self.lower == u => Some(u),
            _ => None,
        }
    }
}

/// Iteratively solves `Check(HD,k)` for `k = 1, 2, …` (the procedure behind
/// Figure 4): stops at the first yes-answer or at `k_max`. Each check gets
/// its own timeout. A timeout at some `k` does not stop the progression —
/// like the paper, the search continues with larger `k` (hw may still be
/// bounded from above even when a smaller `k` timed out).
pub fn hypertree_width(h: &Hypergraph, k_max: usize, per_check: Duration) -> HwResult {
    hypertree_width_opts(h, k_max, per_check, &Options::serial())
}

/// [`hypertree_width`] with an explicit engine configuration: every
/// `Check(HD,k)` step runs on `opts.jobs` workers. The reported bounds
/// are identical to a serial run (the per-`k` yes/no answers are
/// determined by the instance, not the schedule).
pub fn hypertree_width_opts(
    h: &Hypergraph,
    k_max: usize,
    per_check: Duration,
    opts: &Options,
) -> HwResult {
    width_search(k_max, |k| {
        check_hd_opts(h, k, &Budget::with_timeout(per_check), opts)
    })
}

/// The shared iterative width search: runs `check(k)` for `k = 1, 2, …`,
/// tracking the certified lower bound (1 + the longest contiguous no-
/// prefix) and stopping at the first yes-answer or at `k_max`.
fn width_search(k_max: usize, mut check: impl FnMut(usize) -> Outcome) -> HwResult {
    let mut steps = Vec::new();
    let mut lower = 1usize;
    let mut upper = None;
    let mut contiguous_no = true;
    for k in 1..=k_max {
        let start = Instant::now();
        let outcome = check(k);
        let elapsed = start.elapsed();
        let done = matches!(outcome, Outcome::Yes(_));
        if contiguous_no {
            match outcome {
                Outcome::No => lower = k + 1,
                _ => contiguous_no = false,
            }
        }
        steps.push(KStep {
            k,
            outcome,
            elapsed,
        });
        if done {
            upper = Some(k);
            crate::metrics::metrics().width_found.observe(k as u64);
            break;
        }
    }
    HwResult {
        steps,
        upper,
        lower,
    }
}

/// Iteratively solves `Check(GHD,k)` for `k = 1, 2, …` — the ghw
/// analogue of [`hypertree_width`], backing the server's `method=ghd`
/// analyses. `k = 1` takes the linear-time GYO fast path (ghw = 1 iff
/// hw = 1 iff α-acyclic); larger `k` runs the §6.4 first-of-three race
/// ([`race_ghd_opts`]), a one-thread portfolio of BalSep, GlobalBIP and
/// LocalBIP, so the fastest of them answers each check.
pub fn generalized_hypertree_width(
    h: &Hypergraph,
    k_max: usize,
    per_check: Duration,
    cfg: &SubedgeConfig,
) -> HwResult {
    generalized_hypertree_width_opts(h, k_max, per_check, cfg, &Options::serial())
}

/// [`generalized_hypertree_width`] with an explicit engine
/// configuration: each per-`k` race runs one contestant at a time on the
/// caller's thread, and that contestant gets all `opts.jobs` workers (see
/// [`race_ghd_opts`]).
pub fn generalized_hypertree_width_opts(
    h: &Hypergraph,
    k_max: usize,
    per_check: Duration,
    cfg: &SubedgeConfig,
    opts: &Options,
) -> HwResult {
    width_search(k_max, |k| {
        if k == 1 {
            check_hd(h, 1, &Budget::with_timeout(per_check))
        } else {
            race_ghd_opts(h, k, per_check, cfg, opts).outcome
        }
    })
}

/// Attempts to close an hw gap with a GHD no-answer (§6.4's final
/// observation): when the analysis established `hw ≤ u` but timed out on
/// `Check(HD, u−1)`, a *certified* `Check(GHD, u−1) = no` implies
/// `ghw > u−1`, hence `hw > u−1`, pinning `hw = u` exactly. The paper
/// closed 297 of 827 open gaps this way.
///
/// Returns the new exact hw if the gap closed.
pub fn close_hw_gap_with_ghw(
    h: &Hypergraph,
    hw_upper: usize,
    hw_lower: usize,
    budget: &Budget,
    cfg: &SubedgeConfig,
) -> Option<usize> {
    if hw_lower >= hw_upper || hw_upper == 0 {
        return None; // no gap
    }
    // BalSep is the paper's weapon of choice for fast no-answers.
    match check_ghd(h, hw_upper - 1, GhdAlgorithm::BalSep, budget, cfg) {
        Outcome::No => Some(hw_upper),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn triangle() -> Hypergraph {
        hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])])
    }

    #[test]
    fn hw_of_triangle_is_two() {
        let r = hypertree_width(&triangle(), 5, Duration::from_secs(10));
        assert_eq!(r.upper, Some(2));
        assert_eq!(r.lower, 2);
        assert_eq!(r.exact(), Some(2));
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.steps[0].outcome.label(), "no");
        assert_eq!(r.steps[1].outcome.label(), "yes");
    }

    #[test]
    fn hw_of_acyclic_is_one() {
        let h = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let r = hypertree_width(&h, 3, Duration::from_secs(10));
        assert_eq!(r.exact(), Some(1));
    }

    #[test]
    fn kmax_respected() {
        let r = hypertree_width(&triangle(), 1, Duration::from_secs(10));
        assert_eq!(r.upper, None);
        assert_eq!(r.lower, 2);
        assert_eq!(r.exact(), None);
    }

    #[test]
    fn all_ghd_algorithms_agree_on_triangle() {
        let h = triangle();
        let cfg = SubedgeConfig::default();
        for algo in GhdAlgorithm::ALL {
            let no = check_ghd(&h, 1, algo, &Budget::unlimited(), &cfg);
            assert_eq!(no.label(), "no", "{}", algo.name());
            let yes = check_ghd(&h, 2, algo, &Budget::unlimited(), &cfg);
            assert_eq!(yes.label(), "yes", "{}", algo.name());
        }
    }

    #[test]
    fn race_returns_definitive_answer() {
        let h = triangle();
        let r = race_ghd(&h, 2, Duration::from_secs(20), &SubedgeConfig::default());
        assert_eq!(r.outcome.label(), "yes");
        assert!(r.winner.is_some());
    }

    #[test]
    fn race_no_answer() {
        let h = triangle();
        let r = race_ghd(&h, 1, Duration::from_secs(20), &SubedgeConfig::default());
        assert_eq!(r.outcome.label(), "no");
    }

    /// The complete graph on `n` vertices, one binary edge per pair.
    fn clique(n: usize) -> Hypergraph {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(&format!("e{i}_{j}"), &[format!("v{i}"), format!("v{j}")]);
            }
        }
        b.build()
    }

    /// The `rows × cols` grid graph.
    fn grid(rows: usize, cols: usize) -> Hypergraph {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        let v = |i: usize, j: usize| format!("v{i}_{j}");
        for i in 0..rows {
            for j in 0..cols {
                if j + 1 < cols {
                    b.add_edge(&format!("h{i}_{j}"), &[v(i, j), v(i, j + 1)]);
                }
                if i + 1 < rows {
                    b.add_edge(&format!("v{i}_{j}"), &[v(i, j), v(i + 1, j)]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn portfolio_agrees_with_every_certified_standalone_answer() {
        let cfg = SubedgeConfig::default();
        let cycle5 = hypergraph_from_edges(&[
            ("e0", &["a", "b"]),
            ("e1", &["b", "c"]),
            ("e2", &["c", "d"]),
            ("e3", &["d", "e"]),
            ("e4", &["e", "a"]),
        ]);
        // (instance, the k to check): ghw is 2 for the cycle and the
        // 3×3 grid, 3 for K5, K6 and the 4×4 grid, and 4 for K8.
        let cases = [
            ("triangle", triangle(), 1..=3),
            ("cycle5", cycle5, 1..=3),
            ("K5", clique(5), 1..=3),
            ("K6", clique(6), 1..=3),
            ("K8", clique(8), 4..=4),
            ("grid3x3", grid(3, 3), 1..=3),
            ("grid4x4", grid(4, 4), 1..=3),
        ];
        let (mut yes, mut no) = (0, 0);
        for (name, h, ks) in &cases {
            for k in ks.clone() {
                let standalone: Vec<&str> = GhdAlgorithm::ALL
                    .iter()
                    .map(|&algo| {
                        check_ghd(
                            h,
                            k,
                            algo,
                            &Budget::with_timeout(Duration::from_secs(5)),
                            &cfg,
                        )
                        .label()
                    })
                    .filter(|&label| label != "timeout")
                    .collect();
                let Some(&want) = standalone.first() else {
                    continue;
                };
                assert!(
                    standalone.iter().all(|&l| l == want),
                    "{name} k={k}: {standalone:?}"
                );
                let r = race_ghd(h, k, Duration::from_secs(20), &cfg);
                assert_eq!(r.outcome.label(), want, "{name} k={k}");
                assert!(
                    r.winner.is_some(),
                    "{name} k={k}: a decided race has a winner"
                );
                match r.outcome {
                    Outcome::Yes(d) => {
                        crate::validate::validate_ghd_with_width(h, &d, k).unwrap();
                        yes += 1;
                    }
                    _ => no += 1,
                }
            }
        }
        assert_eq!((yes, no), (10, 9), "decided checks (yes, no)");
    }

    #[test]
    fn portfolio_gives_up_at_once_when_every_contestant_hits_the_subedge_cap() {
        // Check(GHD,2) on K5 is a "no" that every contestant needs
        // subedges to certify; a cap of one subedge truncates them all.
        let capped = SubedgeConfig {
            max_total: 1,
            ..SubedgeConfig::default()
        };
        for algo in GhdAlgorithm::ALL {
            let out = check_ghd(&clique(5), 2, algo, &Budget::unlimited(), &capped);
            assert_eq!(out.label(), "timeout", "{}", algo.name());
        }
        let deadline = Duration::from_secs(10);
        let r = race_ghd(&clique(5), 2, deadline, &capped);
        assert_eq!(r.outcome.label(), "timeout");
        assert_eq!(r.winner, None);
        assert!(r.elapsed < deadline / 10, "took {:?}", r.elapsed);
    }

    #[test]
    fn undecidable_portfolio_times_out_at_its_deadline() {
        // ghw(K12) = 6; no contestant settles k = 4 in 50 ms.
        let deadline = Duration::from_millis(50);
        let r = race_ghd(&clique(12), 4, deadline, &SubedgeConfig::default());
        assert_eq!(r.outcome.label(), "timeout");
        assert_eq!(r.winner, None);
        assert!(r.elapsed >= deadline, "stopped early: {:?}", r.elapsed);
        assert!(
            r.elapsed < deadline + Duration::from_millis(100),
            "overran its deadline: {:?}",
            r.elapsed
        );
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(Outcome::No.label(), "no");
        assert_eq!(Outcome::Timeout.label(), "timeout");
        assert!(!Outcome::Timeout.is_decided());
    }

    #[test]
    fn gyo_fast_path_produces_valid_width1_hds() {
        use crate::validate::validate_hd;
        // Connected star, a branching tree, and a disconnected forest.
        let cases = [
            hypergraph_from_edges(&[
                ("e0", &["c", "x"]),
                ("e1", &["c", "y"]),
                ("e2", &["c", "z"]),
            ]),
            hypergraph_from_edges(&[
                ("e0", &["a", "b"]),
                ("e1", &["b", "c"]),
                ("e2", &["b", "d"]),
                ("e3", &["d", "e"]),
            ]),
            hypergraph_from_edges(&[("e0", &["a", "b"]), ("e1", &["x", "y"])]),
        ];
        for h in &cases {
            match check_hd(h, 1, &Budget::unlimited()) {
                Outcome::Yes(d) => {
                    validate_hd(h, &d).unwrap();
                    assert_eq!(d.width(), 1);
                    assert_eq!(d.len(), h.num_edges());
                }
                other => panic!("expected width-1 HD, got {other:?}"),
            }
        }
    }

    #[test]
    fn ghw_search_matches_known_widths() {
        let cfg = SubedgeConfig::default();
        let r = generalized_hypertree_width(&triangle(), 4, Duration::from_secs(20), &cfg);
        assert_eq!(r.exact(), Some(2));
        // The k = 2 step carries the witness decomposition.
        match &r.steps.last().unwrap().outcome {
            Outcome::Yes(d) => {
                crate::validate::validate_ghd(&triangle(), d).unwrap();
                assert!(d.width() <= 2);
            }
            other => panic!("expected a GHD witness, got {other:?}"),
        }
        let acyclic = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        let r = generalized_hypertree_width(&acyclic, 3, Duration::from_secs(20), &cfg);
        assert_eq!(r.exact(), Some(1));
    }

    #[test]
    fn gap_closing_on_triangle() {
        // Pretend the analysis only knows hw ∈ [1, 2] for the triangle;
        // the certified GHD no-answer at k=1 closes the gap to hw = 2.
        let h = triangle();
        let closed =
            close_hw_gap_with_ghw(&h, 2, 1, &Budget::unlimited(), &SubedgeConfig::default());
        assert_eq!(closed, Some(2));
        // No gap → no work.
        assert_eq!(
            close_hw_gap_with_ghw(&h, 2, 2, &Budget::unlimited(), &SubedgeConfig::default()),
            None
        );
    }

    #[test]
    fn gap_closing_respects_yes_answers() {
        // For an acyclic hypergraph wrongly reported as hw ∈ [1,2], the
        // GHD check at k=1 answers *yes*, so the gap must NOT close to 2.
        let h = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        assert_eq!(
            close_hw_gap_with_ghw(&h, 2, 1, &Budget::unlimited(), &SubedgeConfig::default()),
            None
        );
    }

    #[test]
    fn gyo_fast_path_agrees_with_search_on_cyclic() {
        let h = triangle();
        assert_eq!(check_hd(&h, 1, &Budget::unlimited()).label(), "no");
        // The backtracking search agrees.
        assert!(matches!(
            crate::detk::decompose_hd(&h, 1, &Budget::unlimited()),
            crate::detk::SearchResult::NotFound
        ));
    }
}
