//! # hyperbench-decomp
//!
//! Hypergraph decomposition algorithms for the HyperBench reproduction:
//!
//! * [`detk`]: `NewDetKDecomp`, the backtracking hypertree-decomposition
//!   algorithm solving `Check(HD,k)` (§3.4 of the paper, after Gottlob &
//!   Samer 2008),
//! * [`globalbip`]: the GlobalBIP GHD algorithm (Algorithm 1, §4.2),
//! * [`localbip`]: the LocalBIP GHD algorithm (§4.3),
//! * [`balsep`]: the BalSep GHD algorithm via balanced separators
//!   (Algorithm 2, §4.4),
//! * [`improve`]: `ImproveHD` and `FracImproveHD`, the fractionally
//!   improved decompositions (§6.5),
//! * [`driver`]: width searches, per-`k` outcome tracking and the
//!   "take the first of the three GHD algorithms to finish" race of §6.4,
//!   run as a time-sliced portfolio on one thread,
//! * [`tree`] and [`validate`]: decomposition trees and machine checking of
//!   all decomposition conditions (tree-decomposition conditions 1–2, the
//!   GHD cover condition 3 and the HD special condition 4).
//!
//! ```
//! use hyperbench_core::builder::hypergraph_from_edges;
//! use hyperbench_decomp::driver::{check_hd, Outcome};
//! use hyperbench_decomp::budget::Budget;
//!
//! let triangle =
//!     hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
//! assert!(matches!(check_hd(&triangle, 1, &Budget::unlimited()), Outcome::No));
//! match check_hd(&triangle, 2, &Budget::unlimited()) {
//!     Outcome::Yes(d) => assert!(d.width() <= 2),
//!     other => panic!("expected an HD, got {other:?}"),
//! }
//! ```

pub mod balsep;
pub mod budget;
pub mod detk;
pub mod driver;
pub mod globalbip;
pub mod improve;
pub mod localbip;
pub mod metrics;
pub mod parallel;
pub mod tree;
pub mod validate;

pub use budget::Budget;
pub use driver::Outcome;
pub use parallel::Options;
pub use tree::{CoverAtom, Decomposition, NodeId};
