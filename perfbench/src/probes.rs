//! Direct calls into single layers, timed by the benchmark itself.
//!
//! Each probe calls a layer's public API on the same kind of input the
//! served requests carry, on handles of its own, in the benchmark's
//! process (so the calls never show in the host's `/metrics` or
//! allocation counts), after the traced phase.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use hyperbench_core::subedges::SubedgeConfig;
use hyperbench_core::Hypergraph;
use hyperbench_decomp::driver::{generalized_hypertree_width_opts, hypertree_width_opts};
use hyperbench_decomp::{Decomposition, Options, Outcome};
use hyperbench_repo::store::mvcc::{MvccOptions, MvccStore};
use hyperbench_repo::{EntryMeta, Repository};
use hyperbench_server::http::RequestParser;

use crate::deploy::{connect, exchange};
use crate::mixes::{renamed, Browse, Instance, Rng, METHODS};
use crate::stats::{mean, median};
use crate::wire::ResponseReader;

/// Mean ns per `RequestParser::advance` over by-id read requests.
pub fn http_parse_ns(ids: &[usize]) -> f64 {
    let requests: Vec<Vec<u8>> = ids.iter().map(|&id| Browse::read_request(id)).collect();
    let rounds = 20;
    let t = Instant::now();
    for _ in 0..rounds {
        for r in &requests {
            let mut parser = RequestParser::new();
            let _ = black_box(parser.advance(black_box(r)));
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * requests.len()).max(1) as f64
}

/// Mean µs of `Repository::try_get` on a fresh pack handle: first touch
/// (cold) and repeat (warm) of the same ids.
pub fn repo_get_us(pack: &Path, ids: &[usize]) -> Result<(f64, f64), String> {
    let repo = Repository::open_pack(pack).map_err(|e| e.to_string())?;
    let timed = |ids: &[usize]| -> Result<f64, String> {
        let mut total = Duration::ZERO;
        for &id in ids {
            let t = Instant::now();
            let got = repo.try_get(id).map_err(|e| e.to_string())?;
            total += t.elapsed();
            black_box(got);
        }
        Ok(total.as_secs_f64() * 1e6 / ids.len().max(1) as f64)
    };
    let cold = timed(ids)?;
    let warm = timed(ids)?;
    Ok((cold, warm))
}

/// Mean µs to compile and to execute each query over `metas`.
pub fn query_us(queries: &[&str], metas: &[EntryMeta<'_>]) -> (f64, f64) {
    let rounds = 10;
    let (mut compile, mut execute) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..rounds {
        for q in queries {
            let t = Instant::now();
            let plan = hyperbench_query::compile(q).expect("benchmark query compiles");
            compile += t.elapsed();
            let t = Instant::now();
            if plan.is_aggregate() {
                black_box(plan.execute_groups(metas.iter().cloned()));
            } else {
                let limit = plan.limit().unwrap_or(50) as usize;
                black_box(plan.execute_rows(metas.iter().cloned(), None, limit));
            }
            execute += t.elapsed();
        }
    }
    let n = (rounds * queries.len()).max(1) as f64;
    (
        compile.as_secs_f64() * 1e6 / n,
        execute.as_secs_f64() * 1e6 / n,
    )
}

/// Mean µs per `MvccStore` create on a scratch store with its own WAL
/// (fsync per commit, the server's only flush policy).
pub fn mvcc_commit_us(dir: &Path, shapes: &[Hypergraph]) -> Result<f64, String> {
    let wal = dir.join("probe.wal");
    let _ = std::fs::remove_file(&wal);
    let store = MvccStore::open(Repository::new(), MvccOptions::new(wal.clone(), None))
        .map_err(|e| e.to_string())?;
    let mut total = Duration::ZERO;
    let n = 100;
    for i in 0..n {
        let h = renamed(&shapes[i % shapes.len()], &format!("_probe{i}"));
        let t = Instant::now();
        store
            .insert(h, "perfbench", "CQ Random")
            .map_err(|e| e.to_string())?;
        total += t.elapsed();
    }
    drop(store);
    let _ = std::fs::remove_file(&wal);
    Ok(total.as_secs_f64() * 1e6 / n as f64)
}

/// The widths a direct search finds for one instance and method, with how long the
/// serial search took and its witness.
pub fn drive(
    h: &Hypergraph,
    method: usize,
    max_width: usize,
    per_check: Duration,
) -> ((Option<usize>, usize), Duration, Option<Decomposition>) {
    let opts = Options::serial();
    let t = Instant::now();
    let hw = match METHODS[method] {
        hyperbench_api::AnalyzeMethod::Ghd => generalized_hypertree_width_opts(
            h,
            max_width,
            per_check,
            &SubedgeConfig::default(),
            &opts,
        ),
        _ => hypertree_width_opts(h, max_width, per_check, &opts),
    };
    let took = t.elapsed();
    let witness = hw.steps.into_iter().find_map(|s| match s.outcome {
        Outcome::Yes(d) => Some(d),
        _ => None,
    });
    ((hw.upper, hw.lower), took, witness)
}

/// Mean µs of the fractional-cover improvement of each instance's hd
/// witness.
pub fn lp_cover_us(instances: &[Instance], witnesses: &[Decomposition]) -> f64 {
    let mut total = Duration::ZERO;
    for (inst, d) in instances.iter().zip(witnesses) {
        let t = Instant::now();
        let _ = black_box(hyperbench_decomp::improve::improve_hd(&inst.hypergraph, d));
        total += t.elapsed();
    }
    total.as_secs_f64() * 1e6 / witnesses.len().max(1) as f64
}

/// Median routed minus median direct latency (µs) of the same by-id
/// reads, interleaved: through the router by global id, and straight to
/// the owning shard's primary by local id.
pub fn router_overhead_us(
    router: SocketAddr,
    primaries: &[SocketAddr],
    gids: &[usize],
    seed: u64,
) -> std::io::Result<f64> {
    let n = primaries.len();
    let mut routed = connect(router)?;
    let mut direct: Vec<_> = primaries
        .iter()
        .map(|&a| connect(a))
        .collect::<Result<_, _>>()?;
    let mut routed_reader = ResponseReader::new();
    let mut direct_readers: Vec<ResponseReader> = (0..n).map(|_| ResponseReader::new()).collect();
    let mut rng = Rng::new(seed);
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..400 {
        let gid = gids[rng.below(gids.len())];
        let shard = gid % n;
        let t = Instant::now();
        exchange(&mut routed, &mut routed_reader, &Browse::read_request(gid))?;
        via.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        exchange(
            &mut direct[shard],
            &mut direct_readers[shard],
            &Browse::read_request(gid / n),
        )?;
        straight.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&via) - median(&straight))
}

/// Mean of the decomposition search times, in ms.
pub fn mean_ms(times: &[Duration]) -> f64 {
    mean(
        &times
            .iter()
            .map(|t| t.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}

/// `n` ids drawn uniformly from `ids` with `seed`.
pub fn sample_ids(ids: &[usize], n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| ids[rng.below(ids.len())]).collect()
}
