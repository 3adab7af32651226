//! perfbench — open-loop load benchmark for the hyperbench `/v1` server
//! and router.
//!
//! ```text
//! perfbench --workload browse|ingest|analyze|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! One run starts a host process that sets the workload's servers up
//! over a seeded datagen corpus (timing the set-up; see [`host`]),
//! drives them from two generator threads in this process, checks every
//! answer after each phase, and prints one JSON line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer ones.
//!
//! Untraced, a run spends 25% of `--seconds` open-loop at the
//! workload's `nominal` rate and the rest closed-loop at saturation,
//! where `goodput_rps` is measured. Traced, it spends 65% at nominal with
//! tracing off (per-class latency percentiles) and the rest at nominal
//! with tracing on (allocation counting in the host and periodic
//! `/metrics` scrapes), then times direct calls into single layers.

mod alloc;
mod deploy;
mod fixture;
mod host;
mod loadgen;
mod mixes;
mod probes;
mod scrape;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_core::Hypergraph;
use hyperbench_repo::store::mvcc::{MvccOptions, MvccStore};

use host::{open_pack, Host};
use loadgen::{Class, Mix, Phase, Reply, Req, Sample};
use mixes::{Analyze, Browse, CheckReport, Checked, Corpus, Ingest, Instance};
use scrape::Delta;
use stats::{mean, median, percentile};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Generator threads: at most the 2 cores the rates were sized on.
const THREADS: usize = 2;
/// Share of `--seconds` an untraced run spends at the nominal rate; the
/// rest runs closed-loop at saturation.
const NOMINAL_SHARE: f64 = 0.25;
/// Closed-loop rounds an untraced run's saturation time is split into.
const SATURATION_ROUNDS: usize = 3;
/// Share of `--seconds` a traced run spends at the nominal rate with
/// tracing off; the rest runs at nominal with tracing on.
const TRACED_NOMINAL_SHARE: f64 = 0.65;
/// Period of the gauge scrapes during the traced phase.
const SCRAPE_EVERY: Duration = Duration::from_millis(250);

/// One workload's settings, sized when the benchmark was introduced and
/// fixed since, so that runs of different commits compare.
struct Spec {
    name: &'static str,
    why: &'static str,
    /// Offered rate at `nominal`, requests per second.
    nominal: f64,
    /// Requests each generator thread keeps outstanding at saturation:
    /// enough to keep the servers busy, few enough that an answer rarely
    /// waits past its class limit behind the others.
    window: usize,
    /// Keep-alive connections per generator thread.
    conns: usize,
    /// The classes in the mix.
    classes: &'static [Class],
    /// The class whose traced and untraced medians give the tracing
    /// overhead.
    primary: Class,
}

const fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// Latency limit per class, in [`Class::ALL`] order: read, cold read,
/// list, query, write, analysis. A refused or failed request misses it.
const LIMITS: [Duration; 6] = [ms(10), ms(10), ms(100), ms(100), ms(50), ms(1000)];

const SPECS: [Spec; 4] = [
    Spec {
        name: "browse",
        why: "read-only scale-10 pack (36,480 entries) larger than the hydration cache: cold and hot reads, list pages and HBQL load reactor, http, api, repo.pack and query",
        nominal: 120.0,
        window: 2,
        conns: 4,
        classes: &[Class::Read, Class::ColdRead, Class::List, Class::Query],
        primary: Class::Read,
    },
    Spec {
        name: "ingest",
        why: "fsynced creates, replaces and deletes beside reads of fresh writes and pinned list walks on a writable scale-1 pack: WAL, MVCC commit and checkpoints do the work",
        nominal: 100.0,
        window: 4,
        conns: 4,
        classes: &[Class::Read, Class::List, Class::Write],
        primary: Class::Write,
    },
    Spec {
        name: "analyze",
        why: "hd/ghd/fhd analyses of hw 2-4 instances, 70% fresh (renamed) content and 30% repeats: jobs, cache, decomp and lp do the work while pack and query idle",
        nominal: 25.0,
        window: 2,
        conns: 2,
        classes: &[Class::Analysis],
        primary: Class::Analysis,
    },
    Spec {
        name: "routed",
        why: "the browse mix without cold reads through the router over 2 scale-1 shards, shard 0 with a read replica: router hops, hedging and scatter-gather",
        nominal: 100.0,
        window: 2,
        conns: 4,
        classes: &[Class::Read, Class::List, Class::Query],
        primary: Class::Read,
    },
];

/// The end-to-end metrics, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("goodput_rps", "1/s"),
];

/// The per-layer metrics, with units. Layers a workload leaves idle
/// report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.tracing_overhead_pct", "%"),
    ("class.read_p50_us", "us"),
    ("class.read_p99_us", "us"),
    ("class.cold_read_p50_us", "us"),
    ("class.cold_read_p99_us", "us"),
    ("class.list_p50_us", "us"),
    ("class.list_p99_us", "us"),
    ("class.query_p50_us", "us"),
    ("class.query_p99_us", "us"),
    ("class.write_p50_us", "us"),
    ("class.write_p99_us", "us"),
    ("class.analysis_p50_us", "us"),
    ("class.analysis_p99_us", "us"),
    ("api.decode_us", "us"),
    ("api.response_bytes", "bytes"),
    ("server.http.parse_us", "us"),
    ("server.http.handle_us", "us"),
    ("server.http.serialize_us", "us"),
    ("server.http.parse_direct_ns", "ns"),
    ("server.reactor.wakeups_per_req", "ratio"),
    ("server.reactor.write_bytes_per_req", "bytes"),
    ("server.reactor.shed", "count"),
    ("server.jobs.queue_wait_us", "us"),
    ("server.jobs.decompose_us", "us"),
    ("server.jobs.shed", "count"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.evictions", "count"),
    ("repo.pack.hydrations_per_read", "ratio"),
    ("repo.pack.checksum_reads_per_read", "ratio"),
    ("repo.get_cold_us", "us"),
    ("repo.get_warm_us", "us"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.execute_us", "us"),
    ("query.compile_direct_us", "us"),
    ("query.execute_direct_us", "us"),
    ("query.rows_scanned_per_returned", "ratio"),
    ("query.rows_hydrated", "count"),
    ("repo.wal.fsyncs_per_write", "ratio"),
    ("repo.wal.bytes_per_user_byte", "ratio"),
    ("repo.wal.checkpoint_us", "us"),
    ("repo.wal.checkpoints", "count"),
    ("repo.mvcc.commit_direct_us", "us"),
    ("repo.mvcc.snapshots_active_max", "count"),
    ("repo.mvcc.cursor_unpinned", "count"),
    ("decomp.check_direct_ms", "ms"),
    ("decomp.separators_tried_per_analysis", "ratio"),
    ("decomp.memo_hits_per_analysis", "ratio"),
    ("decomp.steals", "count"),
    ("decomp.cancellations", "count"),
    ("lp.cover_direct_us", "us"),
    ("router.overhead_us", "us"),
    ("router.fanout_mean", "count"),
    ("router.hedges_per_read", "ratio"),
    ("router.hedge_win_ratio", "ratio"),
    ("router.failovers", "count"),
    ("router.bad_upstream", "count"),
    ("alloc.per_read", "count"),
    ("alloc.per_cold_read", "count"),
    ("alloc.per_list", "count"),
    ("alloc.per_query", "count"),
    ("alloc.per_write", "count"),
    ("alloc.per_analysis", "count"),
    ("alloc.total_traced", "count"),
];

/// Gauges among the scraped series (deltas keep their level).
const GAUGES: [&str; 1] = ["hyperbench_mvcc_snapshots_active"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        let take = |name: &str| {
            flags
                .get(name)
                .cloned()
                .ok_or_else(|| format!("--{name} is required"))
        };
        let args = Args {
            workload: take("workload")?,
            seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: take("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
        };
        if args.seconds.is_nan() || args.seconds < 1.0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(args)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let role = match argv.first().map(String::as_str) {
        Some("--make-fixture") => Some(fixture::make as fn(&[String]) -> Result<(), String>),
        Some("--host") => Some(host::serve as fn(&[String]) -> Result<(), String>),
        _ => None,
    };
    if let Some(role) = role {
        if let Err(e) = role(&argv[1..]) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = Args::parse(&argv).and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let limits: Vec<String> = Class::ALL
        .iter()
        .zip(LIMITS)
        .map(|(c, l)| format!("{}={}ms", c.name(), l.as_millis()))
        .collect();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc} threads={THREADS} \
         nominal={}/s saturation window={}/thread limits[{}] why: {}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        spec.nominal,
        spec.window,
        limits.join(" "),
        spec.why
    );
    let mut run = Run::new(spec, args);
    match spec.name {
        "browse" => browse(&mut run, false)?,
        "routed" => browse(&mut run, true)?,
        "ingest" => ingest(&mut run)?,
        "analyze" => analyze(&mut run)?,
        _ => unreachable!("specs are matched above"),
    }
    Ok(run.finish())
}

/// What one phase measured.
struct PhaseOut {
    /// When the phase stopped starting requests.
    end: Instant,
    samples: Vec<Sample>,
    lag_us: Vec<f64>,
    gauge_max: BTreeMap<String, f64>,
}

fn latencies_us(samples: &[Sample], class: Option<Class>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| s.latency.as_secs_f64() * 1e6)
        .collect()
}

/// How a phase offers its load.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop at this many requests per second.
    Rate(f64),
    /// Closed loop with this many requests outstanding per thread.
    Window(usize),
}

/// Drives `mixes` for `seconds`. Their answers are kept for [`check`].
fn phase<M: Checked>(
    addr: std::net::SocketAddr,
    load: Load,
    seconds: f64,
    conns: usize,
    mixes: Vec<M>,
    scrape_every: Option<Duration>,
) -> Result<(Vec<M>, PhaseOut), String> {
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let (rate, window) = match load {
        Load::Rate(r) => (r, None),
        Load::Window(w) => (0.0, Some(w)),
    };
    let out = loadgen::run_phase(
        Phase {
            addr,
            rate,
            window,
            start,
            end,
            conns,
            scrape_every,
        },
        mixes,
    )
    .map_err(|e| format!("load generation failed: {e}"))?;
    let mut merged = PhaseOut {
        end,
        samples: Vec::new(),
        lag_us: Vec::new(),
        gauge_max: BTreeMap::new(),
    };
    let mut mixes = Vec::new();
    for (mix, result) in out {
        merged.samples.extend(result.samples);
        merged.lag_us.extend(result.lag_us);
        for s in &result.scrapes {
            for g in GAUGES {
                if let Some(&v) = s.scalars.get(g) {
                    let e = merged.gauge_max.entry(g.to_string()).or_insert(v);
                    *e = e.max(v);
                }
            }
        }
        mixes.push(mix);
    }
    Ok((mixes, merged))
}

/// Checks every answer the mixes kept; returns what the checks found.
fn check<M: Checked>(mixes: &mut [M]) -> CheckReport {
    let mut report = CheckReport::default();
    for mix in mixes {
        mix.check(&mut report);
    }
    report
}

/// Restricts a mix to one class, for the per-class allocation counts.
struct Only<M> {
    inner: M,
    class: Class,
}

impl<M: Mix> Mix for Only<M> {
    type Tag = M::Tag;

    fn next(&mut self) -> Req<M::Tag> {
        loop {
            let req = self.inner.next();
            if req.class == self.class {
                return req;
            }
            // Settle anything the discarded request reserved.
            let _ = self.inner.on_response(req.tag, 0, Vec::new());
        }
    }

    fn on_response(&mut self, tag: M::Tag, status: u16, body: Vec<u8>) -> Reply<M::Tag> {
        self.inner.on_response(tag, status, body)
    }
}

impl<M: Checked> Checked for Only<M> {
    fn check(&mut self, report: &mut CheckReport) {
        self.inner.check(report);
    }
}

/// One run's bookkeeping: counts, checks and the metrics it prints.
struct Run<'a> {
    spec: &'a Spec,
    args: &'a Args,
    samples: u64,
    refused: u64,
    report: CheckReport,
    metrics: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl<'a> Run<'a> {
    fn new(spec: &'a Spec, args: &'a Args) -> Run<'a> {
        Run {
            spec,
            args,
            samples: 0,
            refused: 0,
            report: CheckReport::default(),
            metrics: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn count(&mut self, out: &PhaseOut) {
        self.samples += out.samples.len() as u64;
        self.refused += out.samples.iter().filter(|s| !s.ok).count() as u64;
    }

    /// Drives the load phases against `host`, checks their answers and
    /// records the metrics they yield; returns the mixes for
    /// per-workload follow-ups.
    fn load<M: Checked>(
        &mut self,
        host: &mut Host,
        mixes: Vec<M>,
    ) -> Result<(Vec<M>, Option<TracedPhase>), String> {
        let addr = host.addr;
        let nominal = Load::Rate(self.spec.nominal);
        let conns = self.spec.conns;
        if !self.args.trace {
            let first = self.args.seconds * NOMINAL_SHARE;
            let second = self.args.seconds - first;
            let (mut mixes, calm) = phase(addr, nominal, first, conns, mixes, None)?;
            // Peak memory serving the nominal load: a fixed amount of
            // work, unlike the saturation phase, whose volume follows
            // the server's speed.
            self.set("peak_rss_mb", host.peak_rss_mb()?);
            self.report.merge(check(&mut mixes));
            self.count(&calm);
            eprintln!(
                "perfbench: nominal {} samples, lag p99 {:.0} us",
                calm.samples.len(),
                percentile(&calm.lag_us, 0.99)
            );
            // Saturation runs in rounds, each on fresh connections, and
            // the median round is the goodput, so that one round the
            // machine disturbs moves it less than it would move a mean.
            let saturate = Load::Window(self.spec.window);
            let round = second / SATURATION_ROUNDS as f64;
            let mut rates = Vec::new();
            for _ in 0..SATURATION_ROUNDS {
                let (mut done, busy) = phase(addr, saturate, round, conns, mixes, None)?;
                let report = check(&mut done);
                self.count(&busy);
                // Correct answers within their class limit that arrived
                // before the round ended, per second.
                let good = busy
                    .samples
                    .iter()
                    .filter(|s| {
                        s.ok && s.at < busy.end
                            && s.latency <= LIMITS[s.class as usize]
                            && !s.ticket.is_some_and(|t| report.failed.contains(&t))
                    })
                    .count();
                rates.push(good as f64 / round);
                eprintln!(
                    "perfbench: saturation round: {} samples, {good} good",
                    busy.samples.len()
                );
                self.report.merge(report);
                mixes = done;
            }
            self.set("goodput_rps", median(&rates));
            return Ok((mixes, None));
        }
        let first = self.args.seconds * TRACED_NOMINAL_SHARE;
        let second = self.args.seconds - first;
        let (mut mixes, calm) = phase(addr, nominal, first, conns, mixes, None)?;
        self.count(&calm);
        self.report.merge(check(&mut mixes));
        for class in Class::ALL {
            let lat = latencies_us(&calm.samples, Some(class));
            self.set(class_metric(class, "p50"), percentile(&lat, 0.5));
            self.set(class_metric(class, "p99"), percentile(&lat, 0.99));
        }
        let base = deploy::scrape(addr).map_err(|e| format!("scrape: {e}"))?;
        let allocs = host.allocations(true)?;
        let traced = phase(addr, nominal, second, conns, mixes, Some(SCRAPE_EVERY));
        let counted = host.allocations(false)?;
        let (mut mixes, traced) = traced?;
        self.set("alloc.total_traced", (counted - allocs) as f64);
        let end = deploy::scrape(addr).map_err(|e| format!("scrape: {e}"))?;
        let traced_report = check(&mut mixes);
        self.count(&traced);
        let primary = Some(self.spec.primary);
        let untraced_p50 = percentile(&latencies_us(&calm.samples, primary), 0.5);
        let traced_p50 = percentile(&latencies_us(&traced.samples, primary), 0.5);
        self.set(
            "loadgen.tracing_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(1e-9),
        );
        self.set("loadgen.lag_p99_us", percentile(&traced.lag_us, 0.99));
        self.set("api.decode_us", mean(&traced_report.decode_ns) / 1e3);
        self.set("api.response_bytes", mean(&traced_report.body_bytes));
        let phase = TracedPhase {
            delta: scrape::delta(&base, &end, &GAUGES),
            completed: Class::ALL.map(|c| {
                traced
                    .samples
                    .iter()
                    .filter(|s| s.class == c && s.ok)
                    .count() as f64
            }),
            rows_returned: traced_report.rows_returned as f64,
            gauge_max: traced.gauge_max,
        };
        self.report.merge(traced_report);
        self.layers(&phase);
        Ok((mixes, Some(phase)))
    }

    /// The per-layer metrics read off a traced phase's `/metrics` delta.
    fn layers(&mut self, p: &TracedPhase) {
        let d = &p.delta;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let [hot_reads, cold_reads, _lists, _queries, writes, analyses] = p.completed;
        let reads = hot_reads + cold_reads;
        let requests = d.counter("hyperbench_http_requests_total");
        self.set("server.http.parse_us", d.mean("hyperbench_http_parse_us"));
        self.set("server.http.handle_us", d.mean("hyperbench_http_handle_us"));
        self.set(
            "server.http.serialize_us",
            d.mean("hyperbench_http_serialize_us"),
        );
        self.set(
            "server.reactor.wakeups_per_req",
            per(
                d.counter("hyperbench_reactor_epoll_wakeups_total"),
                requests,
            ),
        );
        self.set(
            "server.reactor.write_bytes_per_req",
            per(d.counter("hyperbench_reactor_write_bytes_total"), requests),
        );
        self.set(
            "server.reactor.shed",
            d.counter("hyperbench_reactor_shed_total"),
        );
        self.set(
            "server.jobs.queue_wait_us",
            d.mean("hyperbench_jobs_queue_wait_us"),
        );
        self.set(
            "server.jobs.decompose_us",
            d.mean("hyperbench_jobs_decompose_us"),
        );
        self.set("server.jobs.shed", d.counter("hyperbench_jobs_shed_total"));
        let hits = d.counter("hyperbench_cache_hits_total");
        let misses = d.counter("hyperbench_cache_misses_total");
        self.set("server.cache.hit_ratio", per(hits, hits + misses));
        self.set(
            "server.cache.evictions",
            d.counter("hyperbench_cache_evictions_total"),
        );
        self.set(
            "repo.pack.hydrations_per_read",
            per(d.counter("hyperbench_pack_page_hydrations_total"), reads),
        );
        self.set(
            "repo.pack.checksum_reads_per_read",
            per(d.counter("hyperbench_pack_checksum_reads_total"), reads),
        );
        self.set("query.parse_us", d.mean("hyperbench_query_parse_us"));
        self.set("query.plan_us", d.mean("hyperbench_query_plan_us"));
        self.set("query.execute_us", d.mean("hyperbench_query_execute_us"));
        self.set(
            "query.rows_scanned_per_returned",
            per(
                d.counter("hyperbench_query_rows_scanned_total"),
                p.rows_returned,
            ),
        );
        self.set(
            "query.rows_hydrated",
            d.counter("hyperbench_query_rows_hydrated_total"),
        );
        self.set(
            "repo.wal.fsyncs_per_write",
            per(d.counter("hyperbench_wal_fsyncs_total"), writes),
        );
        self.set(
            "repo.wal.checkpoint_us",
            d.mean("hyperbench_wal_checkpoint_us"),
        );
        self.set(
            "repo.wal.checkpoints",
            d.counter("hyperbench_wal_checkpoints_total"),
        );
        self.set(
            "repo.mvcc.snapshots_active_max",
            p.gauge_max
                .get("hyperbench_mvcc_snapshots_active")
                .copied()
                .unwrap_or(0.0),
        );
        self.set(
            "decomp.separators_tried_per_analysis",
            per(
                d.counter("hyperbench_decomp_separators_tried_total"),
                analyses,
            ),
        );
        self.set(
            "decomp.memo_hits_per_analysis",
            per(d.counter("hyperbench_decomp_memo_hits_total"), analyses),
        );
        self.set("decomp.steals", d.counter("hyperbench_decomp_steals_total"));
        self.set(
            "decomp.cancellations",
            d.counter("hyperbench_decomp_cancellations_total"),
        );
        self.set(
            "router.fanout_mean",
            d.mean("hyperbench_router_scatter_fanout"),
        );
        let hedges = d.counter("hyperbench_router_hedges_total");
        self.set("router.hedges_per_read", per(hedges, reads));
        self.set(
            "router.hedge_win_ratio",
            per(d.counter("hyperbench_router_hedge_wins_total"), hedges),
        );
        self.set(
            "router.failovers",
            d.counter("hyperbench_router_failovers_total"),
        );
        self.set(
            "router.bad_upstream",
            d.counter("hyperbench_router_bad_upstream_total"),
        );
    }

    /// Allocations the host makes per request of each class in the mix,
    /// from short single-class phases with its counting allocator on.
    fn alloc_per_class<M: Checked>(
        &mut self,
        host: &mut Host,
        mut mixes: Vec<M>,
    ) -> Result<Vec<M>, String> {
        for &class in self.spec.classes {
            let inner = mixes.remove(0);
            let rate = if class == Class::Analysis {
                20.0
            } else {
                100.0
            };
            let before = host.allocations(true)?;
            let out = phase(
                host.addr,
                Load::Rate(rate),
                1.0,
                1,
                vec![Only { inner, class }],
                None,
            );
            let counted = (host.allocations(false)? - before) as f64;
            let (mut only, out) = out?;
            self.report.merge(check(&mut only));
            let done = out.samples.iter().filter(|s| s.ok).count() as f64;
            self.set(
                match class {
                    Class::Read => "alloc.per_read",
                    Class::ColdRead => "alloc.per_cold_read",
                    Class::List => "alloc.per_list",
                    Class::Query => "alloc.per_query",
                    Class::Write => "alloc.per_write",
                    Class::Analysis => "alloc.per_analysis",
                },
                if done > 0.0 { counted / done } else { 0.0 },
            );
            self.count(&out);
            mixes.insert(0, only.remove(0).inner);
        }
        Ok(mixes)
    }

    fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// The result line.
    fn finish(mut self) -> String {
        for e in &self.report.errors {
            eprintln!("perfbench: wrong answer: {e}");
        }
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        let wrong = self.report.wrong + self.problems.len() as u64;
        let failed = self.refused + self.report.timed_out + wrong;
        let attempted = self.samples.max(1);
        let table = if self.args.trace {
            PER_LAYER
        } else {
            self.set(
                "success_ratio",
                (attempted - failed.min(attempted)) as f64 / attempted as f64,
            );
            END_TO_END
        };
        eprintln!(
            "perfbench: {} answers checked, {} wrong, {} refused or failed, {} timed out, of {} attempted",
            self.report.checked, wrong, self.refused, self.report.timed_out, attempted
        );
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            wrong == 0,
            metrics.join(", ")
        )
    }
}

/// What the traced phase left for the per-layer metrics.
struct TracedPhase {
    delta: Delta,
    /// Successful completions per class, in [`Class::ALL`] order.
    completed: [f64; 6],
    rows_returned: f64,
    gauge_max: BTreeMap<String, f64>,
}

fn class_metric(class: Class, q: &str) -> &'static str {
    let name = format!("class.{}_{q}_us", class.name());
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .expect("every class has percentile metrics")
}

/// A scratch directory for this run's writable files.
fn run_dir(workload: &str) -> Result<PathBuf, String> {
    let dir =
        PathBuf::from(fixture::CACHE_DIR).join(format!("run-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

// ------------------------------------------------------------ workloads

fn browse(run: &mut Run, routed: bool) -> Result<(), String> {
    let seed = run.args.seed;
    // browse: one scale-10 pack; routed: two scale-1 shards.
    let packs: Vec<PathBuf> = if routed {
        vec![
            fixture::corpus(fixture::CORPUS_SEED, 1)?,
            fixture::corpus(fixture::CORPUS_SEED + 1, 1)?,
        ]
    } else {
        vec![fixture::corpus(fixture::CORPUS_SEED, 10)?]
    };
    let corpus = Arc::new(Corpus {
        shards: packs
            .iter()
            .map(|p| open_pack(p))
            .collect::<Result<_, _>>()?,
    });
    let ids = Arc::new(corpus.ids());
    let dir = run_dir(run.spec.name)?;
    let mut host = Host::start(run.spec.name, &dir)?;
    run.set("setup_s", host.setup_s);
    let mixes: Vec<Browse> = (0..THREADS)
        .map(|t| Browse::new(seed, t, Arc::clone(&corpus), Arc::clone(&ids), routed))
        .collect();
    let (mixes, traced) = run.load(&mut host, mixes)?;
    if traced.is_some() {
        let mut mixes = run.alloc_per_class(&mut host, mixes)?;
        let sample = probes::sample_ids(&ids, 500, seed ^ 0x5a);
        if routed {
            let primaries = [host.servers[0], host.servers[2]];
            let hot: Vec<usize> = (0..200).map(|_| mixes[0].hot_id()).collect();
            let overhead = probes::router_overhead_us(host.addr, &primaries, &hot, seed)
                .map_err(|e| format!("router probe: {e}"))?;
            run.set("router.overhead_us", overhead);
        } else {
            run.set(
                "server.http.parse_direct_ns",
                probes::http_parse_ns(&sample),
            );
            let (cold, warm) = probes::repo_get_us(&packs[0], &sample)?;
            run.set("repo.get_cold_us", cold);
            run.set("repo.get_warm_us", warm);
            let metas = corpus.metas();
            let (compile, execute) = probes::query_us(mixes[0].queries(), &metas);
            run.set("query.compile_direct_us", compile);
            run.set("query.execute_direct_us", execute);
        }
    }
    host.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn ingest(run: &mut Run) -> Result<(), String> {
    let seed = run.args.seed;
    let source = fixture::corpus(fixture::CORPUS_SEED, 1)?;
    fixture::wal()?;
    let dir = run_dir("ingest")?;
    let mut host = Host::start("ingest", &dir)?;
    run.set("setup_s", host.setup_s);
    // The checker's view of the base corpus, and the shapes new
    // documents are renamed from.
    let base = Arc::new(open_pack(&source)?);
    let shapes: Arc<Vec<Hypergraph>> = Arc::new(
        (0..base.len())
            .filter_map(|id| base.get(id))
            .map(|e| e.hypergraph.clone())
            .filter(|h| h.num_edges() <= 60)
            .take(256)
            .collect(),
    );
    let mixes: Vec<Ingest> = (0..THREADS)
        .map(|t| Ingest::new(seed, t, THREADS, Arc::clone(&shapes), Arc::clone(&base)))
        .collect();
    let (mut mixes, traced) = run.load(&mut host, mixes)?;
    if let Some(p) = &traced {
        let writes = p.completed[Class::Write as usize];
        let user: u64 = mixes.iter().map(|m| m.acked_bytes).sum();
        let wal_bytes = p.delta.counter("hyperbench_wal_append_bytes_total");
        // Bytes the WAL appended per byte of write bodies acknowledged
        // during the traced phase, estimated from the mean body size.
        let mean_body =
            user as f64 / mixes.iter().map(|m| m.acked.len()).sum::<usize>().max(1) as f64;
        run.set(
            "repo.wal.bytes_per_user_byte",
            if writes > 0.0 {
                wal_bytes / (writes * mean_body)
            } else {
                0.0
            },
        );
        mixes = run.alloc_per_class(&mut host, mixes)?;
        run.set(
            "repo.mvcc.commit_direct_us",
            probes::mvcc_commit_us(&dir, &shapes)?,
        );
    }
    let unpinned: u64 = mixes.iter().map(|m| m.unpinned).sum();
    eprintln!("perfbench: {unpinned} walk pages served after their pinned generation was evicted");
    if traced.is_some() {
        run.set("repo.mvcc.cursor_unpinned", unpinned as f64);
    }
    host.stop()?;
    // Every acknowledged write must survive a reopen from disk.
    let (pack, wal) = (dir.join("repo.pack"), dir.join("repo.wal"));
    let store = MvccStore::open(open_pack(&pack)?, MvccOptions::new(wal, Some(pack)))
        .map_err(|e| format!("reopen: {e}"))?;
    let snap = store.snapshot();
    let mut verified = 0usize;
    for mix in &mixes {
        let mut last: BTreeMap<usize, Option<u64>> = BTreeMap::new();
        for &(id, hash) in &mix.acked {
            last.insert(id, hash);
        }
        for (id, hash) in last {
            verified += 1;
            let live = snap.content_hash(id);
            if live != hash {
                run.problem(format!(
                    "acked write to {id} reopened as {live:x?}, acked {hash:x?}"
                ));
            }
        }
    }
    eprintln!("perfbench: {verified} acknowledged writes verified after reopening the store");
    drop(snap);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn analyze(run: &mut Run) -> Result<(), String> {
    let seed = run.args.seed;
    let shapes = fixture::instances()?;
    fixture::spill()?;
    // Expected widths (and the serial search time) from calling the
    // decomposition search directly, before the host starts.
    let per_check = Duration::from_millis(mixes::TIMEOUT_MS);
    let mut times = Vec::new();
    let mut witnesses = Vec::new();
    let instances: Vec<Instance> = shapes
        .into_iter()
        .map(|h| {
            let expected = [0, 1, 2].map(|m| {
                let (widths, took, witness) = probes::drive(&h, m, mixes::MAX_WIDTH, per_check);
                times.push(took);
                if m == 0 {
                    witnesses.extend(witness);
                }
                widths
            });
            Instance {
                hypergraph: h,
                expected,
            }
        })
        .collect();
    let instances = Arc::new(instances);
    let dir = run_dir("analyze")?;
    let mut host = Host::start("analyze", &dir)?;
    run.set("setup_s", host.setup_s);
    let mixes: Vec<Analyze> = (0..THREADS)
        .map(|t| Analyze::new(seed, t, Arc::clone(&instances)))
        .collect();
    let (mixes, traced) = run.load(&mut host, mixes)?;
    if traced.is_some() {
        run.alloc_per_class(&mut host, mixes)?;
        run.set("decomp.check_direct_ms", probes::mean_ms(&times));
        run.set(
            "lp.cover_direct_us",
            probes::lp_cover_us(&instances, &witnesses),
        );
    }
    host.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
