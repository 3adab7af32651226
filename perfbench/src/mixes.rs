//! The four traffic mixes and the checks on their answers.
//!
//! Each mix generates requests from a seeded RNG and keeps whatever it
//! needs to verify the answers. Answers that are cheap to verify and
//! steer later requests (write receipts, cursor pages) are checked as
//! they arrive; the rest are kept and checked after the phase, so that
//! checking does not compete with the server for the CPU while latency
//! is being measured.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperbench_api::{
    AnalysisResource, AnalysisStatus, AnalyzeMethod, AnalyzeRequest, EntryDetail, Json, PageCursor,
    PageDto, QueryRequest, QueryResponse, WriteOutcome, WriteReceipt, WriteRequest,
};
use hyperbench_core::builder::HypergraphBuilder;
use hyperbench_core::Hypergraph;
use hyperbench_repo::store::pack::content_hash_of;
use hyperbench_repo::{EntryMeta, Repository};

use crate::loadgen::{Class, Mix, Reply, Req};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws from a fixed multiset in seeded random order, reshuffling each
/// time it is used up: every run sends the same proportions, and only
/// the order varies with the seed.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `n` copies of each `(card, n)`.
    pub fn new(counts: &[(T, usize)]) -> Deck<T> {
        Deck {
            cards: counts
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect(),
            next: 0,
        }
    }

    /// The next card.
    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// The RNG seed of generator thread `thread` in a run seeded `seed`.
pub fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed.wrapping_mul(0x100_0000_01b3)
        .wrapping_add(thread as u64 + 1)
}

/// Zipf(1) ranks over a fixed hot set.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf(1) over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`, rank 0 most likely.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `h` with `suffix` appended to every vertex name: the same shape, and
/// so the same decomposition work, under a different content hash.
pub fn renamed(h: &Hypergraph, suffix: &str) -> Hypergraph {
    let mut builder = HypergraphBuilder::new();
    for e in h.edge_ids() {
        let vs: Vec<String> = h
            .edge(e)
            .iter()
            .map(|&v| format!("{}{suffix}", h.vertex_name(v)))
            .collect();
        builder.add_edge(h.edge_name(e), &vs);
    }
    builder.build()
}

/// Numbers a thread's checked answers, unique across threads.
#[derive(Debug, Clone)]
pub struct Tickets(u64);

impl Tickets {
    /// Thread `thread`'s tickets.
    pub fn new(thread: usize) -> Tickets {
        Tickets((thread as u64) << 48)
    }

    /// The next ticket.
    pub fn take(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// The outcome of checking a mix's answers.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Answers checked.
    pub checked: u64,
    /// Answers that were wrong.
    pub wrong: u64,
    /// Analyses whose search ran out of budget (failed, not wrong).
    pub timed_out: u64,
    /// The first few wrong answers, described.
    pub errors: Vec<String>,
    /// Tickets of the answers that were wrong or timed out.
    pub failed: HashSet<u64>,
    /// Time to parse and decode each kept body (ns).
    pub decode_ns: Vec<f64>,
    /// Size of each kept body (bytes).
    pub body_bytes: Vec<f64>,
    /// Rows returned by list and query pages.
    pub rows_returned: u64,
}

impl CheckReport {
    fn fail(&mut self, ticket: u64, what: String) {
        self.wrong += 1;
        self.failed.insert(ticket);
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: CheckReport) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        self.timed_out += other.timed_out;
        self.failed.extend(other.failed);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.decode_ns.extend(other.decode_ns);
        self.body_bytes.extend(other.body_bytes);
        self.rows_returned += other.rows_returned;
    }
}

/// A mix whose kept answers can be verified after a phase.
pub trait Checked: Mix {
    /// Verifies and drops every kept answer.
    fn check(&mut self, report: &mut CheckReport);
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

fn with_body(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn refused(status: u16) -> bool {
    !(200..300).contains(&status)
}

/// The content hash of a by-id answer, rebuilt from its edge list.
fn detail_hash(body: &[u8], report: &mut CheckReport) -> Result<u64, String> {
    let t = Instant::now();
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let detail = EntryDetail::from_json(&json).map_err(|e| format!("not an entry: {}", e.0))?;
    report.decode_ns.push(t.elapsed().as_nanos() as f64);
    report.body_bytes.push(body.len() as f64);
    let mut builder = HypergraphBuilder::new();
    for edge in &detail.edge_list {
        builder.add_edge(&edge.name, &edge.vertices);
    }
    Ok(content_hash_of(&builder.build()))
}

fn decode_page(body: &[u8], report: &mut CheckReport) -> Result<Json, String> {
    let t = Instant::now();
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    report.decode_ns.push(t.elapsed().as_nanos() as f64);
    report.body_bytes.push(body.len() as f64);
    Ok(json)
}

fn same_rows(got: &PageDto, total: usize, ids: &[usize]) -> Result<(), String> {
    let got_ids: Vec<usize> = got.items.iter().map(|s| s.id).collect();
    if got.total != total || got_ids != ids {
        return Err(format!(
            "page total {} ids {:?}… differ from the in-process answer total {total} ids {:?}…",
            got.total,
            &got_ids[..got_ids.len().min(5)],
            &ids[..ids.len().min(5)]
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- browse

/// The read-side corpus a browse or routed mix checks against: one pack
/// handle per shard, opened apart from the server's.
pub struct Corpus {
    /// One handle per shard (a single one when unsharded).
    pub shards: Vec<Repository>,
}

impl Corpus {
    /// Every entry's metadata in global-id order (`local · N + shard`).
    pub fn metas(&self) -> Vec<EntryMeta<'_>> {
        let n = self.shards.len();
        let mut all: Vec<EntryMeta<'_>> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(s, repo)| {
                repo.metas().map(move |mut m| {
                    m.id = m.id * n + s;
                    m
                })
            })
            .collect();
        all.sort_by_key(|m| m.id);
        all
    }

    /// Every valid global id.
    pub fn ids(&self) -> Vec<usize> {
        self.metas().iter().map(|m| m.id).collect()
    }

    /// The stored content hash of global id `gid`.
    pub fn content_hash(&self, gid: usize) -> Option<u64> {
        let n = self.shards.len();
        self.shards[gid % n].content_hash(gid / n)
    }
}

/// List filters, as sent and as the checker decodes them.
const LIST_FILTERS: [(&str, &[(&str, &str)]); 8] = [
    ("class=CQ%20Application", &[("class", "CQ Application")]),
    ("class=CSP%20Application", &[("class", "CSP Application")]),
    ("class=CSP%20Random", &[("class", "CSP Random")]),
    ("class=CSP%20Other", &[("class", "CSP Other")]),
    ("min_edges=20", &[("min_edges", "20")]),
    ("max_arity=3", &[("max_arity", "3")]),
    (
        "min_edges=5&max_edges=40",
        &[("min_edges", "5"), ("max_edges", "40")],
    ),
    (
        "class=CQ%20Random&min_arity=3",
        &[("class", "CQ Random"), ("min_arity", "3")],
    ),
];

/// HBQL for the browse mix: rows with `ORDER BY`, and grouped aggregates.
const BROWSE_QUERIES: [&str; 5] = [
    "SELECT * WHERE class = \"CSP Random\" AND edges >= 10 ORDER BY edges DESC LIMIT 20",
    "SELECT * WHERE vertices <= 30 ORDER BY vertices DESC LIMIT 50",
    "SELECT * WHERE arity >= 4 AND edges <= 60 ORDER BY arity DESC LIMIT 50",
    "SELECT collection, COUNT(*), AVG(arity) GROUP BY collection",
    "SELECT class, COUNT(*), MAX(edges), AVG(vertices) WHERE edges >= 5 GROUP BY class",
];

/// HBQL for the routed mix: the router merges rows by id only.
const ROUTED_QUERIES: [&str; 3] = [
    "SELECT * WHERE class = \"CSP Random\" AND edges >= 10 LIMIT 20",
    "SELECT * WHERE vertices <= 30 LIMIT 50",
    "SELECT * WHERE arity >= 4 AND edges <= 60 LIMIT 50",
];

const PAGE_LIMIT: usize = 50;
/// Seeds the choice of the Zipf-hot ids.
const HOT_SET_SEED: u64 = 0x407;

/// What a browse request asked for.
pub enum BrowseTag {
    /// A by-id read.
    Read(usize),
    /// A list page: filter index and cursor position.
    List(usize, Option<usize>),
    /// An HBQL query by index.
    Query(usize),
}

/// `browse` and `routed`: by-id reads, list pages and HBQL over a
/// read-only corpus.
pub struct Browse {
    rng: Rng,
    corpus: Arc<Corpus>,
    ids: Arc<Vec<usize>>,
    hot: Arc<Vec<usize>>,
    zipf: Zipf,
    routed: bool,
    deck: Deck<BrowsePick>,
    tickets: Tickets,
    kept: Vec<(u64, BrowseTag, Vec<u8>)>,
}

#[derive(Debug, Clone, Copy)]
enum BrowsePick {
    Cold,
    Hot,
    List,
    Query,
}

impl Browse {
    /// Thread `thread`'s browse mix (`routed`: the router variant,
    /// without cold reads).
    pub fn new(
        seed: u64,
        thread: usize,
        corpus: Arc<Corpus>,
        ids: Arc<Vec<usize>>,
        routed: bool,
    ) -> Browse {
        // The hot set is part of the workload: the same 1% of ids in
        // every run and thread.
        let mut pick = Rng::new(HOT_SET_SEED);
        let hot_len = (ids.len() / 100).max(1);
        let hot: Vec<usize> = (0..hot_len).map(|_| ids[pick.below(ids.len())]).collect();
        Browse {
            rng: Rng::new(thread_seed(seed, thread)),
            zipf: Zipf::new(hot.len()),
            corpus,
            ids,
            hot: Arc::new(hot),
            routed,
            // browse: 30% cold reads, 30% hot reads, 25% lists, 15% HBQL;
            // routed drops the cold reads and keeps the proportions.
            deck: Deck::new(&[
                (BrowsePick::Cold, if routed { 0 } else { 6 }),
                (BrowsePick::Hot, 6),
                (BrowsePick::List, 5),
                (BrowsePick::Query, 3),
            ]),
            tickets: Tickets::new(thread),
            kept: Vec::new(),
        }
    }

    /// The HBQL texts this mix sends.
    pub fn queries(&self) -> &'static [&'static str] {
        if self.routed {
            &ROUTED_QUERIES
        } else {
            &BROWSE_QUERIES
        }
    }

    /// A by-id read of `gid`.
    pub fn read_request(gid: usize) -> Vec<u8> {
        get(&format!("/v1/hypergraphs/{gid}"))
    }

    /// A uniform by-id read (first touches, mostly).
    pub fn cold_id(&mut self) -> usize {
        self.ids[self.rng.below(self.ids.len())]
    }

    /// A Zipf-hot by-id read.
    pub fn hot_id(&mut self) -> usize {
        self.hot[self.zipf.sample(&mut self.rng)]
    }

    fn list(&mut self) -> Req<BrowseTag> {
        let filter = self.rng.below(LIST_FILTERS.len());
        // Half the pages continue a cursor from a random position; the
        // router's cursors are its own, so routed lists start fresh.
        let after = (!self.routed && self.rng.unit() < 0.5).then(|| self.cold_id());
        let mut path = format!(
            "/v1/hypergraphs?{}&limit={PAGE_LIMIT}",
            LIST_FILTERS[filter].0
        );
        if let Some(a) = after {
            path.push_str(&format!("&cursor={}", PageCursor::after(a).encode()));
        }
        Req {
            class: Class::List,
            bytes: get(&path),
            tag: BrowseTag::List(filter, after),
        }
    }

    fn query(&mut self) -> Req<BrowseTag> {
        let q = self.rng.below(self.queries().len());
        let body = QueryRequest::new(self.queries()[q]).to_json().to_string();
        Req {
            class: Class::Query,
            bytes: with_body("POST", "/v1/query", &body),
            tag: BrowseTag::Query(q),
        }
    }
}

impl Mix for Browse {
    type Tag = BrowseTag;

    fn next(&mut self) -> Req<BrowseTag> {
        let (class, gid) = match self.deck.draw(&mut self.rng) {
            BrowsePick::Cold => (Class::ColdRead, self.cold_id()),
            BrowsePick::Hot => (Class::Read, self.hot_id()),
            BrowsePick::List => return self.list(),
            BrowsePick::Query => return self.query(),
        };
        Req {
            class,
            bytes: Browse::read_request(gid),
            tag: BrowseTag::Read(gid),
        }
    }

    fn on_response(&mut self, tag: BrowseTag, status: u16, body: Vec<u8>) -> Reply<BrowseTag> {
        if refused(status) {
            return Reply::done(false);
        }
        let ticket = self.tickets.take();
        self.kept.push((ticket, tag, body));
        Reply::answered(ticket)
    }
}

impl Checked for Browse {
    fn check(&mut self, report: &mut CheckReport) {
        let metas = self.corpus.metas();
        // Each filter's full match set, from one in-process evaluation;
        // every page of it is a slice.
        let matches: Vec<Vec<usize>> = LIST_FILTERS
            .iter()
            .map(|(_, params)| {
                let query = hyperbench_query::legacy::desugar_params(params.iter().copied())
                    .expect("benchmark filter desugars");
                let plan = hyperbench_query::resolve(&query).expect("benchmark filter resolves");
                let all = plan.execute_rows(metas.iter().cloned(), None, usize::MAX);
                all.items.iter().map(|s| s.id).collect()
            })
            .collect();
        // Each query's answer, likewise evaluated once.
        let answers: Vec<(QueryResponse, &str)> = self
            .queries()
            .iter()
            .map(|q| {
                let plan = hyperbench_query::compile(q).expect("benchmark query compiles");
                let answer = if plan.is_aggregate() {
                    let g = plan.execute_groups(metas.iter().cloned());
                    QueryResponse::Groups {
                        group_by: g.group_by,
                        groups: g.groups,
                    }
                } else {
                    let limit = plan.limit().map_or(PAGE_LIMIT, |l| l as usize);
                    let rows = plan.execute_rows(metas.iter().cloned(), None, limit);
                    QueryResponse::Rows(PageDto::new(rows.total, rows.items, None))
                };
                (answer, *q)
            })
            .collect();
        for (ticket, tag, body) in std::mem::take(&mut self.kept) {
            report.checked += 1;
            let verdict = match tag {
                BrowseTag::Read(gid) => detail_hash(&body, report).and_then(|got| {
                    let want = self.corpus.content_hash(gid);
                    (Some(got) == want)
                        .then_some(())
                        .ok_or_else(|| format!("read {gid}: hash {got:x}, corpus {want:x?}"))
                }),
                BrowseTag::List(f, after) => decode_page(&body, report).and_then(|json| {
                    let page = PageDto::from_json(&json).map_err(|e| e.0)?;
                    report.rows_returned += page.items.len() as u64;
                    let all = &matches[f];
                    let from = after.map_or(0, |a| all.partition_point(|&id| id <= a));
                    let want = &all[from..(from + PAGE_LIMIT).min(all.len())];
                    same_rows(&page, all.len(), want)
                        .map_err(|e| format!("list {}: {e}", LIST_FILTERS[f].0))
                }),
                BrowseTag::Query(q) => decode_page(&body, report).and_then(|json| {
                    let (want, text) = &answers[q];
                    match (QueryResponse::from_json(&json).map_err(|e| e.0)?, want) {
                        (QueryResponse::Rows(page), QueryResponse::Rows(want)) => {
                            report.rows_returned += page.items.len() as u64;
                            let ids: Vec<usize> = want.items.iter().map(|s| s.id).collect();
                            same_rows(&page, want.total, &ids)
                                .map_err(|e| format!("query {text:?}: {e}"))
                        }
                        (got @ QueryResponse::Groups { .. }, want) => {
                            if let QueryResponse::Groups { groups, .. } = &got {
                                report.rows_returned += groups.len() as u64;
                            }
                            (got.to_json().to_string() == want.to_json().to_string())
                                .then_some(())
                                .ok_or_else(|| format!("query {text:?}: groups differ"))
                        }
                        _ => Err(format!("query {text:?}: wrong answer kind")),
                    }
                }),
            };
            if let Err(e) = verdict {
                report.fail(ticket, e);
            }
        }
    }
}

// ---------------------------------------------------------------- ingest

/// What an ingest request asked for.
pub enum IngestTag {
    /// A create of a document with this content hash and body size.
    Create(u64, usize),
    /// A replace of `id` by a document with this hash and body size.
    Replace(usize, u64, usize),
    /// A delete of `id`.
    Delete(usize),
    /// A read of `id`, expecting this content hash.
    Read(usize, u64),
    /// A page of a cursor walk.
    Walk(Walk),
}

/// Where a cursor walk stands.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    filter: usize,
    page: usize,
    /// The first page's total and the generation its cursor pinned.
    pinned: Option<(usize, Option<u64>)>,
    /// The last id seen.
    last: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IngestPick {
    Create,
    Replace,
    Delete,
    Read,
    Walk,
}

/// Classes the ingest list walks filter on.
const WALK_CLASSES: [&str; 3] = ["CSP Random", "CQ Application", "CSP Other"];
const WALK_LIMIT: usize = 100;
const WALK_PAGES: usize = 3;

/// `ingest`: unique creates, replaces, deletes, reads of recent writes
/// and snapshot-pinned list walks over a writable store.
pub struct Ingest {
    rng: Rng,
    tag: String,
    made: u64,
    shapes: Arc<Vec<Hypergraph>>,
    base: Arc<Repository>,
    /// Base ids this thread replaces or deletes, each at most once.
    mutable: Vec<usize>,
    /// Base ids this thread reads and never modifies.
    stable: Vec<usize>,
    /// Recently acknowledged creates.
    recent: VecDeque<(usize, u64)>,
    /// Every acknowledged write: id → live content hash (`None`: deleted).
    pub acked: Vec<(usize, Option<u64>)>,
    /// Body bytes of the acknowledged creates and replaces.
    pub acked_bytes: u64,
    /// Walk pages served after their pinned generation was evicted.
    pub unpinned: u64,
    deck: Deck<IngestPick>,
    tickets: Tickets,
    kept: Vec<(u64, usize, u64, Vec<u8>)>,
    inline: CheckReport,
}

impl Ingest {
    /// Thread `thread` of `threads`: the base ids are split so no two
    /// threads touch the same entry.
    pub fn new(
        seed: u64,
        thread: usize,
        threads: usize,
        shapes: Arc<Vec<Hypergraph>>,
        base: Arc<Repository>,
    ) -> Ingest {
        let mut rng = Rng::new(thread_seed(seed, thread));
        let n = base.len();
        let mut mutable: Vec<usize> = (0..n).filter(|i| i % (2 * threads) == thread).collect();
        let stable: Vec<usize> = (0..n)
            .filter(|i| i % (2 * threads) == threads + thread)
            .collect();
        for i in (1..mutable.len()).rev() {
            mutable.swap(i, rng.below(i + 1));
        }
        Ingest {
            rng,
            tag: format!("s{seed:x}t{thread}"),
            made: 0,
            shapes,
            base,
            mutable,
            stable,
            recent: VecDeque::new(),
            acked: Vec::new(),
            acked_bytes: 0,
            unpinned: 0,
            // 40% creates, 10% replaces, 5% deletes, 30% reads, 15% walks.
            deck: Deck::new(&[
                (IngestPick::Create, 8),
                (IngestPick::Replace, 2),
                (IngestPick::Delete, 1),
                (IngestPick::Read, 6),
                (IngestPick::Walk, 3),
            ]),
            tickets: Tickets::new(thread),
            kept: Vec::new(),
            inline: CheckReport::default(),
        }
    }

    /// A new unique document: a datagen shape with every vertex renamed.
    fn document(&mut self) -> (String, u64) {
        self.made += 1;
        let shape = &self.shapes[self.rng.below(self.shapes.len())];
        let h = renamed(shape, &format!("_{}n{}", self.tag, self.made));
        let hash = content_hash_of(&h);
        let body = WriteRequest::labeled(
            hyperbench_core::format::to_hg_unnamed(&h),
            "perfbench",
            "CQ Random",
        )
        .to_json()
        .to_string();
        (body, hash)
    }

    fn walk_request(filter: usize, cursor: Option<&str>) -> Vec<u8> {
        let class = WALK_CLASSES[filter].replace(' ', "%20");
        let mut path = format!("/v1/hypergraphs?class={class}&limit={WALK_LIMIT}");
        if let Some(c) = cursor {
            path.push_str(&format!("&cursor={c}"));
        }
        get(&path)
    }

    fn receipt(body: &[u8]) -> Result<WriteReceipt, String> {
        let text = std::str::from_utf8(body).map_err(|_| "receipt is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("receipt is not JSON: {e}"))?;
        WriteReceipt::from_json(&json).map_err(|e| e.0)
    }

    /// Checks one page of a walk; returns the next page's request state.
    ///
    /// A walk is pinned to the generation its first page saw for as long
    /// as the store retains that generation; after that the server falls
    /// back, documented, to the current one. The total is checked while
    /// the pin holds (the page's cursor still names the pinned
    /// generation); fallbacks are counted.
    fn walk_page(&mut self, walk: Walk, body: &[u8]) -> Result<Option<(String, Walk)>, String> {
        let json = decode_page(body, &mut self.inline)?;
        let dto = PageDto::from_json(&json).map_err(|e| e.0)?;
        self.inline.rows_returned += dto.items.len() as u64;
        let seq = match &dto.next_cursor {
            Some(c) => PageCursor::decode(c).map_err(|e| e.to_string())?.snapshot,
            None => None,
        };
        if let Some((total, pin)) = walk.pinned {
            if dto.next_cursor.is_some() && seq == pin {
                if dto.total != total {
                    return Err(format!(
                        "walk total moved from {total} to {} on cursor pinned at {pin:?}",
                        dto.total
                    ));
                }
            } else if dto.next_cursor.is_some() {
                self.unpinned += 1;
            }
        }
        let mut prev = walk.last;
        for item in &dto.items {
            if prev.is_some_and(|p| item.id <= p) || item.class != WALK_CLASSES[walk.filter] {
                return Err(format!(
                    "walk row {} ({}) out of order or off-filter",
                    item.id, item.class
                ));
            }
            prev = Some(item.id);
        }
        Ok(match (dto.next_cursor, prev) {
            (Some(c), Some(_)) if walk.page + 1 < WALK_PAGES => {
                let pinned = walk.pinned.or(Some((dto.total, seq)));
                Some((
                    c,
                    Walk {
                        filter: walk.filter,
                        page: walk.page + 1,
                        pinned,
                        last: prev,
                    },
                ))
            }
            _ => None,
        })
    }
}

impl Mix for Ingest {
    type Tag = IngestTag;

    fn next(&mut self) -> Req<IngestTag> {
        let pick = self.deck.draw(&mut self.rng);
        // Once every base id this thread may touch is used up, replaces
        // and deletes turn into creates.
        let target = match pick {
            IngestPick::Replace | IngestPick::Delete => self.mutable.pop(),
            _ => None,
        };
        match (pick, target) {
            (IngestPick::Replace, Some(id)) => {
                let (body, hash) = self.document();
                Req {
                    class: Class::Write,
                    tag: IngestTag::Replace(id, hash, body.len()),
                    bytes: with_body("PUT", &format!("/v1/hypergraphs/{id}"), &body),
                }
            }
            (IngestPick::Delete, Some(id)) => Req {
                class: Class::Write,
                tag: IngestTag::Delete(id),
                bytes: format!("DELETE /v1/hypergraphs/{id} HTTP/1.1\r\nHost: perfbench\r\n\r\n")
                    .into_bytes(),
            },
            (IngestPick::Read, _) => {
                // Reads favour what was just written.
                let (id, hash) = if !self.recent.is_empty() && self.rng.unit() < 0.8 {
                    self.recent[self.rng.below(self.recent.len())]
                } else {
                    let id = self.stable[self.rng.below(self.stable.len())];
                    (id, self.base.content_hash(id).expect("stable id is live"))
                };
                Req {
                    class: Class::Read,
                    bytes: Browse::read_request(id),
                    tag: IngestTag::Read(id, hash),
                }
            }
            (IngestPick::Walk, _) => {
                let filter = self.rng.below(WALK_CLASSES.len());
                Req {
                    class: Class::List,
                    bytes: Ingest::walk_request(filter, None),
                    tag: IngestTag::Walk(Walk {
                        filter,
                        page: 0,
                        pinned: None,
                        last: None,
                    }),
                }
            }
            _ => {
                let (body, hash) = self.document();
                Req {
                    class: Class::Write,
                    tag: IngestTag::Create(hash, body.len()),
                    bytes: with_body("POST", "/v1/hypergraphs", &body),
                }
            }
        }
    }

    fn on_response(&mut self, tag: IngestTag, status: u16, body: Vec<u8>) -> Reply<IngestTag> {
        if refused(status) {
            return Reply::done(false);
        }
        let ticket = self.tickets.take();
        let verdict = match tag {
            IngestTag::Create(hash, bytes) => Ingest::receipt(&body).and_then(|r| {
                if r.outcome != WriteOutcome::Created || r.content_hash != Some(hash) {
                    return Err(format!("create receipt {r:?}, sent hash {hash:x}"));
                }
                self.acked.push((r.id, Some(hash)));
                self.acked_bytes += bytes as u64;
                self.recent.push_back((r.id, hash));
                if self.recent.len() > 64 {
                    self.recent.pop_front();
                }
                Ok(())
            }),
            IngestTag::Replace(id, hash, bytes) => Ingest::receipt(&body).and_then(|r| {
                if r.id != id || r.content_hash != Some(hash) {
                    return Err(format!("replace receipt {r:?}, sent {id} hash {hash:x}"));
                }
                self.acked.push((id, Some(hash)));
                self.acked_bytes += bytes as u64;
                Ok(())
            }),
            IngestTag::Delete(id) => Ingest::receipt(&body).and_then(|r| {
                if r.id != id || r.outcome != WriteOutcome::Removed {
                    return Err(format!("delete receipt {r:?} for {id}"));
                }
                self.acked.push((id, None));
                Ok(())
            }),
            IngestTag::Read(id, hash) => {
                self.kept.push((ticket, id, hash, body));
                Ok(())
            }
            IngestTag::Walk(walk) => match self.walk_page(walk, &body) {
                Ok(Some((cursor, next))) => {
                    self.inline.checked += 1;
                    return Reply {
                        done: Some(true),
                        ticket: Some(ticket),
                        follow: Some((
                            Duration::ZERO,
                            Req {
                                class: Class::List,
                                bytes: Ingest::walk_request(next.filter, Some(&cursor)),
                                tag: IngestTag::Walk(next),
                            },
                            false,
                        )),
                    };
                }
                Ok(None) => Ok(()),
                Err(e) => Err(e),
            },
        };
        self.inline.checked += 1;
        if let Err(e) = verdict {
            self.inline.fail(ticket, e);
        }
        Reply::answered(ticket)
    }
}

impl Checked for Ingest {
    fn check(&mut self, report: &mut CheckReport) {
        report.merge(std::mem::take(&mut self.inline));
        for (ticket, id, want, body) in std::mem::take(&mut self.kept) {
            report.checked += 1;
            match detail_hash(&body, report) {
                Ok(got) if got == want => {}
                Ok(got) => report.fail(ticket, format!("read {id}: hash {got:x}, wrote {want:x}")),
                Err(e) => report.fail(ticket, format!("read {id}: {e}")),
            }
        }
    }
}

// --------------------------------------------------------------- analyze

/// One analysis instance with the widths a direct search finds for it.
pub struct Instance {
    /// The instance.
    pub hypergraph: Hypergraph,
    /// `(upper, lower)` per method, in [`METHODS`] order.
    pub expected: [(Option<usize>, usize); 3],
}

/// The methods analyses request.
pub const METHODS: [AnalyzeMethod; 3] = [AnalyzeMethod::Hd, AnalyzeMethod::Ghd, AnalyzeMethod::Fhd];
/// Largest width analyses search.
pub const MAX_WIDTH: usize = 5;
/// Per-check budget analyses request (the server default).
pub const TIMEOUT_MS: u64 = 250;
/// How long to wait between polls of a running analysis.
const POLL_EVERY: Duration = Duration::from_micros(500);

/// What an analysis request asked for: instance, method, and the exact
/// document sent (vertex-renamed or repeated).
pub struct AnalyzeTag {
    instance: usize,
    method: usize,
    doc: Arc<String>,
}

/// `analyze`: hd/ghd/fhd analyses, 70% of fresh (renamed) content and
/// 30% repeating earlier content.
pub struct Analyze {
    rng: Rng,
    tag: String,
    made: u64,
    instances: Arc<Vec<Instance>>,
    history: Vec<(usize, usize, Arc<String>)>,
    /// Every (instance, method) pair once per round.
    pairs: Deck<(usize, usize)>,
    /// 7 of 10 requests fresh content, 3 repeats.
    repeat: Deck<bool>,
    tickets: Tickets,
    kept: Vec<(u64, AnalyzeTag, Vec<u8>)>,
}

impl Analyze {
    /// Thread `thread`'s mix over `instances`.
    pub fn new(seed: u64, thread: usize, instances: Arc<Vec<Instance>>) -> Analyze {
        let pairs: Vec<((usize, usize), usize)> = (0..instances.len())
            .flat_map(|i| (0..METHODS.len()).map(move |m| ((i, m), 1)))
            .collect();
        Analyze {
            rng: Rng::new(thread_seed(seed, thread)),
            tag: format!("s{seed:x}t{thread}"),
            made: 0,
            instances,
            history: Vec::new(),
            pairs: Deck::new(&pairs),
            repeat: Deck::new(&[(false, 7), (true, 3)]),
            tickets: Tickets::new(thread),
            kept: Vec::new(),
        }
    }

    fn fresh(&mut self, instance: usize) -> String {
        self.made += 1;
        let h = renamed(
            &self.instances[instance].hypergraph,
            &format!("_{}n{}", self.tag, self.made),
        );
        hyperbench_core::format::to_hg_unnamed(&h)
    }

    /// The submit request for `doc` under method `method`.
    pub fn submit(doc: &str, method: usize) -> Vec<u8> {
        let mut req = AnalyzeRequest::hd(doc)
            .with_method(METHODS[method])
            .with_jobs(1);
        req.max_width = Some(MAX_WIDTH);
        req.timeout_ms = Some(TIMEOUT_MS);
        with_body("POST", "/v1/analyses", &req.to_json().to_string())
    }

    /// Whether an analysis body is terminal, with its id.
    pub fn status(body: &[u8]) -> Option<(u64, bool)> {
        let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
        let id = json.get("id")?.as_int()?;
        let status = AnalysisStatus::parse(json.get("status")?.as_str()?)?;
        Some((u64::try_from(id).ok()?, status.is_terminal()))
    }
}

impl Mix for Analyze {
    type Tag = AnalyzeTag;

    fn next(&mut self) -> Req<AnalyzeTag> {
        let repeat = self.repeat.draw(&mut self.rng);
        let (instance, method, doc) = if repeat && !self.history.is_empty() {
            self.history[self.rng.below(self.history.len())].clone()
        } else {
            let (instance, method) = self.pairs.draw(&mut self.rng);
            let doc = Arc::new(self.fresh(instance));
            self.history.push((instance, method, Arc::clone(&doc)));
            (instance, method, doc)
        };
        Req {
            class: Class::Analysis,
            bytes: Analyze::submit(&doc, method),
            tag: AnalyzeTag {
                instance,
                method,
                doc,
            },
        }
    }

    fn on_response(&mut self, tag: AnalyzeTag, status: u16, body: Vec<u8>) -> Reply<AnalyzeTag> {
        if refused(status) {
            return Reply::done(false);
        }
        match Analyze::status(&body) {
            Some((_, true)) => {
                let ticket = self.tickets.take();
                self.kept.push((ticket, tag, body));
                Reply::answered(ticket)
            }
            Some((id, false)) => Reply {
                done: None,
                ticket: None,
                follow: Some((
                    POLL_EVERY,
                    Req {
                        class: Class::Analysis,
                        bytes: get(&format!("/v1/analyses/{id}")),
                        tag,
                    },
                    true,
                )),
            },
            None => {
                // Unreadable: keep it so the check reports it.
                let ticket = self.tickets.take();
                self.kept.push((ticket, tag, body));
                Reply::answered(ticket)
            }
        }
    }
}

impl Checked for Analyze {
    fn check(&mut self, report: &mut CheckReport) {
        for (ticket, tag, body) in std::mem::take(&mut self.kept) {
            report.checked += 1;
            let verdict = (|| -> Result<(), String> {
                let json = decode_page(&body, report)?;
                let res = AnalysisResource::from_json(&json).map_err(|e| e.0)?;
                if res.status != AnalysisStatus::Done {
                    return Err(format!("analysis ended {:?}: {:?}", res.status, res.error));
                }
                let got = res.result.as_ref().ok_or("done without a result")?;
                let want = self.instances[tag.instance].expected[tag.method];
                let method = METHODS[tag.method].as_str();
                if got.hw_timed_out {
                    // A search that ran out of budget decides less, and
                    // counts as failed; what it does report must hold.
                    let exact = want.0.unwrap_or(usize::MAX);
                    if got.hw_lower > exact || got.hw_upper.is_some_and(|u| u < exact) {
                        return Err(format!(
                            "{method} timed-out bounds ({:?}, {}) exclude the direct search's {exact}",
                            got.hw_upper, got.hw_lower
                        ));
                    }
                    report.timed_out += 1;
                    report.failed.insert(ticket);
                } else if (got.hw_upper, got.hw_lower) != want {
                    return Err(format!(
                        "{method} widths ({:?}, {}) differ from the direct search's {want:?}",
                        got.hw_upper, got.hw_lower
                    ));
                }
                let h = hyperbench_core::format::parse_hg(&tag.doc).map_err(|e| e.to_string())?;
                let dto = res.decomposition.as_ref().ok_or("no witness")?;
                let d = dto.to_decomposition(&h).map_err(|e| e.0)?;
                let valid = match METHODS[tag.method] {
                    AnalyzeMethod::Ghd => hyperbench_decomp::validate::validate_ghd(&h, &d),
                    _ => hyperbench_decomp::validate::validate_hd(&h, &d),
                };
                valid.map_err(|e| format!("witness invalid: {e:?}"))?;
                if Some(d.width()) != got.hw_upper {
                    return Err(format!(
                        "witness width {} vs reported {:?}",
                        d.width(),
                        got.hw_upper
                    ));
                }
                Ok(())
            })();
            if let Err(e) = verdict {
                report.fail(ticket, e);
            }
        }
    }
}
