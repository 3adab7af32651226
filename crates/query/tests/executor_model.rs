//! Reference-model property test for the HBQL executor.
//!
//! Random resolvable queries — `WHERE` trees of And/Or/Not over every
//! catalog field, one or two `ORDER BY` keys (analysis fields included,
//! so absent values take part), `GROUP BY` aggregates, limits of 0, 1,
//! k and more than the total, and keyset `after` cursors — run over a
//! memory repository and over the same rows reopened from a pack file,
//! both with sparse ids. Each answer must equal a naive reference: a
//! full scan of the hydrated entries with owned keys, a stable full
//! sort and a truncate. A failure prints the query text and the case
//! seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::RngCore as _;

use hyperbench_api::dto::EntrySummary;
use hyperbench_api::json::Json;
use hyperbench_core::builder::HypergraphBuilder;
use hyperbench_core::properties::StructuralProperties;
use hyperbench_core::stats::size_metrics;
use hyperbench_query::ast::{
    CmpOp, Expr, FieldRef, Literal, OrderKey, Query, Select, SelectItem, SelectItemKind,
};
use hyperbench_query::catalog::{FieldType, FIELDS};
use hyperbench_query::{resolve, GroupRows, RowPage};
use hyperbench_repo::store::pack::write_pack;
use hyperbench_repo::{AnalysisRecord, Entry, Repository};

const COLLECTIONS: [&str; 3] = ["TPC-H", "SPARQL", "CSP"];
const CLASSES: [&str; 3] = ["CQ Application", "CSP Application", "CSP Random"];

// ---------------------------------------------------------------------
// Corpus: small value ranges, so ties and absent values are common.
// ---------------------------------------------------------------------

fn random_record(rng: &mut StdRng, h: &hyperbench_core::Hypergraph) -> AnalysisRecord {
    let small = |rng: &mut StdRng| rng.gen_range(0..4usize);
    let hw_lower = rng.gen_range(1..4usize);
    AnalysisRecord {
        sizes: size_metrics(h),
        properties: StructuralProperties {
            degree: small(rng),
            bip: small(rng),
            bmip3: small(rng),
            bmip4: small(rng),
            vc_dim: (rng.gen_range(0..4u32) != 0).then(|| small(rng)),
        },
        hw_upper: (rng.gen_range(0..4u32) != 0).then(|| hw_lower + rng.gen_range(0..2usize)),
        hw_lower,
        hw_steps: Vec::new(),
        hw_timed_out: rng.gen_range(0..4u32) == 0,
    }
}

/// A memory repository of 10–40 entries, some analyzed, with a few ids
/// removed so the id sequence is sparse.
fn random_repo(rng: &mut StdRng) -> Repository {
    let mut repo = Repository::new();
    let n = rng.gen_range(10..40usize);
    for _ in 0..n {
        // Distinct edges only: the `.hg` text a pack stores drops
        // duplicate edges, so a duplicate would not survive the pack.
        let mut b = HypergraphBuilder::new().dedupe_edges(true);
        let vertices = rng.gen_range(2..6usize);
        for e in 0..rng.gen_range(1..5usize) {
            let arity = rng.gen_range(1..=vertices);
            let start = rng.gen_range(0..=vertices - arity);
            let vs: Vec<String> = (start..start + arity).map(|v| format!("v{v}")).collect();
            b.add_edge(&format!("e{e}"), &vs);
        }
        let h = b.build();
        let record = (rng.gen_range(0..3u32) != 0).then(|| random_record(rng, &h));
        let id = repo.insert(
            h,
            COLLECTIONS[rng.gen_range(0..COLLECTIONS.len())],
            CLASSES[rng.gen_range(0..CLASSES.len())],
        );
        if let Some(r) = record {
            repo.set_analysis(id, r);
        }
    }
    for _ in 0..n / 5 {
        let id = rng.gen_range(0..n);
        let _ = repo.remove(id);
    }
    repo
}

/// The same rows, written to a pack file and reopened paged.
fn paged_copy(repo: &Repository) -> Repository {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hyperbench-executor-model-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("repo.pack");
    write_pack(repo, &path).expect("write pack");
    let paged = Repository::open_pack(&path).expect("open pack");
    // The open pack reads payloads lazily from its file handle, which
    // survives the directory entry's removal.
    let _ = std::fs::remove_dir_all(&dir);
    paged
}

// ---------------------------------------------------------------------
// Queries: every field, type-correct literals, so each one resolves.
// ---------------------------------------------------------------------

fn field_ref(name: &str) -> FieldRef {
    FieldRef {
        name: name.to_string(),
        span: Default::default(),
    }
}

fn any_field(rng: &mut StdRng) -> (&'static str, FieldType) {
    let f = &FIELDS[rng.gen_range(0..FIELDS.len())];
    (f.name, f.ty)
}

fn int_field(rng: &mut StdRng) -> &'static str {
    loop {
        let (name, ty) = any_field(rng);
        if ty == FieldType::Int {
            return name;
        }
    }
}

fn cmp(rng: &mut StdRng) -> Expr {
    let (name, ty) = any_field(rng);
    let (op, value) = match ty {
        FieldType::Int => {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            let value = if name == "id" {
                rng.gen_range(-1..45i64)
            } else {
                rng.gen_range(-1..7i64)
            };
            (ops[rng.gen_range(0..ops.len())], Literal::Int(value))
        }
        FieldType::Str => {
            let pool = [COLLECTIONS.as_slice(), CLASSES.as_slice(), &["nope"]].concat();
            let op = if rng.next_u64() & 1 == 0 {
                CmpOp::Eq
            } else {
                CmpOp::Ne
            };
            (op, Literal::Str(pool[rng.gen_range(0..pool.len())].into()))
        }
        FieldType::Bool => {
            let op = if rng.next_u64() & 1 == 0 {
                CmpOp::Eq
            } else {
                CmpOp::Ne
            };
            (op, Literal::Bool(rng.next_u64() & 1 == 1))
        }
    };
    Expr::Cmp {
        field: field_ref(name),
        op,
        value,
        value_span: Default::default(),
    }
}

fn where_tree(rng: &mut StdRng, depth: u32) -> Expr {
    let choice = if depth == 0 {
        3
    } else {
        rng.gen_range(0..5u32)
    };
    match choice {
        0 => Expr::And(
            Box::new(where_tree(rng, depth - 1)),
            Box::new(where_tree(rng, depth - 1)),
        ),
        1 => Expr::Or(
            Box::new(where_tree(rng, depth - 1)),
            Box::new(where_tree(rng, depth - 1)),
        ),
        2 => Expr::Not(Box::new(where_tree(rng, depth - 1))),
        _ => cmp(rng),
    }
}

fn rows_query(rng: &mut StdRng) -> Query {
    Query {
        select: Select::Rows,
        filter: (rng.gen_range(0..4u32) != 0).then(|| where_tree(rng, 3)),
        group_by: None,
        order_by: (0..rng.gen_range(0..3usize))
            .map(|_| OrderKey {
                field: field_ref(any_field(rng).0),
                desc: rng.next_u64() & 1 == 1,
            })
            .collect(),
        limit: None,
    }
}

fn groups_query(rng: &mut StdRng) -> Query {
    let key = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some("collection"),
        _ => Some("class"),
    };
    let item = |kind| SelectItem {
        kind,
        span: Default::default(),
    };
    let mut items = Vec::new();
    if let Some(k) = key {
        items.push(item(SelectItemKind::Column(k.to_string())));
    }
    for _ in 0..rng.gen_range(1..4usize) {
        items.push(item(match rng.gen_range(0..4u32) {
            0 => SelectItemKind::Count,
            1 => SelectItemKind::Min(int_field(rng).to_string()),
            2 => SelectItemKind::Max(int_field(rng).to_string()),
            _ => SelectItemKind::Avg(int_field(rng).to_string()),
        }));
    }
    Query {
        select: Select::Items(items),
        filter: (rng.gen_range(0..3u32) != 0).then(|| where_tree(rng, 2)),
        group_by: key.map(field_ref),
        order_by: Vec::new(),
        limit: [None, Some(1), Some(2), Some(100)][rng.gen_range(0..4usize)],
    }
}

// ---------------------------------------------------------------------
// The reference: owned values read off hydrated entries by field name.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Val {
    Int(i64),
    Str(String),
    Bool(bool),
}

fn value(e: &Entry, name: &str) -> Option<Val> {
    let int = |v: usize| Some(Val::Int(v as i64));
    let rec = e.analysis.as_ref();
    match name {
        "id" => int(e.id),
        "collection" => Some(Val::Str(e.collection.clone())),
        "class" => Some(Val::Str(e.class.clone())),
        "vertices" => int(e.hypergraph.num_vertices()),
        "edges" => int(e.hypergraph.num_edges()),
        "arity" => int(e.hypergraph.arity()),
        "degree" => rec.and_then(|r| int(r.properties.degree)),
        "bip" => rec.and_then(|r| int(r.properties.bip)),
        "bmip3" => rec.and_then(|r| int(r.properties.bmip3)),
        "bmip4" => rec.and_then(|r| int(r.properties.bmip4)),
        "vc_dim" => rec.and_then(|r| r.properties.vc_dim).and_then(int),
        "hw_upper" => rec.and_then(|r| r.hw_upper).and_then(int),
        "hw_lower" => rec.and_then(|r| int(r.hw_lower)),
        "analyzed" => Some(Val::Bool(rec.is_some())),
        "cyclic" => rec.map(|r| Val::Bool(r.hw_lower >= 2)),
        "hw_timed_out" => rec.map(|r| Val::Bool(r.hw_timed_out)),
        other => panic!("no reference value for field {other:?}"),
    }
}

fn holds(e: &Entry, expr: &Expr) -> bool {
    match expr {
        Expr::And(l, r) => holds(e, l) && holds(e, r),
        Expr::Or(l, r) => holds(e, l) || holds(e, r),
        Expr::Not(inner) => !holds(e, inner),
        Expr::Cmp {
            field,
            op,
            value: lit,
            ..
        } => {
            let Some(actual) = value(e, &field.name) else {
                return false;
            };
            let lit = match lit {
                Literal::Int(n) => Val::Int(*n),
                Literal::Str(s) => Val::Str(s.clone()),
                Literal::Bool(b) => Val::Bool(*b),
            };
            match op {
                CmpOp::Eq => actual == lit,
                CmpOp::Ne => actual != lit,
                CmpOp::Lt => actual < lit,
                CmpOp::Le => actual <= lit,
                CmpOp::Gt => actual > lit,
                CmpOp::Ge => actual >= lit,
            }
        }
    }
}

fn matches<'r>(repo: &'r Repository, q: &Query) -> Vec<&'r Entry> {
    repo.entries()
        .filter(|e| q.filter.as_ref().is_none_or(|f| holds(e, f)))
        .collect()
}

fn summary(e: &Entry) -> EntrySummary {
    EntrySummary {
        id: e.id,
        collection: e.collection.clone(),
        class: e.class.clone(),
        vertices: e.hypergraph.num_vertices(),
        edges: e.hypergraph.num_edges(),
        arity: e.hypergraph.arity(),
        analyzed: e.analysis.is_some(),
        hw_upper: e.analysis.as_ref().and_then(|r| r.hw_upper),
        hw_lower: e.analysis.as_ref().map(|r| r.hw_lower),
    }
}

fn reference_rows(repo: &Repository, q: &Query, after: Option<usize>, limit: usize) -> RowPage {
    let hits = matches(repo, q);
    let total = hits.len();
    if !q.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Option<Val>>, &Entry)> = hits
            .into_iter()
            .map(|e| {
                let keys = q.order_by.iter().map(|k| value(e, &k.field.name)).collect();
                (keys, e)
            })
            .collect();
        // Stable over the id-ordered scan, so ties keep ascending ids.
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, key) in q.order_by.iter().enumerate() {
                let ord = match (&ka[i], &kb[i]) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (Some(a), Some(b)) if key.desc => b.cmp(a),
                    (Some(a), Some(b)) => a.cmp(b),
                };
                if ord.is_ne() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        keyed.truncate(limit);
        return RowPage {
            items: keyed.into_iter().map(|(_, e)| summary(e)).collect(),
            total,
            next_after: None,
        };
    }
    let rest: Vec<&Entry> = hits
        .into_iter()
        .filter(|e| after.is_none_or(|a| e.id > a))
        .collect();
    let items: Vec<EntrySummary> = rest.iter().take(limit).map(|e| summary(e)).collect();
    let next_after = (rest.len() > limit)
        .then(|| items.last().map(|s| s.id))
        .flatten();
    RowPage {
        items,
        total,
        next_after,
    }
}

fn reference_groups(repo: &Repository, q: &Query) -> GroupRows {
    let Select::Items(items) = &q.select else {
        unreachable!("groups queries select items");
    };
    let key_name = q.group_by.as_ref().map(|f| f.name.clone());
    let mut groups: BTreeMap<Option<String>, Vec<&Entry>> = BTreeMap::new();
    for e in matches(repo, q) {
        let key = key_name.as_ref().map(|k| match value(e, k) {
            Some(Val::Str(s)) => s,
            other => panic!("group key {k:?} read {other:?}"),
        });
        groups.entry(key).or_default().push(e);
    }
    let ints = |members: &[&Entry], field: &str| -> Vec<i64> {
        members
            .iter()
            .filter_map(|e| match value(e, field) {
                Some(Val::Int(v)) => Some(v),
                _ => None,
            })
            .collect()
    };
    let limit = q.limit.map_or(usize::MAX, |l| l as usize);
    let rows = groups
        .into_iter()
        .take(limit)
        .map(|(key, members)| {
            let fields = items
                .iter()
                .map(|item| match &item.kind {
                    SelectItemKind::Column(name) => {
                        (name.clone(), Json::str(key.as_deref().expect("keyed")))
                    }
                    SelectItemKind::Count => ("count".to_string(), Json::int(members.len())),
                    SelectItemKind::Min(f) => (
                        format!("min_{f}"),
                        ints(&members, f)
                            .into_iter()
                            .min()
                            .map_or(Json::Null, Json::int),
                    ),
                    SelectItemKind::Max(f) => (
                        format!("max_{f}"),
                        ints(&members, f)
                            .into_iter()
                            .max()
                            .map_or(Json::Null, Json::int),
                    ),
                    SelectItemKind::Avg(f) => {
                        let vs = ints(&members, f);
                        let avg = if vs.is_empty() {
                            Json::Null
                        } else {
                            // Values are non-negative: thousandths,
                            // rounded half-up.
                            let (sum, n) = (vs.iter().sum::<i64>(), vs.len() as i64);
                            let milli = (2000 * sum + n) / (2 * n);
                            Json::str(format!("{}.{:03}", milli / 1000, milli % 1000))
                        };
                        (format!("avg_{f}"), avg)
                    }
                })
                .collect();
            Json::Obj(fields)
        })
        .collect();
    GroupRows {
        group_by: key_name,
        groups: rows,
    }
}

// ---------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------

struct Case;

impl Strategy for Case {
    type Value = (
        Repository,
        Vec<Query>,
        Vec<Query>,
        Vec<(Option<usize>, usize)>,
    );

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let repo = random_repo(rng);
        let rows = (0..6).map(|_| rows_query(rng)).collect();
        let groups = (0..3).map(|_| groups_query(rng)).collect();
        let k = rng.gen_range(2..8usize);
        let windows = [0, 1, k, repo.len() + 5]
            .into_iter()
            .map(|limit| {
                let after = (rng.next_u64() & 1 == 1).then(|| rng.gen_range(0..45usize));
                (after, limit)
            })
            .collect();
        (repo, rows, groups, windows)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn executor_agrees_with_a_naive_full_scan(case in Case) {
        let (memory, rows, groups, windows) = case;
        let paged = paged_copy(&memory);
        for repo in [&memory, &paged] {
            let backend = if repo.is_paged() { "paged" } else { "memory" };
            prop_assert_eq!(
                repo.metas().map(|m| m.id).collect::<Vec<_>>(),
                repo.entries().map(|e| e.id).collect::<Vec<_>>(),
                "{} scan order",
                backend
            );
            for q in &rows {
                let plan = resolve(q).expect("generated queries resolve");
                for &(after, limit) in &windows {
                    let got = plan.execute_rows(repo.metas(), after, limit);
                    let want = reference_rows(repo, q, after, limit);
                    prop_assert_eq!(
                        got,
                        want,
                        "{} backend, after {:?}, limit {}: {}",
                        backend,
                        after,
                        limit,
                        q
                    );
                }
            }
            for q in &groups {
                let plan = resolve(q).expect("generated queries resolve");
                let got = plan.execute_groups(repo.metas());
                let want = reference_groups(repo, q);
                prop_assert_eq!(got, want, "{} backend: {}", backend, q);
            }
        }
    }
}
