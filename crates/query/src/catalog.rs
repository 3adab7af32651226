//! The field catalog: the one table tying HBQL names to wire schema
//! constants and to the `EntryMeta` index.
//!
//! Every queryable field is a [`hyperbench_api::schema`] constant, so
//! the wire DTOs, the store columns, and the query language share one
//! vocabulary — renaming a field is a compile-error sweep, not a silent
//! drift. Every field here is resolvable from [`EntryMeta`] alone,
//! which is what lets the executor run without hydrating pack pages.
//! Names are matched once, when a plan is resolved; each row then pays
//! one call through the field's [`Accessor`].

use hyperbench_api::schema;
use hyperbench_repo::EntryMeta;

/// The type of a queryable field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Non-negative integer (counts, bounds, sizes).
    Int,
    /// String (collection / class labels).
    Str,
    /// Boolean flag.
    Bool,
}

impl FieldType {
    /// Human-readable name for error messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            FieldType::Int => "integer",
            FieldType::Str => "string",
            FieldType::Bool => "boolean",
        }
    }
}

/// Reads one field off a metadata row: `None` when the value is
/// absent (see [`FieldValue`]).
pub type Accessor = for<'a> fn(&EntryMeta<'a>) -> Option<FieldValue<'a>>;

/// One catalog row.
#[derive(Debug, Clone, Copy)]
pub struct FieldDef {
    /// The field name (a `schema` constant).
    pub name: &'static str,
    /// The field's type.
    pub ty: FieldType,
    /// The field's accessor. Plans hold resolved `&FieldDef`s, so the
    /// executor calls this directly, never matching names per row.
    pub get: Accessor,
}

fn int(v: usize) -> Option<FieldValue<'static>> {
    Some(FieldValue::Int(v as i64))
}

/// Every queryable field, in documentation order. Index into this table
/// is the field id [`lookup`] returns.
pub static FIELDS: [FieldDef; 16] = [
    FieldDef {
        name: schema::ID,
        ty: FieldType::Int,
        get: |m| int(m.id),
    },
    FieldDef {
        name: schema::COLLECTION,
        ty: FieldType::Str,
        get: |m| Some(FieldValue::Str(m.collection)),
    },
    FieldDef {
        name: schema::CLASS,
        ty: FieldType::Str,
        get: |m| Some(FieldValue::Str(m.class)),
    },
    FieldDef {
        name: schema::VERTICES,
        ty: FieldType::Int,
        get: |m| int(m.vertices),
    },
    FieldDef {
        name: schema::EDGES,
        ty: FieldType::Int,
        get: |m| int(m.edges),
    },
    FieldDef {
        name: schema::ARITY,
        ty: FieldType::Int,
        get: |m| int(m.arity),
    },
    FieldDef {
        name: schema::DEGREE,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| int(r.properties.degree)),
    },
    FieldDef {
        name: schema::BIP,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| int(r.properties.bip)),
    },
    FieldDef {
        name: schema::BMIP3,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| int(r.properties.bmip3)),
    },
    FieldDef {
        name: schema::BMIP4,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| int(r.properties.bmip4)),
    },
    FieldDef {
        name: schema::VC_DIM,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| r.properties.vc_dim).and_then(int),
    },
    FieldDef {
        name: schema::HW_UPPER,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| r.hw_upper).and_then(int),
    },
    FieldDef {
        name: schema::HW_LOWER,
        ty: FieldType::Int,
        get: |m| m.analysis.and_then(|r| int(r.hw_lower)),
    },
    FieldDef {
        name: schema::ANALYZED,
        ty: FieldType::Bool,
        get: |m| Some(FieldValue::Bool(m.analysis.is_some())),
    },
    FieldDef {
        name: schema::CYCLIC,
        ty: FieldType::Bool,
        get: |m| m.analysis.map(|r| FieldValue::Bool(r.is_cyclic())),
    },
    FieldDef {
        name: schema::HW_TIMED_OUT,
        ty: FieldType::Bool,
        get: |m| m.analysis.map(|r| FieldValue::Bool(r.hw_timed_out)),
    },
];

/// Looks a field up by name, returning its catalog index.
pub fn lookup(name: &str) -> Option<usize> {
    FIELDS.iter().position(|f| f.name == name)
}

/// The comma-joined field names, for "valid fields are …" error
/// messages.
pub fn field_names() -> String {
    FIELDS.iter().map(|f| f.name).collect::<Vec<_>>().join(", ")
}

/// A field's value on one entry. `None` means the value is absent —
/// analysis-dependent fields on unanalyzed entries, or bounds the
/// analyzer could not certify (`vc_dim` / `hw_upper` timeouts). Every
/// comparison against an absent value is false. Values of one field
/// share a variant, so the derived order is the field's natural order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FieldValue<'a> {
    /// An integer value.
    Int(i64),
    /// A string value.
    Str(&'a str),
    /// A boolean value.
    Bool(bool),
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperbench_core::properties::StructuralProperties;
    use hyperbench_core::stats::SizeMetrics;
    use hyperbench_repo::AnalysisRecord;

    /// The value each `schema` name denotes on `m`, spelled out by name
    /// independently of [`FIELDS`].
    fn named_value<'a>(m: &EntryMeta<'a>, name: &str) -> Option<FieldValue<'a>> {
        let int = |v: usize| Some(FieldValue::Int(v as i64));
        let rec = m.analysis;
        match name {
            schema::ID => int(m.id),
            schema::COLLECTION => Some(FieldValue::Str(m.collection)),
            schema::CLASS => Some(FieldValue::Str(m.class)),
            schema::VERTICES => int(m.vertices),
            schema::EDGES => int(m.edges),
            schema::ARITY => int(m.arity),
            schema::DEGREE => rec.and_then(|r| int(r.properties.degree)),
            schema::BIP => rec.and_then(|r| int(r.properties.bip)),
            schema::BMIP3 => rec.and_then(|r| int(r.properties.bmip3)),
            schema::BMIP4 => rec.and_then(|r| int(r.properties.bmip4)),
            schema::VC_DIM => rec.and_then(|r| r.properties.vc_dim).and_then(int),
            schema::HW_UPPER => rec.and_then(|r| r.hw_upper).and_then(int),
            schema::HW_LOWER => rec.and_then(|r| int(r.hw_lower)),
            schema::ANALYZED => Some(FieldValue::Bool(rec.is_some())),
            schema::CYCLIC => rec.map(|r| FieldValue::Bool(r.hw_lower >= 2)),
            schema::HW_TIMED_OUT => rec.map(|r| FieldValue::Bool(r.hw_timed_out)),
            other => panic!("catalog field {other:?} has no expected value here"),
        }
    }

    /// A record whose every numeric field is distinct, so an accessor
    /// wired to the wrong field cannot read the right number.
    fn record(cyclic: bool, certified: bool) -> AnalysisRecord {
        AnalysisRecord {
            sizes: SizeMetrics {
                vertices: 5,
                edges: 6,
                arity: 7,
            },
            properties: StructuralProperties {
                degree: 11,
                bip: 12,
                bmip3: 13,
                bmip4: 14,
                vc_dim: certified.then_some(15),
            },
            hw_upper: certified.then_some(17),
            hw_lower: if cyclic { 16 } else { 1 },
            hw_steps: Vec::new(),
            hw_timed_out: !certified,
        }
    }

    #[test]
    fn every_accessor_reads_the_field_its_name_denotes() {
        let (a, b) = (record(true, true), record(false, false));
        for analysis in [Some(&a), Some(&b), None] {
            let meta = EntryMeta {
                id: 3,
                collection: "TPC-H",
                class: "CQ Application",
                vertices: 5,
                edges: 6,
                arity: 7,
                analysis,
            };
            for f in &FIELDS {
                let got = (f.get)(&meta);
                assert_eq!(
                    got,
                    named_value(&meta, f.name),
                    "field {:?} on {analysis:?}",
                    f.name
                );
                let ty = got.map(|v| match v {
                    FieldValue::Int(_) => FieldType::Int,
                    FieldValue::Str(_) => FieldType::Str,
                    FieldValue::Bool(_) => FieldType::Bool,
                });
                assert!(ty.is_none_or(|t| t == f.ty), "field {:?} type", f.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_lookup_agrees() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, f) in FIELDS.iter().enumerate() {
            assert!(seen.insert(f.name), "duplicate field {:?}", f.name);
            assert_eq!(lookup(f.name), Some(i));
        }
        assert_eq!(lookup("nope"), None);
        assert!(field_names().contains("hw_upper"));
    }
}
