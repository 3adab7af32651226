//! The HBQL resolver: names and types checked against the
//! [`crate::catalog`], producing an executable [`Plan`].

use crate::ast::{CmpOp, Expr, FieldRef, Literal, Query, Select, SelectItemKind};
use crate::catalog::{self, FieldDef, FieldType};
use crate::error::QueryError;
use crate::token::Span;

/// A type-checked, name-resolved query, ready to execute. Field
/// references are resolved to their [`catalog::FIELDS`] rows, so the
/// executor reads each value through the row's accessor and never
/// matches a name.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) filter: Option<Pred>,
    pub(crate) shape: Shape,
    pub(crate) limit: Option<u64>,
}

/// A resolved predicate.
#[derive(Debug, Clone)]
pub(crate) enum Pred {
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    Cmp {
        field: Field,
        op: CmpOp,
        value: Literal,
    },
}

/// A resolved field reference.
pub(crate) type Field = &'static FieldDef;

/// What the plan produces.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    /// Entry-summary rows, optionally sorted by `(field, desc)` keys.
    Rows { order: Vec<(Field, bool)> },
    /// Aggregate groups.
    Groups {
        /// The grouping field, or `None` for one global group.
        key: Option<Field>,
        /// The select list, in order.
        items: Vec<AggItem>,
    },
}

/// One resolved aggregate-select entry.
#[derive(Debug, Clone)]
pub(crate) enum AggItem {
    /// The group key column.
    Key,
    /// `COUNT(*)`.
    Count,
    /// `MIN(field)`.
    Min(Field),
    /// `MAX(field)`.
    Max(Field),
    /// `AVG(field)`.
    Avg(Field),
}

impl Plan {
    /// Whether this plan aggregates (vs. returning rows).
    pub fn is_aggregate(&self) -> bool {
        matches!(self.shape, Shape::Groups { .. })
    }

    /// Whether a rows plan carries an `ORDER BY` (which disables keyset
    /// cursors — the sort order is no longer the id order cursors walk).
    pub fn has_order(&self) -> bool {
        matches!(&self.shape, Shape::Rows { order } if !order.is_empty())
    }

    /// The query's `LIMIT`, when present.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

fn unknown_field(f: &FieldRef) -> QueryError {
    QueryError::new(
        format!(
            "unknown field {:?}; valid fields are: {}",
            f.name,
            catalog::field_names()
        ),
        f.span,
    )
}

fn resolve_field(f: &FieldRef) -> Result<Field, QueryError> {
    catalog::lookup(&f.name)
        .map(|idx| &catalog::FIELDS[idx])
        .ok_or_else(|| unknown_field(f))
}

fn resolve_expr(e: &Expr) -> Result<Pred, QueryError> {
    match e {
        Expr::And(l, r) => Ok(Pred::And(
            Box::new(resolve_expr(l)?),
            Box::new(resolve_expr(r)?),
        )),
        Expr::Or(l, r) => Ok(Pred::Or(
            Box::new(resolve_expr(l)?),
            Box::new(resolve_expr(r)?),
        )),
        Expr::Not(inner) => Ok(Pred::Not(Box::new(resolve_expr(inner)?))),
        Expr::Cmp {
            field,
            op,
            value,
            value_span,
        } => {
            let def = resolve_field(field)?;
            let ty = def.ty;
            let value_ty = match value {
                Literal::Int(_) => FieldType::Int,
                Literal::Str(_) => FieldType::Str,
                Literal::Bool(_) => FieldType::Bool,
            };
            if ty != value_ty {
                return Err(QueryError::new(
                    format!(
                        "field {:?} is {}, but the literal is {}",
                        field.name,
                        ty.as_str(),
                        value_ty.as_str()
                    ),
                    *value_span,
                ));
            }
            if op.is_ordering() && ty != FieldType::Int {
                return Err(QueryError::new(
                    format!(
                        "ordering comparison {:?} requires an integer field, but {:?} is {}",
                        op.as_str(),
                        field.name,
                        ty.as_str()
                    ),
                    field.span,
                ));
            }
            Ok(Pred::Cmp {
                field: def,
                op: *op,
                value: value.clone(),
            })
        }
    }
}

/// Resolves a parsed query against the catalog.
pub fn resolve(query: &Query) -> Result<Plan, QueryError> {
    let filter = query.filter.as_ref().map(resolve_expr).transpose()?;

    let group_key = match &query.group_by {
        None => None,
        Some(f) => {
            let def = resolve_field(f)?;
            if def.ty != FieldType::Str {
                return Err(QueryError::new(
                    format!(
                        "GROUP BY {:?} is not supported; group by \"collection\" or \"class\"",
                        f.name
                    ),
                    f.span,
                ));
            }
            Some(def)
        }
    };

    let shape = match &query.select {
        Select::Rows => {
            if let Some(f) = &query.group_by {
                return Err(QueryError::new(
                    "SELECT * cannot be combined with GROUP BY; select the group key and aggregates instead",
                    f.span,
                ));
            }
            let mut order = Vec::new();
            for key in &query.order_by {
                order.push((resolve_field(&key.field)?, key.desc));
            }
            Shape::Rows { order }
        }
        Select::Items(items) => {
            if let Some(key) = query.order_by.first() {
                return Err(QueryError::new(
                    "ORDER BY is not supported in aggregate queries; groups are returned in ascending key order",
                    key.field.span,
                ));
            }
            let mut resolved = Vec::new();
            for item in items {
                let item_field = |name: &str| {
                    resolve_field(&FieldRef {
                        name: name.to_string(),
                        span: item.span,
                    })
                };
                let agg_field = |name: &str| -> Result<Field, QueryError> {
                    let def = item_field(name)?;
                    if def.ty != FieldType::Int {
                        return Err(QueryError::new(
                            format!(
                                "aggregates require an integer field, but {:?} is {}",
                                name,
                                def.ty.as_str()
                            ),
                            item.span,
                        ));
                    }
                    Ok(def)
                };
                resolved.push(match &item.kind {
                    SelectItemKind::Count => AggItem::Count,
                    SelectItemKind::Min(f) => AggItem::Min(agg_field(f)?),
                    SelectItemKind::Max(f) => AggItem::Max(agg_field(f)?),
                    SelectItemKind::Avg(f) => AggItem::Avg(agg_field(f)?),
                    SelectItemKind::Column(name) => {
                        let def = item_field(name)?;
                        match group_key {
                            Some(key) if std::ptr::eq(key, def) => AggItem::Key,
                            Some(_) => {
                                return Err(QueryError::new(
                                    format!(
                                        "bare field {name:?} in the select list must be the GROUP BY key"
                                    ),
                                    item.span,
                                ))
                            }
                            None => {
                                return Err(QueryError::new(
                                    format!(
                                        "bare field {name:?} requires GROUP BY {name}; \
                                         use SELECT * for rows"
                                    ),
                                    item.span,
                                ))
                            }
                        }
                    }
                });
            }
            Shape::Groups {
                key: group_key,
                items: resolved,
            }
        }
    };

    if let Some(0) = query.limit {
        return Err(QueryError::new("LIMIT must be at least 1", Span::default()));
    }

    Ok(Plan {
        filter,
        shape,
        limit: query.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(text: &str) -> Result<Plan, QueryError> {
        resolve(&parse(text)?)
    }

    #[test]
    fn accepts_well_typed_queries() {
        assert!(!plan("SELECT * WHERE hw_upper <= 5").unwrap().is_aggregate());
        assert!(plan("SELECT COUNT(*)").unwrap().is_aggregate());
        assert!(
            plan("SELECT collection, COUNT(*), AVG(arity) GROUP BY collection")
                .unwrap()
                .is_aggregate()
        );
        assert!(plan("SELECT * ORDER BY edges DESC").unwrap().has_order());
        assert!(!plan("SELECT * ORDER BY edges DESC").unwrap().is_aggregate());
    }

    #[test]
    fn rejects_unknown_fields_with_the_catalog_listing() {
        let text = "SELECT * WHERE hw <= 5";
        let e = plan(text).unwrap_err();
        assert_eq!(&text[e.span.start..e.span.end], "hw");
        assert!(
            e.message.contains("hw_upper"),
            "lists fields: {}",
            e.message
        );
    }

    #[test]
    fn rejects_type_mismatches_with_value_spans() {
        let text = "SELECT * WHERE edges = \"many\"";
        let e = plan(text).unwrap_err();
        assert_eq!(&text[e.span.start..e.span.end], "\"many\"");
        assert!(plan("SELECT * WHERE class < \"x\"").is_err());
        assert!(plan("SELECT * WHERE analyzed = 1").is_err());
        assert!(plan("SELECT * WHERE cyclic > TRUE").is_err());
    }

    #[test]
    fn rejects_bad_aggregate_shapes() {
        assert!(plan("SELECT * GROUP BY collection").is_err());
        assert!(plan("SELECT COUNT(*) GROUP BY edges").is_err());
        assert!(plan("SELECT class, COUNT(*) GROUP BY collection").is_err());
        assert!(plan("SELECT edges").is_err());
        assert!(plan("SELECT MIN(class)").is_err());
        assert!(plan("SELECT COUNT(*) ORDER BY edges").is_err());
        assert!(plan("SELECT * LIMIT 0").is_err());
    }
}
