//! Name resolution: AST → bound statements.

use crate::ast::*;
use crate::predicate::{JoinPredicate, LocalPredicate, PredKind};
use crate::qgm::{BoundAggregate, GroupItem, Projection, QueryBlock, Qun};
use jits_catalog::Catalog;
use jits_common::{ColumnId, Interval, JitsError, Result, TableId, Value};

/// A fully bound statement, ready for optimization/execution.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    /// A bound SPJ block.
    Select(QueryBlock),
    /// EXPLAIN over a bound block (compile only).
    Explain(QueryBlock),
    /// A bound insert.
    Insert(BoundInsert),
    /// A bound update.
    Update(BoundUpdate),
    /// A bound delete.
    Delete(BoundDelete),
}

/// Bound `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundInsert {
    /// Target table.
    pub table: TableId,
    /// Rows to insert (coerced to the schema at execution).
    pub rows: Vec<Vec<Value>>,
}

/// Bound `UPDATE`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundUpdate {
    /// Target table.
    pub table: TableId,
    /// Assignments, each value already coerced to its column's type.
    pub sets: Vec<(ColumnId, Value)>,
    /// WHERE predicates (over a single implicit quantifier 0).
    pub predicates: Vec<LocalPredicate>,
}

/// Bound `DELETE`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundDelete {
    /// Target table.
    pub table: TableId,
    /// WHERE predicates (over a single implicit quantifier 0).
    pub predicates: Vec<LocalPredicate>,
}

/// Binds a parsed statement against the catalog.
pub fn bind_statement(stmt: &Statement, catalog: &Catalog) -> Result<BoundStatement> {
    match stmt {
        Statement::Select(s) => bind_select(s, catalog).map(BoundStatement::Select),
        Statement::Explain(s) => bind_select(s, catalog).map(BoundStatement::Explain),
        Statement::Insert(i) => {
            let table = catalog.require(&i.table)?;
            let schema = catalog.schema(table)?;
            // validate arity AND types up front so a multi-row INSERT is
            // all-or-nothing at execution
            let mut rows = Vec::with_capacity(i.rows.len());
            for row in &i.rows {
                if row.len() != schema.len() {
                    return Err(JitsError::Binding(format!(
                        "INSERT row has {} values, table '{}' has {} columns",
                        row.len(),
                        i.table,
                        schema.len()
                    )));
                }
                let coerced: Result<Vec<Value>> = row
                    .iter()
                    .zip(schema.columns())
                    .map(|(v, def)| {
                        if v.is_null() {
                            Ok(Value::Null)
                        } else {
                            v.clone().coerce(def.dtype).map_err(|e| {
                                JitsError::Binding(format!("INSERT into '{}': {e}", i.table))
                            })
                        }
                    })
                    .collect();
                rows.push(coerced?);
            }
            Ok(BoundStatement::Insert(BoundInsert { table, rows }))
        }
        Statement::Update(u) => {
            let table = catalog.require(&u.table)?;
            let schema = catalog.schema(table)?;
            // every SET value is typed against the schema here, before any
            // row is written: a bad value in the second assignment must not
            // leave the first one applied
            let sets = u
                .sets
                .iter()
                .map(|(c, v)| {
                    let column = schema.require_column(c)?;
                    let dtype = schema.columns()[column.index()].dtype;
                    let v = v.clone().coerce(dtype).map_err(|e| {
                        JitsError::Binding(format!("UPDATE '{}' SET {c}: {e}", u.table))
                    })?;
                    Ok((column, v))
                })
                .collect::<Result<Vec<_>>>()?;
            let binder = single_table_binder(table, &u.table, catalog);
            let predicates = bind_local_predicates(&u.predicates, &binder)?;
            Ok(BoundStatement::Update(BoundUpdate {
                table,
                sets,
                predicates,
            }))
        }
        Statement::Delete(d) => {
            let table = catalog.require(&d.table)?;
            let binder = single_table_binder(table, &d.table, catalog);
            let predicates = bind_local_predicates(&d.predicates, &binder)?;
            Ok(BoundStatement::Delete(BoundDelete { table, predicates }))
        }
    }
}

/// Binds a SELECT into a query block.
pub fn bind_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<QueryBlock> {
    if stmt.from.is_empty() {
        return Err(JitsError::Binding("FROM clause is empty".into()));
    }
    let mut quns = Vec::with_capacity(stmt.from.len());
    for tr in &stmt.from {
        let table = catalog.require(&tr.table)?;
        let alias = tr
            .alias
            .clone()
            .unwrap_or_else(|| tr.table.clone())
            .to_ascii_lowercase();
        if quns.iter().any(|q: &Qun| q.alias == alias) {
            return Err(JitsError::Binding(format!(
                "duplicate table alias '{alias}'"
            )));
        }
        quns.push(Qun { table, alias });
    }
    let binder = Binder {
        quns: &quns,
        catalog,
    };

    let mut local_predicates = Vec::new();
    let mut join_predicates = Vec::new();
    for p in &stmt.predicates {
        match p {
            AstPredicate::Cmp {
                left,
                op,
                right: Operand::Column(rc),
            } => {
                let (lq, lc) = binder.resolve(left)?;
                let (rq, rc) = binder.resolve(rc)?;
                if lq == rq {
                    return Err(JitsError::Binding(format!(
                        "column-to-column predicate within one table is not supported: {left} {op} {rc}",
                    )));
                }
                if *op != CmpOp::Eq {
                    return Err(JitsError::Binding(format!(
                        "only equality joins are supported: {left} {op} {rc}",
                    )));
                }
                join_predicates.push(JoinPredicate {
                    left: (lq, lc),
                    right: (rq, rc),
                });
            }
            AstPredicate::Cmp {
                left,
                op,
                right: Operand::Literal(v),
            } => {
                let (qun, column) = binder.resolve(left)?;
                if v.is_null() {
                    return Err(JitsError::Binding(format!(
                        "comparison with NULL is never true: {left} {op} NULL"
                    )));
                }
                let kind = match op {
                    CmpOp::Eq => PredKind::Interval(Interval::point(v.clone())),
                    CmpOp::Ne => PredKind::NotEq(v.clone()),
                    CmpOp::Lt => PredKind::Interval(Interval::at_most(v.clone(), false)),
                    CmpOp::Le => PredKind::Interval(Interval::at_most(v.clone(), true)),
                    CmpOp::Gt => PredKind::Interval(Interval::at_least(v.clone(), false)),
                    CmpOp::Ge => PredKind::Interval(Interval::at_least(v.clone(), true)),
                };
                local_predicates.push(LocalPredicate { qun, column, kind });
            }
            AstPredicate::Between { col, low, high } => {
                let (qun, column) = binder.resolve(col)?;
                local_predicates.push(LocalPredicate {
                    qun,
                    column,
                    kind: PredKind::Interval(Interval::between(low.clone(), high.clone())),
                });
            }
            AstPredicate::InList { col, values } => {
                let (qun, column) = binder.resolve(col)?;
                let kind = bind_in_list(values)?;
                local_predicates.push(LocalPredicate { qun, column, kind });
            }
            AstPredicate::IsNull { col, negated } => {
                let (qun, column) = binder.resolve(col)?;
                local_predicates.push(LocalPredicate {
                    qun,
                    column,
                    kind: PredKind::IsNull(*negated),
                });
            }
        }
    }

    let projection = if stmt.group_by.is_empty() {
        bind_projection(&stmt.projections, &binder)?
    } else {
        bind_grouped_projection(&stmt.projections, &stmt.group_by, &binder)?
    };
    let order_by = match &stmt.order_by {
        Some(ob) => {
            if matches!(
                projection,
                Projection::CountStar | Projection::Aggregates(_) | Projection::GroupBy { .. }
            ) {
                return Err(JitsError::Binding(
                    "ORDER BY cannot be combined with aggregation".into(),
                ));
            }
            let (qun, col) = binder.resolve(&ob.col)?;
            Some((qun, col, ob.desc))
        }
        None => None,
    };
    Ok(QueryBlock {
        quns,
        local_predicates,
        join_predicates,
        projection,
        order_by,
        limit: stmt.limit,
    })
}

/// Binds a GROUP BY projection: plain columns must appear in the key list;
/// everything else must be an aggregate.
fn bind_grouped_projection(
    items: &[SelectItem],
    group_by: &[ColRef],
    binder: &Binder<'_>,
) -> Result<Projection> {
    let keys: Vec<(usize, ColumnId)> = group_by
        .iter()
        .map(|c| binder.resolve(c))
        .collect::<Result<_>>()?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Column(c) => {
                let rc = binder.resolve(c)?;
                let ki = keys.iter().position(|k| *k == rc).ok_or_else(|| {
                    JitsError::Binding(format!(
                        "column {c} must appear in GROUP BY or inside an aggregate"
                    ))
                })?;
                out.push(GroupItem::Key(ki));
            }
            SelectItem::CountStar => out.push(GroupItem::Agg(BoundAggregate {
                func: crate::ast::AggFunc::Count,
                col: None,
            })),
            SelectItem::Aggregate(func, c) => {
                let (qun, col) = binder.resolve(c)?;
                out.push(GroupItem::Agg(BoundAggregate {
                    func: *func,
                    col: Some((qun, col)),
                }));
            }
            SelectItem::Wildcard => {
                return Err(JitsError::Binding(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ))
            }
        }
    }
    Ok(Projection::GroupBy { keys, items: out })
}

fn bind_projection(items: &[SelectItem], binder: &Binder<'_>) -> Result<Projection> {
    if items.len() == 1 {
        match &items[0] {
            SelectItem::Wildcard => return Ok(Projection::Wildcard),
            SelectItem::CountStar => return Ok(Projection::CountStar),
            SelectItem::Aggregate(..) | SelectItem::Column(_) => {}
        }
    }
    let any_aggregate = items
        .iter()
        .any(|i| matches!(i, SelectItem::Aggregate(..) | SelectItem::CountStar));
    if any_aggregate {
        // without GROUP BY, a projection is either all aggregates or all
        // plain columns
        let mut aggs = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::CountStar => aggs.push(BoundAggregate {
                    func: crate::ast::AggFunc::Count,
                    col: None,
                }),
                SelectItem::Aggregate(func, c) => {
                    let (qun, col) = binder.resolve(c)?;
                    if matches!(func, crate::ast::AggFunc::Sum | crate::ast::AggFunc::Avg) {
                        let dtype = binder
                            .catalog
                            .table(binder.quns[qun].table)
                            .and_then(|t| t.schema.column(col))
                            .map(|cd| cd.dtype);
                        if dtype == Some(jits_common::DataType::Str) {
                            return Err(JitsError::Binding(format!(
                                "{func}({c}) requires a numeric column"
                            )));
                        }
                    }
                    aggs.push(BoundAggregate {
                        func: *func,
                        col: Some((qun, col)),
                    });
                }
                other => {
                    return Err(JitsError::Binding(format!(
                        "{other:?} cannot be mixed with aggregates without GROUP BY"
                    )))
                }
            }
        }
        return Ok(Projection::Aggregates(aggs));
    }
    let mut cols = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Column(c) => cols.push(binder.resolve(c)?),
            other => {
                return Err(JitsError::Binding(format!(
                    "{other:?} cannot be combined with other projection items"
                )))
            }
        }
    }
    Ok(Projection::Columns(cols))
}

struct Binder<'a> {
    quns: &'a [Qun],
    catalog: &'a Catalog,
}

impl Binder<'_> {
    /// Resolves a column reference to (quantifier index, column id).
    fn resolve(&self, c: &ColRef) -> Result<(usize, ColumnId)> {
        match &c.qualifier {
            Some(q) => {
                let ql = q.to_ascii_lowercase();
                let (qi, qun) = self
                    .quns
                    .iter()
                    .enumerate()
                    .find(|(_, qn)| {
                        qn.alias == ql || self.catalog.table(qn.table).is_some_and(|t| t.name == ql)
                    })
                    .ok_or_else(|| JitsError::Binding(format!("unknown table qualifier '{q}'")))?;
                let schema = self.catalog.schema(qun.table)?;
                Ok((qi, schema.require_column(&c.column)?))
            }
            None => {
                let mut hit = None;
                for (qi, qun) in self.quns.iter().enumerate() {
                    let schema = self.catalog.schema(qun.table)?;
                    if let Some(cid) = schema.column_id(&c.column) {
                        if hit.is_some() {
                            return Err(JitsError::Binding(format!(
                                "ambiguous column '{}'",
                                c.column
                            )));
                        }
                        hit = Some((qi, cid));
                    }
                }
                hit.ok_or_else(|| JitsError::Binding(format!("unknown column '{}'", c.column)))
            }
        }
    }
}

/// Normalizes an IN list: rejects empties/NULLs, deduplicates, and folds a
/// single-element list into an equality interval (regaining its region
/// form).
fn bind_in_list(values: &[Value]) -> Result<PredKind> {
    if values.is_empty() {
        return Err(JitsError::Binding("IN list cannot be empty".into()));
    }
    if values.iter().any(Value::is_null) {
        return Err(JitsError::Binding(
            "NULL in an IN list never matches".into(),
        ));
    }
    let mut dedup: Vec<Value> = Vec::with_capacity(values.len());
    for v in values {
        if !dedup.iter().any(|d| d.sql_eq(v)) {
            dedup.push(v.clone());
        }
    }
    Ok(match <[Value; 1]>::try_from(dedup) {
        Ok([v]) => PredKind::Interval(Interval::point(v)),
        Err(dedup) => PredKind::InList(dedup),
    })
}

fn single_table_binder<'a>(table: TableId, alias: &str, catalog: &'a Catalog) -> SingleBinder<'a> {
    SingleBinder {
        table,
        alias: alias.to_ascii_lowercase(),
        catalog,
    }
}

struct SingleBinder<'a> {
    table: TableId,
    alias: String,
    catalog: &'a Catalog,
}

fn bind_local_predicates(
    preds: &[AstPredicate],
    binder: &SingleBinder<'_>,
) -> Result<Vec<LocalPredicate>> {
    preds
        .iter()
        .map(|p| {
            let (col, kind) = match p {
                AstPredicate::Cmp {
                    left,
                    op,
                    right: Operand::Literal(v),
                } => {
                    if v.is_null() {
                        return Err(JitsError::Binding(
                            "comparison with NULL is never true".into(),
                        ));
                    }
                    let kind = match op {
                        CmpOp::Eq => PredKind::Interval(Interval::point(v.clone())),
                        CmpOp::Ne => PredKind::NotEq(v.clone()),
                        CmpOp::Lt => PredKind::Interval(Interval::at_most(v.clone(), false)),
                        CmpOp::Le => PredKind::Interval(Interval::at_most(v.clone(), true)),
                        CmpOp::Gt => PredKind::Interval(Interval::at_least(v.clone(), false)),
                        CmpOp::Ge => PredKind::Interval(Interval::at_least(v.clone(), true)),
                    };
                    (left, kind)
                }
                AstPredicate::Between { col, low, high } => (
                    col,
                    PredKind::Interval(Interval::between(low.clone(), high.clone())),
                ),
                AstPredicate::InList { col, values } => (col, bind_in_list(values)?),
                AstPredicate::IsNull { col, negated } => (col, PredKind::IsNull(*negated)),
                other => {
                    return Err(JitsError::Binding(format!(
                        "unsupported predicate in DML statement: {other:?}"
                    )))
                }
            };
            if let Some(q) = &col.qualifier {
                let ql = q.to_ascii_lowercase();
                let name_ok = binder.alias == ql
                    || binder
                        .catalog
                        .table(binder.table)
                        .is_some_and(|t| t.name == ql);
                if !name_ok {
                    return Err(JitsError::Binding(format!("unknown table qualifier '{q}'")));
                }
            }
            let schema = binder.catalog.schema(binder.table)?;
            Ok(LocalPredicate {
                qun: 0,
                column: schema.require_column(&col.column)?,
                kind,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use jits_common::{DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("ownerid", DataType::Int),
                ("make", DataType::Str),
                ("model", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        c.register_table(
            "owner",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("salary", DataType::Float),
            ]),
        )
        .unwrap();
        c
    }

    fn bind_sql(sql: &str) -> Result<BoundStatement> {
        bind_statement(&parse(sql)?, &catalog())
    }

    #[test]
    fn binds_join_query() {
        let b = bind_sql(
            "SELECT o.name FROM car c, owner o \
             WHERE c.ownerid = o.id AND make = 'Toyota' AND salary > 5000",
        )
        .unwrap();
        let BoundStatement::Select(q) = b else {
            panic!()
        };
        assert_eq!(q.quns.len(), 2);
        assert_eq!(q.join_predicates.len(), 1);
        assert_eq!(q.local_predicates.len(), 2);
        // unqualified 'make' resolved to car (qun 0), 'salary' to owner
        assert_eq!(q.local_predicates[0].qun, 0);
        assert_eq!(q.local_predicates[1].qun, 1);
    }

    #[test]
    fn ambiguous_unqualified_column() {
        // 'id' exists in both tables
        let e = bind_sql("SELECT id FROM car c, owner o WHERE c.ownerid = o.id");
        assert!(matches!(e, Err(JitsError::Binding(m)) if m.contains("ambiguous")));
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(bind_sql("SELECT * FROM nosuch").is_err());
        assert!(bind_sql("SELECT nosuch FROM car").is_err());
        assert!(bind_sql("SELECT x.make FROM car c").is_err());
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(bind_sql("SELECT * FROM car c, owner c").is_err());
        // same table twice with distinct aliases is fine (self-join)
        assert!(bind_sql("SELECT * FROM car a, car b WHERE a.id = b.id").is_ok());
    }

    #[test]
    fn non_equi_join_rejected() {
        let e = bind_sql("SELECT * FROM car c, owner o WHERE c.ownerid > o.id");
        assert!(e.is_err());
        let e = bind_sql("SELECT * FROM car c WHERE c.id = c.ownerid");
        assert!(e.is_err());
    }

    #[test]
    fn binds_update_delete_insert() {
        let b = bind_sql("UPDATE car SET year = 2007 WHERE make = 'Audi'").unwrap();
        let BoundStatement::Update(u) = b else {
            panic!()
        };
        assert_eq!(u.sets, vec![(ColumnId(4), Value::Int(2007))]);
        assert_eq!(u.predicates.len(), 1);

        // SET values are typed at bind: an Int literal widens into the
        // Float column, a string is rejected with nothing executed
        let b = bind_sql("UPDATE owner SET salary = 999 WHERE id = 1").unwrap();
        let BoundStatement::Update(u) = b else {
            panic!()
        };
        assert!(matches!(u.sets[0].1, Value::Float(f) if f == 999.0));
        let e = bind_sql("UPDATE owner SET salary = 999, name = 7 WHERE id = 1");
        assert!(matches!(e, Err(JitsError::Binding(m)) if m.contains("name")));

        let b = bind_sql("DELETE FROM owner WHERE salary < 100").unwrap();
        let BoundStatement::Delete(d) = b else {
            panic!()
        };
        assert_eq!(d.predicates.len(), 1);

        let b = bind_sql("INSERT INTO owner VALUES (1, 'Ann', 50000.0)").unwrap();
        let BoundStatement::Insert(i) = b else {
            panic!()
        };
        assert_eq!(i.rows.len(), 1);

        // arity mismatch caught at bind time
        assert!(bind_sql("INSERT INTO owner VALUES (1, 'Ann')").is_err());
    }

    #[test]
    fn qualified_dml_predicates() {
        assert!(bind_sql("DELETE FROM car WHERE car.year < 1995").is_ok());
        assert!(bind_sql("DELETE FROM car WHERE owner.year < 1995").is_err());
    }

    #[test]
    fn between_binds_to_interval() {
        let b = bind_sql("SELECT * FROM car WHERE year BETWEEN 2000 AND 2005").unwrap();
        let BoundStatement::Select(q) = b else {
            panic!()
        };
        let iv = q.local_predicates[0].interval().unwrap();
        assert!(iv.contains(&Value::Int(2000)));
        assert!(iv.contains(&Value::Int(2005)));
        assert!(!iv.contains(&Value::Int(2006)));
    }

    #[test]
    fn null_comparison_rejected() {
        assert!(bind_sql("SELECT * FROM car WHERE make = NULL").is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The binder never panics on what the parser accepts. Statements
        /// are built from the names of this two-table catalog (right, wrong
        /// table, qualified, unknown), mistyped literals and every statement
        /// form, plus the parser fuzz's SQL-ish soup; every outcome is `Ok`
        /// or a typed error other than an internal one.
        #[test]
        fn binder_never_panics_on_sqlish_soup(
            form in 0usize..7,
            picks in proptest::collection::vec(proptest::prelude::any::<usize>(), 16),
            soup in proptest::collection::vec(0usize..SOUP.len(), 0..24),
        ) {
            let pick = |i: usize, from: &[&'static str]| from[picks[i] % from.len()];
            let pred = |i: usize| {
                let (col, a, b) = (pick(i, COLUMNS), pick(i + 1, LITERALS), pick(i + 2, LITERALS));
                match picks[i + 3] % 4 {
                    0 => format!("{col} {} {a}", pick(i + 2, OPS)),
                    1 => format!("{col} IS {}NULL", ["", "NOT "][picks[i + 2] % 2]),
                    2 => format!("{col} IN ({a}, {b})"),
                    _ => format!("{col} BETWEEN {a} AND {b}"),
                }
            };
            let preds = format!("{} AND {}", pred(0), pred(4));
            let (table, col, lit) = (pick(8, TABLES), pick(9, COLUMNS), pick(10, LITERALS));
            let proj = pick(11, PROJECTIONS);
            let sql = match form {
                0 => format!("SELECT {proj} FROM {table} WHERE {preds}"),
                1 => format!("SELECT {col}, COUNT(*) FROM {table} WHERE {preds} GROUP BY {col}"),
                2 => format!("SELECT {proj} FROM {table} ORDER BY {col} DESC LIMIT 3"),
                3 => format!("UPDATE {table} SET {col} = {lit} WHERE {preds}"),
                4 => format!("DELETE FROM {table} WHERE {preds}"),
                5 => format!(
                    "INSERT INTO {table} VALUES ({lit}, {}, {})",
                    pick(12, LITERALS),
                    pick(13, LITERALS)
                ),
                _ => soup.iter().map(|&i| SOUP[i]).collect::<Vec<_>>().join(" "),
            };
            if let Ok(stmt) = parse(&sql) {
                if let Err(e) = bind_statement(&stmt, &catalog()) {
                    assert!(!matches!(e, JitsError::Internal(_)), "{sql}: {e:?}");
                }
            }
        }
    }

    const TABLES: &[&str] = &["car", "owner", "car c, owner o", "owner o, car c", "nope"];
    const COLUMNS: &[&str] = &[
        "id",
        "ownerid",
        "make",
        "model",
        "year",
        "name",
        "salary",
        "c.id",
        "o.id",
        "c.ownerid",
        "o.salary",
        "car.make",
        "x.id",
        "nope",
    ];
    const OPS: &[&str] = &["=", "<", ">", "<>", "<=", ">="];
    const LITERALS: &[&str] = &[
        "'x'",
        "42",
        "3.5",
        "-1",
        "NULL",
        "'Toyota'",
        "o.id",
        "c.ownerid",
        "year",
    ];
    const PROJECTIONS: &[&str] = &[
        "*",
        "COUNT(*)",
        "id, make",
        "SUM(salary)",
        "AVG(year), MIN(make)",
        "o.name, c.make",
        "MAX(nope)",
    ];
    /// The parser fuzz's fragments plus this catalog's names.
    const SOUP: &[&str] = &[
        "SELECT", "FROM", "WHERE", "AND", "BETWEEN", "ORDER", "BY", "LIMIT", "COUNT", "(", ")",
        "*", ",", "=", "<", ">", "<>", "'x'", "42", "3.5", "car", "make", "c", ".", ";", "owner",
        "o", "id", "ownerid", "model", "year", "name", "salary",
    ];
}
